//===- tests/TestVM.cpp - Bytecode compiler and VM tests ----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Crc32.h"
#include "vm/Noise.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

using namespace dspec;

namespace {

/// Compiles one function and runs it.
ExecResult runSource(const std::string &Source, const std::string &Name,
                     const std::vector<Value> &Args, VM *Machine = nullptr) {
  auto Unit = parseUnit(Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Code = compileFunction(*Unit, Name);
  EXPECT_TRUE(Code.has_value());
  VM Local;
  return (Machine ? *Machine : Local).run(*Code, Args);
}

TEST(VM, IntArithmetic) {
  auto R = runSource("int f(int a, int b) { return (a + b) * 2 - b / 2 + "
                     "b % 3; }",
                     "f", {Value::makeInt(5), Value::makeInt(7)});
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Result.asInt(), (5 + 7) * 2 - 7 / 2 + 7 % 3);
}

TEST(VM, FloatArithmeticAndPromotion) {
  auto R = runSource("float f(float a, int b) { return a * b + b / 2; }",
                     "f", {Value::makeFloat(1.5f), Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  // b / 2 is *integer* division (both operands int), then promotes.
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 1.5f * 5 + 2);
}

TEST(VM, IntDivisionByZeroTraps) {
  auto R = runSource("int f(int a) { return 1 / a; }", "f",
                     {Value::makeInt(0)});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("division by zero"), std::string::npos);
}

TEST(VM, FloatDivisionByZeroIsInf) {
  auto R = runSource("float f(float a) { return 1.0 / a; }", "f",
                     {Value::makeFloat(0.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(std::isinf(R.Result.asFloat()));
}

TEST(VM, ModByZeroTraps) {
  auto R = runSource("int f(int a) { return 7 % a; }", "f",
                     {Value::makeInt(0)});
  EXPECT_TRUE(R.Trapped);
}

TEST(VM, Comparisons) {
  auto R = runSource("bool f(int a, float b) { return a <= b; }", "f",
                     {Value::makeInt(2), Value::makeFloat(2.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Result.asBool());
}

TEST(VM, StrictLogicalOperators) {
  // Both sides evaluate (dsc && is strict); semantics still boolean.
  auto R = runSource(
      "bool f(bool a, bool b) { return a && b || !a && !b; }", "f",
      {Value::makeBool(true), Value::makeBool(false)});
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.Result.asBool());
}

TEST(VM, TernarySelectsButEvaluatesBoth) {
  auto R = runSource("float f(bool c) { return c ? 1.0 : 2.0; }", "f",
                     {Value::makeBool(false)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 2.0f);
}

TEST(VM, WhileLoopAccumulates) {
  auto R = runSource(R"(
int f(int n) {
  int total = 0;
  int i = 0;
  while (i < n) {
    total = total + i * i;
    i = i + 1;
  }
  return total;
})",
                     "f", {Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Result.asInt(), 0 + 1 + 4 + 9 + 16);
}

TEST(VM, NestedLoops) {
  auto R = runSource(R"(
int f(int n) {
  int total = 0;
  for (int i = 0; i < n; i = i + 1) {
    for (int j = 0; j <= i; j = j + 1) {
      total = total + 1;
    }
  }
  return total;
})",
                     "f", {Value::makeInt(4)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Result.asInt(), 1 + 2 + 3 + 4);
}

TEST(VM, InstructionBudgetStopsRunaways) {
  auto Unit = parseUnit("int f() { while (true) { int x = 0; } return 0; }");
  ASSERT_TRUE(Unit->ok());
  auto Code = compileFunction(*Unit, "f");
  VM Machine;
  Machine.InstructionBudget = 10000;
  auto R = Machine.run(*Code, {});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("budget"), std::string::npos);
}

TEST(VM, VectorOpsAndMembers) {
  auto R = runSource(R"(
float f(vec3 a, vec3 b, float s) {
  vec3 c = (a + b) * s;
  vec3 d = c / 2.0;
  return d.x + d.y * 10.0 + d.z * 100.0;
})",
                     "f",
                     {Value::makeVec3(1, 2, 3), Value::makeVec3(4, 5, 6),
                      Value::makeFloat(2.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 5.0f + 70.0f + 900.0f);
}

TEST(VM, ZeroInitializedDecl) {
  auto R = runSource("float f() { float x; return x + 1.0; }", "f", {});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 1.0f);
}

TEST(VM, ShadowedVariablesGetDistinctSlots) {
  auto R = runSource(R"(
int f(int p) {
  int x = 1;
  if (p > 0) {
    int x = 100;
    x = x + 1;
  }
  return x;
})",
                     "f", {Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Result.asInt(), 1);
}

TEST(VM, ParamCountMismatchTraps) {
  auto Unit = parseUnit("int f(int a) { return a; }");
  auto Code = compileFunction(*Unit, "f");
  VM Machine;
  auto R = Machine.run(*Code, {});
  EXPECT_TRUE(R.Trapped);
}

TEST(VM, IntArgPromotesToFloatParam) {
  auto Unit = parseUnit("float f(float a) { return a * 2.0; }");
  auto Code = compileFunction(*Unit, "f");
  VM Machine;
  auto R = Machine.run(*Code, {Value::makeInt(3)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 6.0f);
}

TEST(VM, CacheAccessWithoutCacheTraps) {
  // A reader requires its cache: build one via the specializer, then run
  // it with no cache bound.
  auto Unit = parseUnit("float f(float a, float b) { return sqrt(a) * b; }");
  auto Spec = specializeAndCompile(*Unit, "f", {"b"});
  ASSERT_TRUE(Spec.has_value());
  VM Machine;
  auto R = Machine.run(Spec->ReaderChunk,
                       {Value::makeFloat(4.0f), Value::makeFloat(2.0f)});
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("cache"), std::string::npos);
}

TEST(VM, TraceBuiltinRecords) {
  VM Machine;
  auto R = runSource("void f(float x) { dsc_trace(x); dsc_trace(x * 2.0); }",
                     "f", {Value::makeFloat(3.0f)}, &Machine);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(Machine.traceLog().size(), 2u);
  EXPECT_FLOAT_EQ(Machine.traceLog()[0], 3.0f);
  EXPECT_FLOAT_EQ(Machine.traceLog()[1], 6.0f);
}

TEST(VM, ClockAdvances) {
  VM Machine;
  auto Unit = parseUnit("float f() { return dsc_clock(); }");
  auto Code = compileFunction(*Unit, "f");
  auto First = Machine.run(*Code, {});
  auto Second = Machine.run(*Code, {});
  ASSERT_TRUE(First.ok());
  ASSERT_TRUE(Second.ok());
  EXPECT_LT(First.Result.asFloat(), Second.Result.asFloat());
}

TEST(VM, InstructionCountIsReported) {
  auto R = runSource("int f() { return 1 + 2; }", "f", {});
  ASSERT_TRUE(R.ok());
  EXPECT_GT(R.InstructionsExecuted, 0u);
  EXPECT_LT(R.InstructionsExecuted, 10u);
}

TEST(VM, DisassemblyMentionsOpcodes) {
  auto Unit = parseUnit("int f(int a) { if (a > 0) { return 1; } return 0; }");
  auto Code = compileFunction(*Unit, "f");
  std::string Text = Code->disassemble();
  EXPECT_NE(Text.find("jfalse"), std::string::npos) << Text;
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

TEST(Builtins, ScalarMathMatchesLibm) {
  auto R = runSource(
      "float f(float x) { return sqrt(x) + sin(x) + cos(x) + exp(x) + "
      "log(x) + pow(x, 2.5) + floor(x) + ceil(x) + fract(x) + tan(x); }",
      "f", {Value::makeFloat(1.75f)});
  ASSERT_TRUE(R.ok());
  float X = 1.75f;
  float Expected = std::sqrt(X) + std::sin(X) + std::cos(X) + std::exp(X) +
                   std::log(X) + std::pow(X, 2.5f) + std::floor(X) +
                   std::ceil(X) + (X - std::floor(X)) + std::tan(X);
  EXPECT_FLOAT_EQ(R.Result.asFloat(), Expected);
}

TEST(Builtins, MinMaxClampMixStep) {
  auto R = runSource(
      "float f(float a, float b) { return min(a, b) + max(a, b) * 10.0 + "
      "clamp(a, 0.0, 1.0) * 100.0 + mix(a, b, 0.5) * 1000.0 + "
      "step(a, b) * 10000.0 + smoothstep(0.0, 1.0, 0.5) * 100000.0; }",
      "f", {Value::makeFloat(2.0f), Value::makeFloat(3.0f)});
  ASSERT_TRUE(R.ok());
  EXPECT_FLOAT_EQ(R.Result.asFloat(),
                  2.0f + 30.0f + 100.0f + 2500.0f + 10000.0f + 50000.0f);
}

TEST(Builtins, VectorOps) {
  auto R = runSource(R"(
float f(vec3 a, vec3 b) {
  vec3 c = cross(a, b);
  float d = dot(a, b);
  float l = length(b);
  vec3 n = normalize(b);
  return c.x + d + l + length(n);
})",
                     "f",
                     {Value::makeVec3(1, 0, 0), Value::makeVec3(0, 2, 0)});
  ASSERT_TRUE(R.ok());
  // cross((1,0,0),(0,2,0)) = (0,0,2); dot = 0; |b| = 2; |n| = 1.
  EXPECT_FLOAT_EQ(R.Result.asFloat(), 0.0f + 0.0f + 2.0f + 1.0f);
}

TEST(Builtins, ReflectAndRotate) {
  auto R = runSource(R"(
float f(vec3 v, vec3 n) {
  vec3 r = reflect(v, n);
  vec3 rx = rotateZ(vec3(1.0, 0.0, 0.0), 1.5707964);
  return r.y + rx.y;
})",
                     "f",
                     {Value::makeVec3(1, -1, 0), Value::makeVec3(0, 1, 0)});
  ASSERT_TRUE(R.ok());
  // reflect((1,-1,0), (0,1,0)) = (1,1,0); rotateZ(x-axis, pi/2) = y-axis.
  EXPECT_NEAR(R.Result.asFloat(), 1.0f + 1.0f, 1e-5f);
}

TEST(Noise, DeterministicAndBounded) {
  float A = perlinNoise3(0.3f, 1.7f, -2.2f);
  float B = perlinNoise3(0.3f, 1.7f, -2.2f);
  EXPECT_EQ(A, B);
  for (float X = -3.0f; X < 3.0f; X += 0.37f) {
    float N = perlinNoise3(X, X * 0.5f, -X);
    EXPECT_GE(N, -1.2f);
    EXPECT_LE(N, 1.2f);
  }
}

TEST(Noise, LatticeZeros) {
  // Gradient noise vanishes on integer lattice points.
  EXPECT_FLOAT_EQ(perlinNoise3(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(perlinNoise3(1, 2, 3), 0.0f);
  EXPECT_FLOAT_EQ(perlinNoise3(-4, 7, 11), 0.0f);
}

TEST(Noise, NotConstant) {
  float A = perlinNoise3(0.5f, 0.5f, 0.5f);
  float B = perlinNoise3(0.9f, 0.1f, 0.4f);
  EXPECT_NE(A, B);
}

TEST(Noise, FbmAndTurbulence) {
  float Single = perlinNoise3(0.4f, 0.6f, 0.8f);
  float One = fbm3(0.4f, 0.6f, 0.8f, 1, 2.0f, 0.5f);
  EXPECT_FLOAT_EQ(Single, One);
  float Turb = turbulence3(0.4f, 0.6f, 0.8f, 6);
  EXPECT_GE(Turb, 0.0f);
  // Adding octaves adds magnitude (absolute noise sums).
  EXPECT_GE(turbulence3(0.4f, 0.6f, 0.8f, 8), Turb - 1e-6f);
}

/// Floats at the edges of the noise kernel's float handling: signed
/// zeros, the fractions next to 0 and -1, denormals, the floats either
/// side of 2^23 (from where on every float is an integer) and of 2^31
/// (where the lattice index's int conversion overflows), huge values,
/// infinities and NaN of both signs.
std::vector<float> noiseEdgeValues() {
  const float Inf = std::numeric_limits<float>::infinity();
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const float Denorm = std::numeric_limits<float>::denorm_min();
  const float Min = std::numeric_limits<float>::min();
  const float Max = std::numeric_limits<float>::max();
  return {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -0.5f, 0.99999994f, -0.99999994f,
          3.75f, -12.125f, 255.0f, 256.0f, -255.5f, -256.0f, Denorm, -Denorm,
          0x1.fffffcp-127f, -0x1.fffffcp-127f, Min, -Min,
          0x1.fffffep22f, -0x1.fffffep22f, 0x1p23f, -0x1p23f,
          0x1.000002p23f, -0x1.000002p23f, 0x1.fffffep30f, -0x1.fffffep30f,
          0x1p31f, -0x1p31f, 0x1.000002p31f, -0x1.000002p31f,
          1e10f, -1e10f, Max, -Max, Inf, -Inf, NaN, -NaN};
}

/// The next float of a deterministic input stream (xorshift32 over
/// \p State), drawn from one of five classes at random.
float nextNoiseInput(uint32_t &State) {
  auto Next = [&State] {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State;
  };
  const uint32_t Bits = Next();
  switch (Next() % 5) {
  case 0: // Lattice points.
    return static_cast<float>(static_cast<int32_t>(Bits % 601) - 300);
  case 1: // Negative fractions in (-4, 0].
    return -static_cast<float>(Bits >> 8) * 0x1p-22f;
  case 2: // Ordinary values in [-1000, 1000).
    return static_cast<float>(Bits >> 8) * (2000.0f / 16777216.0f) - 1000.0f;
  case 3: // Magnitudes from 2^-30 to 2^41, either sign.
    return std::bit_cast<float>((Bits & 0x807fffffu) |
                                ((97u + ((Bits >> 23) & 0xffu) % 71u) << 23));
  default: // Any bit pattern: denormals, infinities and NaNs included.
    return std::bit_cast<float>(Bits);
  }
}

/// The noise input set the known answers were taken over: every triple
/// of edge values, then random triples up to \p Count.
void noiseInputSet(size_t Count, std::vector<float> &X, std::vector<float> &Y,
                   std::vector<float> &Z) {
  const std::vector<float> Edges = noiseEdgeValues();
  for (float A : Edges)
    for (float B : Edges)
      for (float C : Edges) {
        X.push_back(A);
        Y.push_back(B);
        Z.push_back(C);
      }
  uint32_t State = 0x9e3779b9u;
  while (X.size() < Count) {
    X.push_back(nextNoiseInput(State));
    Y.push_back(nextNoiseInput(State));
    Z.push_back(nextNoiseInput(State));
  }
}

/// CRC-32 over the little-endian bits of \p Results, every NaN replaced
/// by 0x7fc00000 so that only which results are NaN counts, not their
/// sign or payload; \p NaNs receives how many there are.
uint32_t noiseResultCrc(const std::vector<float> &Results, size_t &NaNs) {
  std::vector<unsigned char> Bytes;
  Bytes.reserve(Results.size() * 4);
  NaNs = 0;
  for (float R : Results) {
    uint32_t Bits = std::bit_cast<uint32_t>(R);
    if (std::isnan(R)) {
      Bits = 0x7fc00000u;
      ++NaNs;
    }
    for (unsigned Byte = 0; Byte < 4; ++Byte)
      Bytes.push_back(static_cast<unsigned char>(Bits >> (8 * Byte)));
  }
  return crc32(Bytes.data(), Bytes.size());
}

std::string hexFloat(float F) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%a", static_cast<double>(F));
  return Buf;
}

TEST(Noise, MatchesSeedValues) {
  // Results of the scalar implementation that every tier ran before the
  // lane kernel replaced it, so a change in noise values shows here even
  // though every tier shares one kernel.
  struct Known {
    float X, Y, Z, Noise;
  };
  const Known Table[] = {
      {0.3f, 1.7f, -2.2f, -0x1.e79a5p-2f},
      {0.5f, 0.5f, 0.5f, -0x1p-2f},
      {0.9f, 0.1f, 0.4f, -0x1.19c0fp-1f},
      {0.4f, 0.6f, 0.8f, -0x1.13e5f4p-2f},
      {-0.5f, -0.25f, -0.75f, -0x1.841d6p-1f},
      {-0.99999994f, 0.5f, 0.25f, 0x1.15fffep-2f},
      {0.99999994f, -0.99999994f, 0.5f, 0x1.00000ep-2f},
      {-0.0f, 0.3f, 0.7f, 0x1.883874p-3f},
      {0.0f, -0.0f, 0.6f, 0x1.da9c98p-2f},
      {123.456f, -78.9f, 0.001f, 0x1.7273bap-4f},
      {-1234.5678f, 987.25f, -3.125f, -0x1.05364ep-2f},
      {255.5f, 256.5f, -256.5f, -0x1p-3f},
      {1e-40f, 0.5f, 0.5f, 0x0p+0f},
      {-1e-40f, -0.5f, 0.25f, 0x1.a8p-6f},
      {8388607.5f, 0.5f, 0.5f, -0x1p-2f},
      {-8388607.5f, 0.25f, 0.75f, -0x1.a3b74p-2f},
      {8388608.0f, 0.3f, 0.6f, 0x1.1850f8p-2f},
      {0.7f, -8388609.0f, 0.2f, 0x1.31a5bp-2f},
      {2147483520.0f, 0.5f, 0.5f, -0x1p-2f},
      {0.25f, -2147483648.0f, 0.75f, -0x1.0758p-6f},
      {3e9f, 0.5f, 0.4f, -0x1.2b1b28p-6f},
      {-1e10f, 0.3f, 0.6f, 0x1.1850f8p-2f},
      {0.1f, 0.2f, 3.4e38f, 0x1.717dfp-5f},
      {12.75f, -7.125f, 99.5f, -0x1.af158cp-2f},
      {0.33f, 0.66f, 0.99f, -0x1.5ccfbep-2f},
      {-3.3f, 4.4f, -5.5f, 0x1.514d6ap-1f},
      {17.17f, 42.42f, -13.13f, 0x1.1d73e8p-2f},
      {0.0625f, 0.1875f, 0.3125f, 0x1.6ebc64p-2f},
      {-100.01f, -200.02f, -300.03f, 0x1.497bcp-5f},
      {1.5f, 2.5f, 3.5f, 0x1p-3f},
      {64.2f, 0.8f, -32.6f, 0x1.bffa2p-4f},
      {-0.001f, 0.001f, -0.001f, -0x1.064246p-9f},
  };
  for (const Known &K : Table)
    EXPECT_EQ(std::bit_cast<uint32_t>(perlinNoise3(K.X, K.Y, K.Z)),
              std::bit_cast<uint32_t>(K.Noise))
        << "noise(" << hexFloat(K.X) << ", " << hexFloat(K.Y) << ", "
        << hexFloat(K.Z) << ") = " << hexFloat(perlinNoise3(K.X, K.Y, K.Z))
        << ", expected " << hexFloat(K.Noise);

  // The same answers over 10^6 inputs, one lane at a time and in lanes.
  std::vector<float> X, Y, Z;
  noiseInputSet(1000000, X, Y, Z);
  std::vector<float> Scalar(X.size());
  for (size_t I = 0; I < X.size(); ++I)
    Scalar[I] = perlinNoise3(X[I], Y[I], Z[I]);
  size_t NaNs = 0;
  EXPECT_EQ(noiseResultCrc(Scalar, NaNs), 0xce545510u);
  EXPECT_EQ(NaNs, 19593u);
  std::vector<float> Lanes = X;
  perlinNoise3Lanes(Lanes.data(), Y.data(), Z.data(),
                    static_cast<unsigned>(Lanes.size()));
  EXPECT_EQ(noiseResultCrc(Lanes, NaNs), 0xce545510u);
  EXPECT_EQ(NaNs, 19593u);
}

TEST(Noise, LanesMatchScalar) {
  // Every lane count up to 70 hits full blocks of 32 and every tail
  // length. The buffers start one float past the allocation, and the
  // guard floats on either side of X must stay untouched.
  const std::vector<float> Edges = noiseEdgeValues();
  uint32_t State = 0x2545f491u;
  for (unsigned N = 0; N <= 70; ++N) {
    const float Guard = -7.25f;
    std::vector<float> X(N + 2, Guard), Y(N + 2, Guard), Z(N + 2, Guard);
    for (unsigned L = 1; L <= N; ++L) {
      // Edge values in every lane position, ordinary values between.
      const unsigned E = (N * 7 + L) % (2 * Edges.size());
      X[L] = E < Edges.size() ? Edges[E] : nextNoiseInput(State);
      Y[L] = Edges[(N + 3 * L) % Edges.size()];
      Z[L] = nextNoiseInput(State);
    }
    std::vector<float> Expected(N + 2, Guard);
    for (unsigned L = 1; L <= N; ++L)
      Expected[L] = perlinNoise3(X[L], Y[L], Z[L]);
    perlinNoise3Lanes(X.data() + 1, Y.data() + 1, Z.data() + 1, N);
    for (unsigned L = 0; L < N + 2; ++L)
      EXPECT_TRUE(std::bit_cast<uint32_t>(X[L]) ==
                      std::bit_cast<uint32_t>(Expected[L]) ||
                  (std::isnan(X[L]) && std::isnan(Expected[L])))
          << "N = " << N << ", lane " << L << ": lanes " << hexFloat(X[L])
          << ", scalar " << hexFloat(Expected[L]);
  }
}

} // namespace
