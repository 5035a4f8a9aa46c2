//===- tests/TestTypedLanes.cpp - Typed-lane batched tier tests --------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched tier's typed-lane contract (docs/ENGINE.md, "The batching
/// contract"): stack depths and locals live in f32/i32 columns whose
/// kinds buildExecChunk fixes statically, pixel parameters come straight
/// from the grid's columns, and results leave as Values or as the reply's
/// RGB floats. All of it must stay bit-identical to the classic switch
/// interpreter: every gallery partition in both output forms at 1 and 4
/// threads on a grid that is not a multiple of the tile, IEEE special
/// values through every typed builtin, int div/mod by zero under a mask,
/// and the per-pixel fallback's RGB write.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "service/Protocol.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "vm/ExecChunk.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace dspec;

namespace {

bool bitIdentical(const Value &A, const Value &B) {
  return A.Kind == B.Kind && A.I == B.I &&
         std::memcmp(A.F, B.F, sizeof(A.F)) == 0;
}

/// Bit-identical floats, except that two NaNs match whatever their sign
/// and payload. IEEE 754 leaves unspecified which operand's NaN an
/// operation on two NaNs returns; x86 returns the first operand's and
/// the compiler may commute operands, so the switch tier itself differs
/// here between kinds (float + float keeps the left NaN, vec3 + vec3 the
/// right one in a GCC 12 build). Every other bit — signed zeros,
/// denormals, infinities, which lanes are NaN — must match.
bool sameFloat(float A, float B) {
  return std::memcmp(&A, &B, sizeof(float)) == 0 ||
         (std::isnan(A) && std::isnan(B));
}

bool sameValue(const Value &A, const Value &B) {
  if (A.Kind != B.Kind || A.I != B.I)
    return false;
  for (unsigned C = 0; C < 4; ++C)
    if (!sameFloat(A.F[C], B.F[C]))
      return false;
  return true;
}

void expectSameImage(const Framebuffer &A, const Framebuffer &B,
                     const std::string &What) {
  ASSERT_EQ(A.width(), B.width());
  ASSERT_EQ(A.height(), B.height());
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X)
      ASSERT_TRUE(bitIdentical(A.at(X, Y), B.at(X, Y)))
          << What << ": pixel " << X << "," << Y << " differs";
}

void expectSameFloats(const std::vector<float> &A, const std::vector<float> &B,
                      const std::string &What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(std::memcmp(&A[I], &B[I], sizeof(float)), 0)
        << What << ": float " << I << " (pixel " << I / 3 << ") differs";
}

std::vector<unsigned char> arenaBytes(const CacheArena &Arena) {
  const unsigned char *Raw = Arena.raw();
  return std::vector<unsigned char>(Raw, Raw + Arena.totalBytes());
}

Chunk compileOne(const std::string &Source, const std::string &Name) {
  auto Unit = parseUnit(Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Code = compileFunction(*Unit, Name);
  EXPECT_TRUE(Code.has_value());
  return *Code;
}

/// An RGB buffer for \p Pixels pixels, pre-filled with a NaN pattern no
/// pass produces, so an unwritten pixel cannot pass for a written one.
std::vector<float> rgbBuffer(size_t Pixels) {
  const uint32_t Bits = 0x7fa5a5a5u;
  float Sentinel;
  std::memcpy(&Sentinel, &Bits, sizeof(float));
  return std::vector<float>(Pixels * 3, Sentinel);
}

//===----------------------------------------------------------------------===//
// Every gallery partition, both output forms
//===----------------------------------------------------------------------===//

class TypedLanesGallery : public ::testing::TestWithParam<size_t> {};

/// Loader, reader (as Values and as RGB floats) and original passes of
/// every partition of one shader, batched at 1 and 4 threads, against
/// the switch tier. 37 x 23 = 851 pixels leaves a 83-lane last tile.
/// No pixel of any pass takes the per-pixel fallback.
TEST_P(TypedLanesGallery, EveryPartitionMatchesSwitchInBothOutputForms) {
  const ShaderInfo &Info = shaderGallery()[GetParam()];
  const unsigned W = 37, H = 23;
  ShaderLab Lab(W, H);
  for (size_t P = 0; P < Info.Controls.size(); ++P) {
    auto Spec = Lab.specializePartition(Info, P);
    ASSERT_TRUE(Spec.has_value()) << Lab.lastError();
    const std::string Part = Info.Name + "/" + Info.Controls[P].Name;

    RenderEngine Ref(1);
    Ref.setExecTier(ExecTier::Switch);
    std::vector<float> Controls = ShaderLab::defaultControls(Info);
    Framebuffer LoadRef(W, H), ReadRef(W, H), PlainRef(W, H);
    ASSERT_TRUE(Spec->load(Ref, Lab.grid(), Controls, &LoadRef))
        << Part << ": " << Ref.lastTrap();
    const std::vector<unsigned char> ArenaRef = arenaBytes(Spec->arena());
    // Drag the varying control away from its load-time value.
    Controls[P] = Info.Controls[P].SweepMax;
    ASSERT_TRUE(Spec->readFrame(Ref, Lab.grid(), Controls, &ReadRef));
    ASSERT_TRUE(Spec->originalFrame(Ref, Lab.grid(), Controls, &PlainRef));
    const std::vector<float> RGBRef =
        RenderReply::fromFramebuffer(ReadRef).Pixels;

    for (unsigned Threads : {1u, 4u}) {
      RenderEngine Engine(Threads);
      ASSERT_EQ(Engine.execTier(), ExecTier::Batched);
      const std::string Tag = Part + " @" + std::to_string(Threads) + "t";
      Controls = ShaderLab::defaultControls(Info);
      Framebuffer Load(W, H), Read(W, H), Plain(W, H);
      ASSERT_TRUE(Spec->load(Engine, Lab.grid(), Controls, &Load))
          << Tag << ": " << Engine.lastTrap();
      EXPECT_GT(Engine.lastPassStats().BatchTiles, 0u) << Tag;
      EXPECT_EQ(Engine.lastPassStats().PerPixelPixels, 0u) << "loader " << Tag;
      EXPECT_EQ(arenaBytes(Spec->arena()), ArenaRef)
          << Tag << ": loader pass filled different arena bytes";
      expectSameImage(LoadRef, Load, "loader " + Tag);

      Controls[P] = Info.Controls[P].SweepMax;
      ASSERT_TRUE(Spec->readFrame(Engine, Lab.grid(), Controls, &Read))
          << Tag << ": " << Engine.lastTrap();
      EXPECT_GT(Engine.lastPassStats().BatchTiles, 0u) << Tag;
      EXPECT_EQ(Engine.lastPassStats().PerPixelPixels, 0u) << "reader " << Tag;
      expectSameImage(ReadRef, Read, "reader " + Tag);

      std::vector<float> RGB = rgbBuffer(static_cast<size_t>(W) * H);
      ASSERT_TRUE(Engine.readerPassRGB(Spec->compiled().ReaderChunk,
                                       Lab.grid(), Controls, Spec->arena(),
                                       RGB.data()))
          << Tag << ": " << Engine.lastTrap();
      expectSameFloats(RGBRef, RGB, "reader RGB " + Tag);

      ASSERT_TRUE(Spec->originalFrame(Engine, Lab.grid(), Controls, &Plain))
          << Tag << ": " << Engine.lastTrap();
      EXPECT_GT(Engine.lastPassStats().BatchTiles, 0u) << Tag;
      EXPECT_EQ(Engine.lastPassStats().PerPixelPixels, 0u)
          << "original " << Tag;
      expectSameImage(PlainRef, Plain, "original " + Tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, TypedLanesGallery,
    ::testing::Range<size_t>(0, shaderGallery().size()),
    [](const ::testing::TestParamInfo<size_t> &P) {
      return shaderGallery()[P.param].Name;
    });

//===----------------------------------------------------------------------===//
// IEEE special values through every typed builtin
//===----------------------------------------------------------------------===//

/// Runs \p Code batched over one lane per entry of \p LaneArgs (float
/// parameters only) in tiles of at most 128 lanes, and requires each lane
/// to equal the switch interpreter (sameValue).
void expectLanesMatchSwitch(const Chunk &Code,
                            const std::vector<std::vector<float>> &LaneArgs,
                            const std::string &What) {
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid) << What;
  ASSERT_TRUE(Exec.BatchSafe) << What;
  VM Machine;
  const unsigned NumArgs = Code.NumParams;
  for (size_t Begin = 0; Begin < LaneArgs.size(); Begin += 128) {
    const unsigned Lanes =
        static_cast<unsigned>(std::min<size_t>(128, LaneArgs.size() - Begin));
    std::vector<std::vector<float>> Cols(NumArgs);
    std::vector<BatchArg> Args(NumArgs);
    for (unsigned A = 0; A < NumArgs; ++A) {
      for (unsigned L = 0; L < Lanes; ++L)
        Cols[A].push_back(LaneArgs[Begin + L][A]);
      Args[A].Kind = TypeKind::TK_Float;
      Args[A].Cols[0] = Cols[A].data();
    }
    std::vector<Value> Results(Lanes);
    std::vector<float> RGB = rgbBuffer(Lanes);
    BatchRequest Req;
    Req.Args = Args.data();
    Req.NumArgs = NumArgs;
    Req.Lanes = Lanes;
    Req.Results = Results.data();
    Req.RGB = RGB.data();
    ExecResult R = Machine.runBatch(Exec, Req);
    ASSERT_TRUE(R.ok()) << What << ": " << R.TrapMessage;
    ASSERT_FALSE(R.Diverged) << What;
    for (unsigned L = 0; L < Lanes; ++L) {
      std::vector<Value> Scalar;
      for (float X : LaneArgs[Begin + L])
        Scalar.push_back(Value::makeFloat(X));
      ExecResult Ref = Machine.run(Code, Scalar);
      ASSERT_TRUE(Ref.ok()) << What << ": " << Ref.TrapMessage;
      ASSERT_TRUE(sameValue(Ref.Result, Results[L]))
          << What << " lane " << Begin + L << ": switch "
          << Ref.Result.str() << ", batched " << Results[L].str();
      // The RGB form is a copy of the same result, so it matches the
      // Value form bit for bit, NaNs included.
      ASSERT_EQ(std::memcmp(&RGB[L * 3], Results[L].F, 3 * sizeof(float)), 0)
          << What << " lane " << Begin + L << ": RGB form differs";
    }
  }
}

/// NaN of both signs, signed zeros, denormals, infinities and ordinary
/// values, every combination over three arguments.
std::vector<std::vector<float>> specialLanes() {
  const float Inf = std::numeric_limits<float>::infinity();
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const float Denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> Values = {NaN,  -NaN, 0.0f,   -0.0f, Denorm,
                                     -1e-39f, Inf, -Inf, 1.0f,  -1.0f,
                                     0.5f, -2.5f, 3.0f,   1e30f};
  std::vector<std::vector<float>> Lanes;
  for (float X : Values)
    for (float Y : Values)
      for (float Z : Values)
        Lanes.push_back({X, Y, Z});
  return Lanes;
}

TEST(TypedLanes, SpecialValuesThroughEveryTypedBuiltin) {
  // (return type, expression over x, y, z). Covers every builtin with a
  // lane loop, plus the arithmetic kernels that feed them.
  const std::vector<std::pair<const char *, const char *>> Cases = {
      {"vec2", "normalize(vec2(x, y))"},
      {"vec3", "normalize(vec3(x, y, z))"},
      {"vec4", "normalize(vec4(x, y, z, x))"},
      {"float", "dot(vec2(x, y), vec2(y, z))"},
      {"float", "dot(vec3(x, y, z), vec3(z, x, y))"},
      {"float", "dot(vec4(x, y, z, x), vec4(y, z, x, y))"},
      {"float", "length(vec2(x, y))"},
      {"float", "length(vec3(x, y, z))"},
      {"float", "length(vec4(x, y, z, z))"},
      {"vec3", "reflect(vec3(x, y, z), vec3(z, y, x))"},
      {"float", "max(x, y)"},
      {"float", "min(x, y)"},
      {"float", "pow(x, y)"},
      {"float", "clamp(x, y, z)"},
      {"float", "mix(x, y, z)"},
      {"float", "smoothstep(x, y, z)"},
      {"float", "step(x, y)"},
      {"float", "abs(x)"},
      {"float", "fract(x)"},
      {"float", "floor(x)"},
      {"float", "sqrt(x)"},
      {"float", "sin(x)"},
      {"float", "cos(x)"},
      {"float", "noise(vec3(x, y, z))"},
      {"vec2", "mix(vec2(x, y), vec2(z, x), y)"},
      {"vec3", "mix(vec3(x, y, z), vec3(z, x, y), x)"},
      {"vec4", "mix(vec4(x, y, z, x), vec4(z, x, y, y), z)"},
      {"vec3", "clamp(vec3(x, y, z), y, z)"},
      {"vec3", "max(vec3(x, y, z), vec3(z, x, y))"},
      {"vec3", "min(vec3(x, y, z), vec3(z, x, y))"},
      {"vec4", "vec4(vec3(x, y, z), x)"},
      {"vec4", "vec4(x, y, z, y)"},
      {"vec3", "vec3(x)"},
      {"vec3", "vec3(x, y, z) * x + vec3(y) / z - vec3(z, x, y)"},
      {"vec3", "x * vec3(y, z, x) / y"},
      {"float", "x / y + z * x - y"},
  };
  const auto Lanes = specialLanes();
  for (const auto &[Ret, Expr] : Cases) {
    const std::string Source = std::string(Ret) +
                               " f(float x, float y, float z) {\n  return " +
                               Expr + ";\n}";
    expectLanesMatchSwitch(compileOne(Source, "f"), Lanes, Expr);
  }
}

TEST(TypedLanes, SpecialValuesThroughComparesAndBranches) {
  // Compares against NaN are false either way round; the diamonds mask.
  const char *Source = "vec3 f(float x, float y, float z) {\n"
                       "  vec3 v = vec3(0.0);\n"
                       "  if (x < y) { v = vec3(1.0, x, y); }\n"
                       "  if (x >= z) { v = v + vec3(z); } else { v = -v; }\n"
                       "  if (x == y) { v = v * -0.0; }\n"
                       "  if (y != z) { v = vec3(v.x, z * 0.0, v.z); }\n"
                       "  if (x <= y) { v = v - vec3(y); }\n"
                       "  return v;\n"
                       "}";
  expectLanesMatchSwitch(compileOne(Source, "f"), specialLanes(), Source);
}

TEST(TypedLanes, ToIntIsDefinedForNonFiniteAndHugeInputs) {
  // NaN, +-inf and magnitudes from 2^31 up convert to INT32_MIN on every
  // tier; everything else truncates toward zero.
  const float Inf = std::numeric_limits<float>::infinity();
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const int32_t Min = std::numeric_limits<int32_t>::min();
  const std::vector<std::pair<float, int32_t>> Cases = {
      {NaN, Min},     {-NaN, Min},     {Inf, Min},
      {-Inf, Min},    {1e10f, Min},    {-1e10f, Min},
      {0x1p31f, Min}, {-0x1p31f, Min}, {0x1.fffffep30f, 2147483520},
      {-2.75f, -2},   {2.75f, 2},      {-0.0f, 0}};
  Chunk Code = compileOne("int f(float x) {\n  return toInt(x);\n}", "f");
  ExecChunk Exec = buildExecChunk(Code);
  ASSERT_TRUE(Exec.Valid);
  ASSERT_TRUE(Exec.BatchSafe);
  VM Machine;
  std::vector<float> Col;
  for (const auto &[X, Expected] : Cases) {
    const std::string What = "toInt(" + std::to_string(X) + ")";
    ExecResult Switch = Machine.run(Code, {Value::makeFloat(X)});
    ASSERT_TRUE(Switch.ok()) << What << ": " << Switch.TrapMessage;
    EXPECT_EQ(Switch.Result.asInt(), Expected) << What << " on switch";
    Col.push_back(X);
  }
  BatchArg Arg;
  Arg.Kind = TypeKind::TK_Float;
  Arg.Cols[0] = Col.data();
  std::vector<Value> Results(Col.size());
  BatchRequest Req;
  Req.Args = &Arg;
  Req.NumArgs = 1;
  Req.Lanes = static_cast<unsigned>(Col.size());
  Req.Results = Results.data();
  ExecResult Batch = Machine.runBatch(Exec, Req);
  ASSERT_TRUE(Batch.ok()) << Batch.TrapMessage;
  ASSERT_FALSE(Batch.Diverged);
  for (size_t L = 0; L < Cases.size(); ++L)
    EXPECT_EQ(Results[L].asInt(), Cases[L].second)
        << "toInt(" << Cases[L].first << ") on batched";
}

//===----------------------------------------------------------------------===//
// Int division and modulo by zero under a mask
//===----------------------------------------------------------------------===//

TEST(TypedLanes, IntDivModByZeroUnderMaskDoNotTrap) {
  for (const char *Op : {"/", "%"}) {
    const std::string Source = std::string("int f(int a, int b) {\n"
                                           "  int r = -1;\n"
                                           "  if (b != 0) { r = a ") +
                               Op + " b; }\n  return r;\n}";
    Chunk Code = compileOne(Source, "f");
    ExecChunk Exec = buildExecChunk(Code);
    ASSERT_TRUE(Exec.BatchSafe);
    ASSERT_EQ(Exec.UnmaskableBranches, 0u);

    const std::vector<int32_t> A = {7, -7, 0, 100, 5, -2147483647, 9, 3};
    const std::vector<int32_t> B = {0, 3, 0, -6, 0, 2, 1, 0};
    std::vector<BatchArg> Args(2);
    Args[0].Kind = Args[1].Kind = TypeKind::TK_Int;
    Args[0].Ints = A.data();
    Args[1].Ints = B.data();
    std::vector<Value> Results(A.size());
    BatchRequest Req;
    Req.Args = Args.data();
    Req.NumArgs = 2;
    Req.Lanes = static_cast<unsigned>(A.size());
    Req.Results = Results.data();
    VM Machine;
    ExecResult R = Machine.runBatch(Exec, Req);
    ASSERT_TRUE(R.ok()) << Op << ": " << R.TrapMessage;
    ASSERT_FALSE(R.Diverged);
    for (size_t L = 0; L < A.size(); ++L) {
      ExecResult Ref =
          Machine.run(Code, {Value::makeInt(A[L]), Value::makeInt(B[L])});
      ASSERT_TRUE(Ref.ok());
      EXPECT_TRUE(bitIdentical(Ref.Result, Results[L]))
          << Op << " lane " << L << ": " << Ref.Result.str() << " vs "
          << Results[L].str();
    }
  }
}

//===----------------------------------------------------------------------===//
// The per-pixel fallback writes the same RGB floats
//===----------------------------------------------------------------------===//

TEST(TypedLanes, BailedTilesWriteTheSameRGB) {
  // The reader keeps a loop whose trip count depends on the varying
  // control and uv, so tiles diverge at the loop exit and re-run
  // per-pixel; their RGB must match the batched tiles' form exactly.
  const char *Source = R"(
vec3 loopy(vec2 uv, vec3 P, vec3 N, vec3 I, float t) {
  int n = 1;
  if (uv.x > t) { n = 3; }
  float v = 0.0;
  int i = 0;
  while (i < n) {
    v = v + uv.y + 0.125;
    i = i + 1;
  }
  return vec3(v, v * 0.25, uv.x);
}
)";
  auto Unit = parseUnit(Source);
  ASSERT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Spec = specializeAndCompile(*Unit, "loopy", {"t"});
  ASSERT_TRUE(Spec.has_value());
  const unsigned W = 37, H = 23;
  RenderGrid Grid(W, H);
  const std::vector<float> Controls = {0.45f};

  RenderEngine Ref(1);
  Ref.setExecTier(ExecTier::Switch);
  CacheArena RefArena;
  ASSERT_TRUE(Ref.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                             Controls, RefArena));
  Framebuffer ReadRef(W, H);
  ASSERT_TRUE(
      Ref.readerPass(Spec->ReaderChunk, Grid, Controls, RefArena, &ReadRef));
  const std::vector<float> RGBRef =
      RenderReply::fromFramebuffer(ReadRef).Pixels;

  for (unsigned Threads : {1u, 4u}) {
    RenderEngine Engine(Threads);
    CacheArena Arena;
    ASSERT_TRUE(Engine.loaderPass(Spec->LoaderChunk, Spec->Spec.Layout, Grid,
                                  Controls, Arena));
    std::vector<float> RGB = rgbBuffer(static_cast<size_t>(W) * H);
    ASSERT_TRUE(Engine.readerPassRGB(Spec->ReaderChunk, Grid, Controls, Arena,
                                     RGB.data()))
        << Engine.lastTrap();
    const RenderEngine::PassExecStats &Stats = Engine.lastPassStats();
    EXPECT_GT(Stats.BailedTiles, 0u)
        << "the reader's loop must diverge for this test to cover the "
           "fallback";
    // Every pixel of a bailed tile, and only those, ran per-pixel.
    EXPECT_GT(Stats.PerPixelPixels, 0u);
    EXPECT_LE(Stats.PerPixelPixels, Stats.BailedTiles * Engine.tilePixels());
    EXPECT_GT(Stats.PerPixelPixels,
              (Stats.BailedTiles - 1) * Engine.tilePixels());
    expectSameFloats(RGBRef, RGB, "@" + std::to_string(Threads) + "t");
  }
}

} // namespace
