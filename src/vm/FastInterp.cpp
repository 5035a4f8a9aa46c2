//===- vm/FastInterp.cpp - Batched interpreter ----------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batched execution tier over the decoded ExecChunk form:
//
//   runBatch     one instruction fetch drives a whole tile: every opcode
//                loops over the lanes against typed f32/i32 columns for
//                each stack depth and local (kinds fixed statically by
//                buildExecChunk) and strided packed caches, so dispatch
//                cost is amortized 1/Lanes and the inner loops are plain
//                arrays the compiler can vectorize. Only for BatchSafe
//                (effect-free, statically kinded) chunks. Control flow
//                runs GPU-warp style: uniform branch outcomes jump in
//                lockstep, divergent maskable diamonds execute both arms
//                under a per-lane mask stack, and divergence at an
//                unmaskable branch bails out of the tile
//                (ExecResult::Diverged) for a per-pixel re-run by the
//                caller.
//
// It follows the shared semantics in vm/InterpOps.h — the same functions
// the classic switch interpreter uses; the lane loops repeat them
// operation for operation — which is what makes framebuffers
// bit-identical across tiers. Trap messages replicate VM.cpp verbatim;
// keep them in sync.
//
//===----------------------------------------------------------------------===//

#include "lang/Builtins.h"
#include "vm/InterpOps.h"
#include "vm/Noise.h"
#include "vm/VM.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

using namespace dspec;

namespace dspec {
/// Implemented in Builtins.cpp.
Value callBuiltinImpl(uint16_t Id, const Value *Args, VM &Machine);
} // namespace dspec

//===----------------------------------------------------------------------===//
// Pixel-batched execution over typed lane columns
//===----------------------------------------------------------------------===//
//
// Frame layout: rows 0..NumLocals-1 hold the locals, row NumLocals + D
// holds operand-stack depth D. Every row owns four f32 columns and one
// i32 column of RowLanes entries each. A row of kind K uses its first
// floatWidth(K) f32 columns (float, vec2..vec4) or its i32 column (int,
// bool). Which kind a row holds is never read from the data: locals keep
// their LocalTypes, and stack depths take ExecChunk::StackKinds, which
// buildExecChunk inferred statically. Every operation is therefore a
// loop over plain float or int arrays, and the per-lane work copies 4
// bytes per component instead of a 24-byte Value.
//
// The lane loops repeat the shared InterpOps.h / callBuiltinImpl
// operations exactly, in the same operand order (dot sums from 0.0f,
// int compares go through float), so results stay bit-identical to the
// switch tier. Operand mixes without a dedicated loop fall back per
// lane to those shared functions through temporary Values.

namespace {

inline bool isIntKind(TypeKind K) {
  return K == TypeKind::TK_Int || K == TypeKind::TK_Bool;
}

/// f32 columns a row of kind \p K occupies (0 for int, bool and void).
inline unsigned floatWidth(TypeKind K) {
  switch (K) {
  case TypeKind::TK_Float:
    return 1;
  case TypeKind::TK_Vec2:
    return 2;
  case TypeKind::TK_Vec3:
    return 3;
  case TypeKind::TK_Vec4:
    return 4;
  default:
    return 0;
  }
}

/// One tile's typed frame over the VM's scratch columns.
struct Frame {
  float *F;
  int32_t *I;
  size_t RowLanes; ///< column stride in elements
  unsigned Lanes;

  float *f(unsigned Row, unsigned C) const {
    return F + (static_cast<size_t>(Row) * 4 + C) * RowLanes;
  }
  int32_t *i(unsigned Row) const {
    return I + static_cast<size_t>(Row) * RowLanes;
  }

  /// Lane \p L of row \p Row as a Value of kind \p K (zero padding, as
  /// every Value factory builds it).
  Value value(unsigned Row, TypeKind K, unsigned L) const {
    Value V;
    V.Kind = K;
    if (isIntKind(K))
      V.I = i(Row)[L];
    for (unsigned C = 0; C < floatWidth(K); ++C)
      V.F[C] = f(Row, C)[L];
    return V;
  }
  void setValue(unsigned Row, unsigned L, const Value &V) const {
    if (isIntKind(V.Kind))
      i(Row)[L] = V.I;
    for (unsigned C = 0; C < floatWidth(V.Kind); ++C)
      f(Row, C)[L] = V.F[C];
  }

  /// Broadcasts \p V to every lane of \p Row.
  void fill(unsigned Row, const Value &V) const {
    if (isIntKind(V.Kind))
      std::fill_n(i(Row), Lanes, V.I);
    for (unsigned C = 0; C < floatWidth(V.Kind); ++C)
      std::fill_n(f(Row, C), Lanes, V.F[C]);
  }

  /// Copies row \p Src (kind \p K) into row \p Dst, lanes in \p Mask
  /// only when it is non-null.
  void copy(unsigned Dst, unsigned Src, TypeKind K, const uint8_t *Mask) const {
    auto Col = [&](auto *D, const auto *S) {
      if (!Mask) {
        std::copy(S, S + Lanes, D);
        return;
      }
      for (unsigned L = 0; L < Lanes; ++L)
        if (Mask[L])
          D[L] = S[L];
    };
    if (isIntKind(K))
      Col(i(Dst), i(Src));
    for (unsigned C = 0; C < floatWidth(K); ++C)
      Col(f(Dst, C), f(Src, C));
  }

  /// Loads a strided cache slot of kind \p K into \p Row (lanes in
  /// \p Mask only when non-null). Replicates CacheView::load: one
  /// 4-byte memcpy per component. \p Base already includes the slot's
  /// resolved displacement for lane 0.
  void loadSlot(unsigned Row, TypeKind K, const unsigned char *Base,
                size_t Stride, const uint8_t *Mask) const {
    auto Col = [&](auto *D, const unsigned char *Src) {
      if (!Mask) {
        for (unsigned L = 0; L < Lanes; ++L)
          std::memcpy(&D[L], Src + L * Stride, 4);
        return;
      }
      for (unsigned L = 0; L < Lanes; ++L)
        if (Mask[L])
          std::memcpy(&D[L], Src + L * Stride, 4);
    };
    if (isIntKind(K))
      Col(i(Row), Base);
    for (unsigned C = 0; C < floatWidth(K); ++C)
      Col(f(Row, C), Base + C * sizeof(float));
  }

  /// Stores \p Row (kind \p K) to a strided cache slot, lanes in \p Mask
  /// only when non-null. Replicates CacheView::store.
  void storeSlot(unsigned Row, TypeKind K, unsigned char *Base, size_t Stride,
                 const uint8_t *Mask) const {
    auto Col = [&](const auto *S, unsigned char *Dst) {
      if (!Mask) {
        for (unsigned L = 0; L < Lanes; ++L)
          std::memcpy(Dst + L * Stride, &S[L], 4);
        return;
      }
      for (unsigned L = 0; L < Lanes; ++L)
        if (Mask[L])
          std::memcpy(Dst + L * Stride, &S[L], 4);
    };
    if (isIntKind(K))
      Col(i(Row), Base);
    for (unsigned C = 0; C < floatWidth(K); ++C)
      Col(f(Row, C), Base + C * sizeof(float));
  }

  /// Writes row \p Row (kind \p K) out as the tile's results.
  void writeResults(unsigned Row, TypeKind K, const BatchRequest &Req) const {
    if (Req.Results)
      for (unsigned L = 0; L < Lanes; ++L)
        Req.Results[L] = value(Row, K, L);
    if (Req.RGB) {
      const unsigned W = std::min(floatWidth(K), 3u);
      for (unsigned L = 0; L < Lanes; ++L) {
        float *Px = Req.RGB + static_cast<size_t>(L) * 3;
        for (unsigned C = 0; C < 3; ++C)
          Px[C] = C < W ? f(Row, C)[L] : 0.0f;
      }
    }
  }
};

/// The right-hand operand of a binary operation: a row (Step 1) or one
/// value broadcast to every lane (Step 0).
struct Operand {
  const float *F[4];
  const int32_t *I;
};

inline Operand rowOperand(const Frame &Fr, unsigned Row) {
  return {{Fr.f(Row, 0), Fr.f(Row, 1), Fr.f(Row, 2), Fr.f(Row, 3)},
          Fr.i(Row)};
}
inline Operand constOperand(const Value &K) {
  return {{&K.F[0], &K.F[1], &K.F[2], &K.F[3]}, &K.I};
}

/// interp::arith over rows for the kind mixes compiled code produces:
/// int with int, and float or vector with float or vector (scalar
/// broadcast either side). Returns false for a mix with exactly one int,
/// which the caller runs per lane through the shared Value semantics.
/// The result replaces row \p LRow.
template <unsigned Step, typename FOp, typename IOp>
bool arithRows(const Frame &Fr, unsigned LRow, TypeKind LK, const Operand &R,
               TypeKind RK, FOp F, IOp IOpFn) {
  const unsigned Lanes = Fr.Lanes;
  if (LK == TypeKind::TK_Int && RK == TypeKind::TK_Int) {
    int32_t *D = Fr.i(LRow);
    for (unsigned L = 0; L < Lanes; ++L)
      D[L] = IOpFn(D[L], R.I[L * Step]);
    return true;
  }
  const unsigned LW = floatWidth(LK), RW = floatWidth(RK);
  if (LW == 0 || RW == 0)
    return false;
  if (LW == RW || RW == 1) {
    // Same shape, or vector op scalar: the right scalar broadcasts.
    for (unsigned C = 0; C < LW; ++C) {
      float *D = Fr.f(LRow, C);
      const float *B = R.F[LW == RW ? C : 0];
      for (unsigned L = 0; L < Lanes; ++L)
        D[L] = F(D[L], B[L * Step]);
    }
    return true;
  }
  // Scalar op vector: the left scalar lives in component 0, which is
  // overwritten last.
  const float *S = Fr.f(LRow, 0);
  for (unsigned C = RW; C-- > 0;) {
    float *D = Fr.f(LRow, C);
    const float *B = R.F[C];
    for (unsigned L = 0; L < Lanes; ++L)
      D[L] = F(S[L], B[L * Step]);
  }
  return true;
}

/// Two's-complement int arithmetic. Equal to the switch tier's int32_t
/// operators wherever those are defined, and defined on the masked-off
/// lanes whose garbage operands the switch tier never computes.
inline int32_t wrapAdd(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) +
                              static_cast<uint32_t>(B));
}
inline int32_t wrapSub(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) -
                              static_cast<uint32_t>(B));
}
inline int32_t wrapMul(int32_t A, int32_t B) {
  return static_cast<int32_t>(static_cast<uint32_t>(A) *
                              static_cast<uint32_t>(B));
}

/// interp::compare over rows: numeric scalars compared as floats (ints
/// promoted, as in interp::compare). Writes 0/1 per lane to \p Out,
/// which may be the left row's i32 column.
template <typename OutT, typename Cmp>
void compareRows(const Frame &Fr, unsigned LRow, TypeKind LK, unsigned RRow,
                 TypeKind RK, OutT *Out, Cmp Op) {
  const unsigned Lanes = Fr.Lanes;
  const float *LF = Fr.f(LRow, 0), *RF = Fr.f(RRow, 0);
  const int32_t *LI = Fr.i(LRow), *RI = Fr.i(RRow);
  const bool LInt = LK == TypeKind::TK_Int, RInt = RK == TypeKind::TK_Int;
  if (!LInt && !RInt) {
    for (unsigned L = 0; L < Lanes; ++L)
      Out[L] = Op(LF[L], RF[L]) ? 1 : 0;
  } else if (LInt && RInt) {
    for (unsigned L = 0; L < Lanes; ++L)
      Out[L] = Op(static_cast<float>(LI[L]), static_cast<float>(RI[L])) ? 1
                                                                        : 0;
  } else {
    for (unsigned L = 0; L < Lanes; ++L) {
      const float A = LInt ? static_cast<float>(LI[L]) : LF[L];
      const float B = RInt ? static_cast<float>(RI[L]) : RF[L];
      Out[L] = Op(A, B) ? 1 : 0;
    }
  }
}

template <unsigned W> float dotLane(const float *const *A, const float *const *B,
                                    unsigned L) {
  float Sum = 0; // from 0.0f, as the scalar dot(): -0.0 sums to +0.0
  for (unsigned C = 0; C < W; ++C)
    Sum += A[C][L] * B[C][L];
  return Sum;
}

template <unsigned W> void dotRows(const Frame &Fr, unsigned Row) {
  const float *A[W], *B[W];
  for (unsigned C = 0; C < W; ++C) {
    A[C] = Fr.f(Row, C);
    B[C] = Fr.f(Row + 1, C);
  }
  float *D = Fr.f(Row, 0);
  for (unsigned L = 0; L < Fr.Lanes; ++L)
    D[L] = dotLane<W>(A, B, L);
}

template <unsigned W> void lengthRows(const Frame &Fr, unsigned Row) {
  const float *A[W];
  for (unsigned C = 0; C < W; ++C)
    A[C] = Fr.f(Row, C);
  float *D = Fr.f(Row, 0);
  for (unsigned L = 0; L < Fr.Lanes; ++L)
    D[L] = std::sqrt(dotLane<W>(A, A, L));
}

template <unsigned W> void normalizeRows(const Frame &Fr, unsigned Row) {
  float *A[W];
  for (unsigned C = 0; C < W; ++C)
    A[C] = Fr.f(Row, C);
  for (unsigned L = 0; L < Fr.Lanes; ++L) {
    const float Len = std::sqrt(dotLane<W>(A, A, L));
    if (Len == 0.0f)
      continue; // a zero vector comes back unchanged
    for (unsigned C = 0; C < W; ++C)
      A[C][L] = A[C][L] / Len;
  }
}

template <unsigned W> void mixRows(const Frame &Fr, unsigned Row) {
  const float *T = Fr.f(Row + 2, 0);
  for (unsigned C = 0; C < W; ++C) {
    float *A = Fr.f(Row, C);
    const float *B = Fr.f(Row + 1, C);
    for (unsigned L = 0; L < Fr.Lanes; ++L)
      A[L] = A[L] + (B[L] - A[L]) * T[L];
  }
}

template <typename Fn> void unaryRows(const Frame &Fr, unsigned Row, Fn Op) {
  float *X = Fr.f(Row, 0);
  for (unsigned L = 0; L < Fr.Lanes; ++L)
    X[L] = Op(X[L]);
}

template <typename Fn> void binaryRows(const Frame &Fr, unsigned Row, Fn Op) {
  float *X = Fr.f(Row, 0);
  const float *Y = Fr.f(Row + 1, 0);
  for (unsigned L = 0; L < Fr.Lanes; ++L)
    X[L] = Op(X[L], Y[L]);
}

template <typename Fn> void ternaryRows(const Frame &Fr, unsigned Row, Fn Op) {
  float *X = Fr.f(Row, 0);
  const float *Y = Fr.f(Row + 1, 0);
  const float *Z = Fr.f(Row + 2, 0);
  for (unsigned L = 0; L < Fr.Lanes; ++L)
    X[L] = Op(X[L], Y[L], Z[L]);
}

/// Appends float rows Row+1.. as components 1.. of row Row (the vec
/// constructors: component 0 already sits in place).
void gatherComponents(const Frame &Fr, unsigned Row, unsigned Width) {
  for (unsigned C = 1; C < Width; ++C)
    std::copy(Fr.f(Row + C, 0), Fr.f(Row + C, 0) + Fr.Lanes, Fr.f(Row, C));
}

/// Lane loops for the builtins the gallery's readers and loaders call,
/// each the operation-for-operation image of its callBuiltinImpl case.
/// The arguments are rows Row..Row+Argc-1 and the result replaces row
/// Row. Returns false (nothing written) for builtins left to the
/// per-lane fallback, and for an int argument standing in for a float
/// parameter.
bool builtinRows(const Frame &Fr, BuiltinId Id, unsigned Row,
                 const TypeKind *ArgKinds, unsigned Argc) {
  for (unsigned A = 0; A < Argc; ++A)
    if (ArgKinds[A] == TypeKind::TK_Int || ArgKinds[A] == TypeKind::TK_Bool)
      return false;
  switch (Id) {
  case BuiltinId::BI_SqrtF:
    unaryRows(Fr, Row, [](float X) { return std::sqrt(X); });
    return true;
  case BuiltinId::BI_AbsF:
    unaryRows(Fr, Row, [](float X) { return std::fabs(X); });
    return true;
  case BuiltinId::BI_FloorF:
    unaryRows(Fr, Row, [](float X) { return std::floor(X); });
    return true;
  case BuiltinId::BI_FractF:
    unaryRows(Fr, Row, [](float X) { return X - std::floor(X); });
    return true;
  case BuiltinId::BI_SinF:
    unaryRows(Fr, Row, [](float X) { return std::sin(X); });
    return true;
  case BuiltinId::BI_CosF:
    unaryRows(Fr, Row, [](float X) { return std::cos(X); });
    return true;
  case BuiltinId::BI_PowF:
    binaryRows(Fr, Row, [](float X, float Y) { return std::pow(X, Y); });
    return true;
  case BuiltinId::BI_MinF:
    binaryRows(Fr, Row, interp::minF);
    return true;
  case BuiltinId::BI_MaxF:
    binaryRows(Fr, Row, interp::maxF);
    return true;
  case BuiltinId::BI_StepF:
    binaryRows(Fr, Row, [](float E, float X) { return X < E ? 0.0f : 1.0f; });
    return true;
  case BuiltinId::BI_ClampF:
    ternaryRows(Fr, Row, [](float X, float Lo, float Hi) {
      return X < Lo ? Lo : (X > Hi ? Hi : X);
    });
    return true;
  case BuiltinId::BI_MixF:
    ternaryRows(Fr, Row,
                [](float X, float Y, float T) { return X + (Y - X) * T; });
    return true;
  case BuiltinId::BI_SmoothStepF:
    ternaryRows(Fr, Row, [](float E0, float E1, float X) {
      if (E0 == E1)
        return X < E0 ? 0.0f : 1.0f;
      float T = (X - E0) / (E1 - E0);
      T = T < 0.0f ? 0.0f : (T > 1.0f ? 1.0f : T);
      return T * T * (3.0f - 2.0f * T);
    });
    return true;
  case BuiltinId::BI_Vec2:
    gatherComponents(Fr, Row, 2);
    return true;
  case BuiltinId::BI_Vec3:
    gatherComponents(Fr, Row, 3);
    return true;
  case BuiltinId::BI_Vec4:
    gatherComponents(Fr, Row, 4);
    return true;
  case BuiltinId::BI_Vec3Splat:
    for (unsigned C = 1; C < 3; ++C)
      std::copy(Fr.f(Row, 0), Fr.f(Row, 0) + Fr.Lanes, Fr.f(Row, C));
    return true;
  case BuiltinId::BI_Vec4FromVec3:
    std::copy(Fr.f(Row + 1, 0), Fr.f(Row + 1, 0) + Fr.Lanes, Fr.f(Row, 3));
    return true;
  case BuiltinId::BI_DotV2:
    dotRows<2>(Fr, Row);
    return true;
  case BuiltinId::BI_DotV3:
    dotRows<3>(Fr, Row);
    return true;
  case BuiltinId::BI_DotV4:
    dotRows<4>(Fr, Row);
    return true;
  case BuiltinId::BI_LengthV2:
    lengthRows<2>(Fr, Row);
    return true;
  case BuiltinId::BI_LengthV3:
    lengthRows<3>(Fr, Row);
    return true;
  case BuiltinId::BI_LengthV4:
    lengthRows<4>(Fr, Row);
    return true;
  case BuiltinId::BI_NormalizeV2:
    normalizeRows<2>(Fr, Row);
    return true;
  case BuiltinId::BI_NormalizeV3:
    normalizeRows<3>(Fr, Row);
    return true;
  case BuiltinId::BI_NormalizeV4:
    normalizeRows<4>(Fr, Row);
    return true;
  case BuiltinId::BI_ReflectV3: {
    // reflect(I, N) = I - 2*dot(N, I)*N
    float *I[3];
    const float *N[3];
    for (unsigned C = 0; C < 3; ++C) {
      I[C] = Fr.f(Row, C);
      N[C] = Fr.f(Row + 1, C);
    }
    for (unsigned L = 0; L < Fr.Lanes; ++L) {
      const float D = 2.0f * dotLane<3>(N, I, L);
      for (unsigned C = 0; C < 3; ++C)
        I[C][L] = I[C][L] - D * N[C][L];
    }
    return true;
  }
  case BuiltinId::BI_MixV2:
    mixRows<2>(Fr, Row);
    return true;
  case BuiltinId::BI_MixV3:
    mixRows<3>(Fr, Row);
    return true;
  case BuiltinId::BI_MixV4:
    mixRows<4>(Fr, Row);
    return true;
  case BuiltinId::BI_ClampV3: {
    const float *Lo = Fr.f(Row + 1, 0), *Hi = Fr.f(Row + 2, 0);
    for (unsigned C = 0; C < 3; ++C) {
      float *X = Fr.f(Row, C);
      for (unsigned L = 0; L < Fr.Lanes; ++L)
        X[L] = X[L] < Lo[L] ? Lo[L] : (X[L] > Hi[L] ? Hi[L] : X[L]);
    }
    return true;
  }
  case BuiltinId::BI_MinV3:
  case BuiltinId::BI_MaxV3: {
    const bool Min = Id == BuiltinId::BI_MinV3;
    for (unsigned C = 0; C < 3; ++C) {
      float *X = Fr.f(Row, C);
      const float *Y = Fr.f(Row + 1, C);
      for (unsigned L = 0; L < Fr.Lanes; ++L)
        X[L] = Min ? interp::minF(X[L], Y[L]) : interp::maxF(X[L], Y[L]);
    }
    return true;
  }
  case BuiltinId::BI_Noise3:
    perlinNoise3Lanes(Fr.f(Row, 0), Fr.f(Row, 1), Fr.f(Row, 2), Fr.Lanes);
    return true;
  default:
    return false;
  }
}

} // namespace

// Batch traps also record the dispatch count so the caller's divergence
// accounting stays consistent on every exit path.
#define TRAP(MSG)                                                              \
  do {                                                                         \
    Result.Trapped = true;                                                     \
    Result.TrapMessage = (MSG);                                                \
    Result.InstructionsExecuted = Executed;                                    \
    Result.BatchDispatches = Dispatched;                                       \
    return Result;                                                             \
  } while (0)

// Unmaskable control flow actually diverged across lanes: not an error —
// results are unwritten and the caller re-runs the tile per-pixel.
#define DIVERGE()                                                              \
  do {                                                                         \
    Result.Diverged = true;                                                    \
    Result.InstructionsExecuted = Executed;                                    \
    Result.BatchDispatches = Dispatched;                                       \
    return Result;                                                             \
  } while (0)

#define RETIRE()                                                               \
  do {                                                                         \
    Result.InstructionsExecuted = Executed;                                    \
    Result.BatchDispatches = Dispatched;                                       \
    return Result;                                                             \
  } while (0)

ExecResult VM::runBatch(const ExecChunk &C, const BatchRequest &Req) {
  ExecResult Result;
  uint64_t Executed = 0;
  uint64_t Dispatched = 0;

  if (!C.Valid || !C.BatchSafe)
    TRAP("batch execution on an unsupported chunk '" + C.Name + "'");
  if (Req.Lanes == 0) {
    Result.Result = Value::makeVoid();
    return Result;
  }
  if (Req.NumArgs != C.NumParams)
    TRAP("argument count mismatch calling '" + C.Name + "'");

  const unsigned Lanes = Req.Lanes;
  const bool UseCache = Req.CacheBase != nullptr;
  // inBounds for a given (offset, kind) is uniform across lanes, so the
  // per-access bounds decision is made once per instruction below using
  // lane 0's view geometry.
  CacheView Bounds(Req.CacheBase, Req.CacheBytes);

  // Size the frame: NumLocals + MaxStack rows, each column padded to a
  // whole number of 64-byte lines.
  const unsigned NL = C.numLocals();
  const unsigned Rows = NL + C.MaxStack;
  const size_t RowLanes = (static_cast<size_t>(Lanes) + 15) & ~size_t(15);
  if (BatchF.size() < Rows * 4 * RowLanes)
    BatchF.resize(Rows * 4 * RowLanes);
  if (BatchI.size() < Rows * RowLanes)
    BatchI.resize(Rows * RowLanes);
  const Frame Fr{BatchF.data(), BatchI.data(), RowLanes, Lanes};

  // Parameters: columns copied in, broadcast values filled once per tile;
  // other locals start at zero. Locals no instruction reads are skipped.
  for (unsigned S = 0; S < NL; ++S) {
    const TypeKind K = C.LocalTypes[S];
    const bool Read = C.ReadLocals[S] != 0;
    if (S >= C.NumParams) {
      if (Read)
        Fr.fill(S, Value::zeroOf(Type(K)));
      continue;
    }
    const BatchArg &A = Req.Args[S];
    const bool Promote = A.Kind == TypeKind::TK_Int && K == TypeKind::TK_Float;
    if (A.Kind != K && !Promote)
      TRAP("argument type mismatch calling '" + C.Name + "'");
    if (!Read)
      continue;
    if (!A.varying()) {
      Fr.fill(S, Promote ? Value::makeFloat(static_cast<float>(A.Uniform.I))
                         : A.Uniform);
    } else if (Promote) {
      float *D = Fr.f(S, 0);
      for (unsigned L = 0; L < Lanes; ++L)
        D[L] = static_cast<float>(A.Ints[L]);
    } else if (isIntKind(K)) {
      std::copy(A.Ints, A.Ints + Lanes, Fr.i(S));
    } else {
      for (unsigned Col = 0; Col < floatWidth(K); ++Col)
        std::copy(A.Cols[Col], A.Cols[Col] + Lanes, Fr.f(S, Col));
    }
  }

  unsigned SP = 0;
  // Row of stack depth D.
  auto Stk = [&](unsigned D) { return NL + D; };
  // Resolves one canonical slot offset to (displacement of lane 0's slot
  // bytes from the cache base, per-lane stride). Dense requests keep the
  // seed behavior: base is pre-offset to the tile, stride is the pixel
  // stride. Mapped requests consult the arena's affine word table; the
  // per-pixel-block case (BlockPixels == 1) strides whole blocks, the
  // within-block case strides the slot width — unit-stride columns. The
  // caller guarantees the tile never straddles a block
  // (CacheArena::batchCompatible), so one resolution covers all lanes.
  // Block coordinates depend only on the tile's first pixel, so the
  // divide/modulo happen once per tile here, not per slot access inside
  // the dispatch loop (TilePixels is not a compile-time constant, so the
  // compiler cannot strength-reduce them away).
  const unsigned MapTP = Req.CacheBlockPixels;
  const size_t MapBlockIdx =
      Req.CacheMap && MapTP > 1 ? Req.CacheFirstPixel / MapTP : 0;
  const size_t MapLane0 =
      Req.CacheMap && MapTP > 1 ? Req.CacheFirstPixel % MapTP : 0;
  auto slotRow = [&](unsigned Offset, size_t &LaneStride) -> size_t {
    if (!Req.CacheMap) {
      LaneStride = Req.CacheStride;
      return Offset;
    }
    const ArenaSlotAddr &E = Req.CacheMap[Offset >> 2];
    if (MapTP <= 1) {
      LaneStride = E.Block;
      return static_cast<size_t>(E.Base) +
             static_cast<size_t>(Req.CacheFirstPixel) * E.Block +
             (Offset & 3u);
    }
    LaneStride = E.LaneW;
    return static_cast<size_t>(E.Base) + MapBlockIdx * E.Block +
           MapLane0 * E.LaneW + (Offset & 3u);
  };

  // Divergence state. A null CurMask means every lane is active — the
  // uniform fast path that straight-line chunks and runtime-uniform
  // branches never leave, so they pay no masking cost. A divergent
  // maskable diamond pushes a MaskFrame; CurMask then points at the top
  // frame's current-arm mask. Stack pushes stay unmasked (each arm
  // writes operand rows for every lane); only stores to locals and cache
  // slots are masked, and only those plus trap checks consult CurMask.
  size_t MaskDepth = 0;
  const uint8_t *CurMask = nullptr;
  unsigned ActiveCount = Lanes;
  CondScratch.resize(Lanes);

  auto RefreshMask = [&]() {
    if (MaskDepth == 0) {
      CurMask = nullptr;
      ActiveCount = Lanes;
    } else {
      CurMask = BatchMasks[MaskDepth - 1].Active.data();
      ActiveCount = BatchMasks[MaskDepth - 1].ActiveCount;
    }
  };

  // Binary arithmetic on the top row against row \p RRow or a broadcast
  // constant; mixes without a lane loop run the shared Value semantics
  // per lane.
  auto ArithRow = [&](TypeKind LK, unsigned RRow, TypeKind RK, auto FOp,
                      auto IOp, Value (*Fallback)(const Value &,
                                                  const Value &)) {
    const unsigned LRow = Stk(SP - 1);
    if (arithRows<1>(Fr, LRow, LK, rowOperand(Fr, RRow), RK, FOp, IOp))
      return;
    for (unsigned L = 0; L < Lanes; ++L)
      Fr.setValue(LRow, L,
                  Fallback(Fr.value(LRow, LK, L), Fr.value(RRow, RK, L)));
  };
  auto ArithConst = [&](TypeKind LK, const Value &K, auto FOp, auto IOp,
                        Value (*Fallback)(const Value &, const Value &)) {
    const unsigned LRow = Stk(SP - 1);
    if (arithRows<0>(Fr, LRow, LK, constOperand(K), K.Kind, FOp, IOp))
      return;
    for (unsigned L = 0; L < Lanes; ++L)
      Fr.setValue(LRow, L, Fallback(Fr.value(LRow, LK, L), K));
  };
  const auto FAdd = [](float A, float B) { return A + B; };
  const auto FSub = [](float A, float B) { return A - B; };
  const auto FMul = [](float A, float B) { return A * B; };
  const auto FDiv = [](float A, float B) { return A / B; };
  const auto NoIntOp = [](int32_t A, int32_t) { return A; };

  // Calls builtin \p Id on the top \p Argc rows (kinds \p EK at depth SP
  // on entry).
  auto CallBuiltin = [&](int32_t Id, unsigned Argc, const TypeKind *ArgKinds) {
    assert(Argc <= 8 && "builtin arity exceeds the gather buffer");
    SP -= Argc;
    const unsigned Row = Stk(SP);
    const BuiltinId B = static_cast<BuiltinId>(Id);
    if (!builtinRows(Fr, B, Row, ArgKinds, Argc)) {
      Value Tmp[8];
      for (unsigned L = 0; L < Lanes; ++L) {
        for (unsigned A = 0; A < Argc; ++A)
          Tmp[A] = Fr.value(Row + A, ArgKinds[A], L);
        const Value Out = callBuiltinImpl(static_cast<uint16_t>(Id), Tmp, *this);
        assert(Out.Kind == getBuiltinInfo(B).ResultType.kind() &&
               "builtin result kind differs from its static kind");
        Fr.setValue(Row, L, Out);
      }
    }
    ++SP;
  };

  const ExecInstr *Code = C.Code.data();
  const size_t CodeLen = C.Code.size();
  size_t IpIdx = 0;
  while (IpIdx < CodeLen) {
    // Reconvergence: lanes masked off for the innermost diamond rejoin
    // at its join index. Nested diamonds with coinciding joins pop in
    // one go, innermost first.
    while (MaskDepth > 0 &&
           BatchMasks[MaskDepth - 1].Join == static_cast<int32_t>(IpIdx)) {
      --MaskDepth;
      RefreshMask();
    }
    const ExecInstr &In = Code[IpIdx];
    // Static kinds of the operand stack on entry: EK[D] is depth D's.
    const TypeKind *EK = C.entryKinds(IpIdx);
    ++Dispatched;
    // Bill active lanes only: a divergent tile is charged the work a
    // per-pixel run would have done, not both arms times every lane.
    Executed += CurMask ? ActiveCount : Lanes;
    if (Executed > InstructionBudget)
      TRAP("instruction budget exceeded in '" + C.Name + "'");
    switch (In.Op) {
    case FusedOp::F_Const:
      Fr.fill(Stk(SP++), *In.K);
      break;
    case FusedOp::F_LoadLocal:
      Fr.copy(Stk(SP++), In.A, C.LocalTypes[In.A], nullptr);
      break;
    case FusedOp::F_StoreLocal:
      --SP;
      Fr.copy(In.A, Stk(SP), EK[SP], CurMask);
      break;
    case FusedOp::F_Convert: {
      // Kinds are static, so the only conversion left to perform is the
      // int->float promotion (identity conversions are no-ops).
      const unsigned Row = Stk(SP - 1);
      if (EK[SP - 1] != static_cast<TypeKind>(In.A)) {
        float *D = Fr.f(Row, 0);
        const int32_t *S = Fr.i(Row);
        for (unsigned L = 0; L < Lanes; ++L)
          D[L] = static_cast<float>(S[L]);
      }
      break;
    }
    case FusedOp::F_Pop:
      --SP;
      break;
    case FusedOp::F_Neg: {
      const unsigned Row = Stk(SP - 1);
      const TypeKind K = EK[SP - 1];
      if (K == TypeKind::TK_Int) {
        int32_t *D = Fr.i(Row);
        for (unsigned L = 0; L < Lanes; ++L)
          D[L] = wrapSub(0, D[L]);
      }
      for (unsigned Col = 0; Col < floatWidth(K); ++Col) {
        float *D = Fr.f(Row, Col);
        for (unsigned L = 0; L < Lanes; ++L)
          D[L] = -D[L];
      }
      break;
    }
    case FusedOp::F_Not: {
      int32_t *D = Fr.i(Stk(SP - 1));
      for (unsigned L = 0; L < Lanes; ++L)
        D[L] = D[L] == 0 ? 1 : 0;
      break;
    }
    case FusedOp::F_Add:
      --SP;
      ArithRow(EK[SP - 1], Stk(SP), EK[SP], FAdd, wrapAdd, interp::opAdd);
      break;
    case FusedOp::F_Sub:
      --SP;
      ArithRow(EK[SP - 1], Stk(SP), EK[SP], FSub, wrapSub, interp::opSub);
      break;
    case FusedOp::F_Mul:
      --SP;
      ArithRow(EK[SP - 1], Stk(SP), EK[SP], FMul, wrapMul, interp::opMul);
      break;
    case FusedOp::F_Div:
    case FusedOp::F_Mod: {
      --SP;
      const TypeKind LK = EK[SP - 1], RK = EK[SP];
      if (LK == TypeKind::TK_Int && RK == TypeKind::TK_Int) {
        int32_t *D = Fr.i(Stk(SP - 1));
        const int32_t *R = Fr.i(Stk(SP));
        const bool IsDiv = In.Op == FusedOp::F_Div;
        for (unsigned L = 0; L < Lanes; ++L) {
          if (CurMask && !CurMask[L]) {
            // Masked-off lane: no trap and no arithmetic on its garbage;
            // the placeholder is never observed.
            D[L] = 0;
            continue;
          }
          if (R[L] == 0)
            TRAP(std::string(IsDiv ? "integer division by zero in '"
                                   : "integer modulo by zero in '") +
                 C.Name + "'" + interp::srcLocSuffix(In.A, In.B));
          D[L] = IsDiv ? D[L] / R[L] : D[L] % R[L];
        }
        break;
      }
      // Float and vector division is well-defined IEEE behavior (Mod is
      // int-only by static kinds).
      ArithRow(LK, Stk(SP), RK, FDiv, NoIntOp, interp::opDiv);
      break;
    }
    case FusedOp::F_Lt:
    case FusedOp::F_Le:
    case FusedOp::F_Gt:
    case FusedOp::F_Ge:
    case FusedOp::F_Eq:
    case FusedOp::F_Ne: {
      --SP;
      const unsigned LRow = Stk(SP - 1), RRow = Stk(SP);
      const TypeKind LK = EK[SP - 1], RK = EK[SP];
      int32_t *Out = Fr.i(LRow);
      if (LK == TypeKind::TK_Bool) { // Eq/Ne of two bools
        const int32_t *R = Fr.i(RRow);
        const bool Eq = In.Op == FusedOp::F_Eq;
        for (unsigned L = 0; L < Lanes; ++L)
          Out[L] = (Out[L] == R[L]) == Eq ? 1 : 0;
        break;
      }
      switch (In.Op) {
      case FusedOp::F_Lt:
        compareRows(Fr, LRow, LK, RRow, RK, Out,
                    [](float A, float B) { return A < B; });
        break;
      case FusedOp::F_Le:
        compareRows(Fr, LRow, LK, RRow, RK, Out,
                    [](float A, float B) { return A <= B; });
        break;
      case FusedOp::F_Gt:
        compareRows(Fr, LRow, LK, RRow, RK, Out,
                    [](float A, float B) { return A > B; });
        break;
      case FusedOp::F_Ge:
        compareRows(Fr, LRow, LK, RRow, RK, Out,
                    [](float A, float B) { return A >= B; });
        break;
      case FusedOp::F_Eq:
        compareRows(Fr, LRow, LK, RRow, RK, Out,
                    [](float A, float B) { return A == B; });
        break;
      default:
        compareRows(Fr, LRow, LK, RRow, RK, Out,
                    [](float A, float B) { return A != B; });
        break;
      }
      break;
    }
    case FusedOp::F_And:
    case FusedOp::F_Or: {
      --SP;
      int32_t *D = Fr.i(Stk(SP - 1));
      const int32_t *R = Fr.i(Stk(SP));
      if (In.Op == FusedOp::F_And) {
        for (unsigned L = 0; L < Lanes; ++L)
          D[L] = D[L] != 0 && R[L] != 0 ? 1 : 0;
      } else {
        for (unsigned L = 0; L < Lanes; ++L)
          D[L] = D[L] != 0 || R[L] != 0 ? 1 : 0;
      }
      break;
    }
    case FusedOp::F_Select: {
      // Stack bottom-to-top: condition, then-value, else-value; both arms
      // share one static kind.
      SP -= 2;
      const unsigned CRow = Stk(SP - 1), TRow = Stk(SP), FRow = Stk(SP + 1);
      const TypeKind K = EK[SP];
      int32_t *Cond = Fr.i(CRow);
      for (unsigned Col = 0; Col < floatWidth(K); ++Col) {
        float *D = Fr.f(CRow, Col);
        const float *T = Fr.f(TRow, Col), *F = Fr.f(FRow, Col);
        for (unsigned L = 0; L < Lanes; ++L)
          D[L] = Cond[L] != 0 ? T[L] : F[L];
      }
      if (isIntKind(K)) {
        const int32_t *T = Fr.i(TRow), *F = Fr.i(FRow);
        for (unsigned L = 0; L < Lanes; ++L)
          Cond[L] = Cond[L] != 0 ? T[L] : F[L];
      }
      break;
    }
    case FusedOp::F_CallBuiltin:
      CallBuiltin(In.A, static_cast<unsigned>(In.B),
                  EK + (SP - static_cast<unsigned>(In.B)));
      break;
    case FusedOp::F_Member: {
      // Static kinds guarantee the component exists.
      if (In.A != 0) {
        const unsigned Row = Stk(SP - 1);
        const float *S = Fr.f(Row, static_cast<unsigned>(In.A));
        std::copy(S, S + Lanes, Fr.f(Row, 0));
      }
      break;
    }
    case FusedOp::F_CacheLoad:
    case FusedOp::F_CacheLoadAdd:
    case FusedOp::F_CacheLoadMul:
    case FusedOp::F_CacheLoadStore:
    case FusedOp::F_CacheLoadRet: {
      if (!UseCache)
        TRAP("cache read without a loaded cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache read past the layout in '" + C.Name + "'");
      if (In.Op == FusedOp::F_CacheLoadRet && MaskDepth > 0)
        DIVERGE();
      size_t RowStride;
      const unsigned char *Slot = Req.CacheBase + slotRow(Offset, RowStride);
      if (In.Op == FusedOp::F_CacheLoadStore) {
        Fr.loadSlot(In.A2, Kind, Slot, RowStride, CurMask);
        break;
      }
      // The slot lands in the next stack row; for the fused forms that is
      // the scratch row MaxStack reserves for the unfused pair's push.
      Fr.loadSlot(Stk(SP), Kind, Slot, RowStride, nullptr);
      if (In.Op == FusedOp::F_CacheLoad) {
        ++SP;
      } else if (In.Op == FusedOp::F_CacheLoadAdd) {
        ArithRow(EK[SP - 1], Stk(SP), Kind, FAdd, wrapAdd, interp::opAdd);
      } else if (In.Op == FusedOp::F_CacheLoadMul) {
        ArithRow(EK[SP - 1], Stk(SP), Kind, FMul, wrapMul, interp::opMul);
      } else {
        Fr.writeResults(Stk(SP), Kind, Req);
        RETIRE();
      }
      break;
    }
    case FusedOp::F_CacheStore: {
      // The stored value stays on the stack.
      if (!UseCache)
        TRAP("cache write without cache storage in '" + C.Name + "'");
      if (!Req.CacheStoreBase)
        TRAP("cache store to a read-only cache in '" + C.Name + "'");
      const TypeKind Kind = static_cast<TypeKind>(In.C);
      const unsigned Offset = static_cast<unsigned>(In.B);
      if (!Bounds.inBounds(Offset, Kind))
        TRAP("cache store past the layout in '" + C.Name + "'");
      // The stored kind equals the slot's statically, so the scalar
      // tiers' type-mismatch trap cannot fire here.
      size_t RowStride;
      unsigned char *Dst = Req.CacheStoreBase + slotRow(Offset, RowStride);
      Fr.storeSlot(Stk(SP - 1), Kind, Dst, RowStride, CurMask);
      break;
    }
    case FusedOp::F_Return:
      if (MaskDepth > 0)
        DIVERGE(); // classification forbids returns inside a diamond
      Fr.writeResults(Stk(SP - 1), EK[SP - 1], Req);
      RETIRE();
    case FusedOp::F_ReturnVoid:
      if (MaskDepth > 0)
        DIVERGE();
      Fr.writeResults(0, TypeKind::TK_Void, Req);
      RETIRE();
    case FusedOp::F_ConstAdd:
      ArithConst(EK[SP - 1], *In.K, FAdd, wrapAdd, interp::opAdd);
      break;
    case FusedOp::F_ConstMul:
      ArithConst(EK[SP - 1], *In.K, FMul, wrapMul, interp::opMul);
      break;
    case FusedOp::F_LoadLoad:
      Fr.copy(Stk(SP), In.A, C.LocalTypes[In.A], nullptr);
      Fr.copy(Stk(SP + 1), In.A2, C.LocalTypes[In.A2], nullptr);
      SP += 2;
      break;
    case FusedOp::F_StoreLoad:
      // Store first, then load — row-wise order preserves the sequential
      // semantics even when both name the same local. Only the store is
      // masked; the load is a stack push and writes every lane.
      Fr.copy(In.A, Stk(SP - 1), EK[SP - 1], CurMask);
      Fr.copy(Stk(SP - 1), In.A2, C.LocalTypes[In.A2], nullptr);
      break;
    case FusedOp::F_LoadCall: {
      const TypeKind Loaded = C.LocalTypes[In.A];
      Fr.copy(Stk(SP), In.A, Loaded, nullptr);
      const unsigned Argc = static_cast<unsigned>(In.B2);
      // Argument kinds: the entry stack's top Argc - 1 plus the local.
      TypeKind ArgKinds[8];
      assert(Argc >= 1 && Argc <= 8 && "builtin arity out of range");
      std::copy(EK + (SP + 1 - Argc), EK + SP, ArgKinds);
      ArgKinds[Argc - 1] = Loaded;
      ++SP;
      CallBuiltin(In.A2, Argc, ArgKinds);
      break;
    }
    case FusedOp::F_Jump: {
      // The only forward unconditional jump the compiler emits is the
      // else-skip ending a then-arm. Under a divergent frame for that
      // exact diamond it transitions execution to the else arm instead
      // of jumping; everything else (loop back-edges, skips under a
      // uniform outcome) jumps in lockstep.
      if (MaskDepth > 0) {
        MaskFrame &F = BatchMasks[MaskDepth - 1];
        if (F.InThen && In.A == F.Join) {
          F.Active.swap(F.Pending);
          std::swap(F.ActiveCount, F.PendingCount);
          F.InThen = false;
          CurMask = F.Active.data();
          ActiveCount = F.ActiveCount;
          ++IpIdx; // falls into the else arm (or straight onto the join)
          continue;
        }
      }
      IpIdx = static_cast<size_t>(In.A);
      continue;
    }
    case FusedOp::F_JumpIfFalse:
    case FusedOp::F_LtJf:
    case FusedOp::F_LeJf:
    case FusedOp::F_GtJf:
    case FusedOp::F_GeJf: {
      // Evaluate the condition over the *active* lanes only: masked-off
      // garbage must never influence control flow, and divergence means
      // "the active lanes disagree".
      size_t Target;
      uint8_t *Cond = CondScratch.data();
      if (In.Op == FusedOp::F_JumpIfFalse) {
        Target = static_cast<size_t>(In.A);
        const int32_t *S = Fr.i(Stk(--SP));
        for (unsigned L = 0; L < Lanes; ++L)
          Cond[L] = S[L] != 0 ? 1 : 0;
      } else {
        Target = static_cast<size_t>(In.A2);
        SP -= 2;
        const unsigned LRow = Stk(SP), RRow = Stk(SP + 1);
        const TypeKind LK = EK[SP], RK = EK[SP + 1];
        switch (In.Op) {
        case FusedOp::F_LtJf:
          compareRows(Fr, LRow, LK, RRow, RK, Cond,
                      [](float A, float B) { return A < B; });
          break;
        case FusedOp::F_LeJf:
          compareRows(Fr, LRow, LK, RRow, RK, Cond,
                      [](float A, float B) { return A <= B; });
          break;
        case FusedOp::F_GtJf:
          compareRows(Fr, LRow, LK, RRow, RK, Cond,
                      [](float A, float B) { return A > B; });
          break;
        default:
          compareRows(Fr, LRow, LK, RRow, RK, Cond,
                      [](float A, float B) { return A >= B; });
          break;
        }
      }
      unsigned TrueCount = 0;
      if (CurMask)
        for (unsigned L = 0; L < Lanes; ++L)
          Cond[L] &= CurMask[L];
      for (unsigned L = 0; L < Lanes; ++L)
        TrueCount += Cond[L];
      const unsigned ActiveTotal = CurMask ? ActiveCount : Lanes;
      if (TrueCount == ActiveTotal) { // uniformly true: fall through
        ++IpIdx;
        continue;
      }
      if (TrueCount == 0) { // uniformly false: jump in lockstep
        IpIdx = Target;
        continue;
      }
      const int32_t Join = C.BranchJoin.empty() ? -1 : C.BranchJoin[IpIdx];
      if (Join < 0)
        DIVERGE(); // a divergent loop exit or return-bearing diamond
      // Push a mask frame: the then-lanes run first; the else mask waits
      // in Pending until the else-skip transition (and reconverges unused
      // for an if without an else arm).
      if (BatchMasks.size() <= MaskDepth)
        BatchMasks.emplace_back();
      MaskFrame &F = BatchMasks[MaskDepth];
      F.Active.assign(CondScratch.begin(), CondScratch.end());
      F.Pending.resize(Lanes);
      if (MaskDepth == 0) {
        for (unsigned L = 0; L < Lanes; ++L)
          F.Pending[L] = static_cast<uint8_t>(!CondScratch[L]);
      } else {
        const uint8_t *Parent = BatchMasks[MaskDepth - 1].Active.data();
        for (unsigned L = 0; L < Lanes; ++L)
          F.Pending[L] = static_cast<uint8_t>(Parent[L] && !CondScratch[L]);
      }
      F.Join = Join;
      F.InThen = true;
      F.ActiveCount = TrueCount;
      F.PendingCount = ActiveTotal - TrueCount;
      ++MaskDepth;
      CurMask = F.Active.data();
      ActiveCount = TrueCount;
      ++IpIdx;
      continue;
    }
    case FusedOp::F_OpCount:
      TRAP("corrupt opcode in decoded chunk '" + C.Name + "'");
    }
    ++IpIdx;
  }

  // Fell off the end: every lane halts with a void result, matching the
  // scalar interpreters. (Reconvergence at an end-of-code join needs no
  // pops — every lane gets the same void result regardless of masks.)
  Fr.writeResults(0, TypeKind::TK_Void, Req);
  RETIRE();
}

#undef RETIRE
#undef DIVERGE
#undef TRAP
