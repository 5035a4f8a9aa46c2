//===- vm/InterpOps.h - Shared interpreter operation semantics --*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value-level semantics of the arithmetic and comparison opcodes,
/// shared by both execution tiers (the classic switch interpreter in
/// VM.cpp and the batched tier in FastInterp.cpp). The
/// bit-identical-framebuffer guarantee across tiers rests on all of them
/// calling exactly these functions in exactly the same operand order, so
/// do not duplicate or "optimize" these per tier.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_INTERPOPS_H
#define DATASPEC_VM_INTERPOPS_H

#include "vm/Value.h"

#include <bit>
#include <cstdint>
#include <string>

namespace dspec {
namespace interp {

/// Renders the " at line:col" suffix for the divide-by-zero diagnostics.
/// The compiler stamps the offending operand's SourceLoc into the unused
/// A/B operands of OC_Div / OC_Mod; chunks compiled before that carry
/// zeros and get the bare message.
inline std::string srcLocSuffix(int32_t Line, int32_t Col) {
  if (Line <= 0)
    return std::string();
  return " at " + std::to_string(Line) + ":" + std::to_string(Col);
}

/// Componentwise binary arithmetic with scalar broadcasting. Sema
/// guarantees the combinations are sensible.
template <typename FloatOp, typename IntOp>
inline Value arith(const Value &L, const Value &R, FloatOp FOp, IntOp IOp) {
  if (L.isInt() && R.isInt())
    return Value::makeInt(IOp(L.I, R.I));
  if (!L.isVector() && !R.isVector())
    return Value::makeFloat(FOp(L.asFloat(), R.asFloat()));

  Value Out;
  if (L.isVector() && R.isVector()) {
    Out.Kind = L.Kind;
    for (unsigned I = 0; I < L.width(); ++I)
      Out.F[I] = FOp(L.F[I], R.F[I]);
    return Out;
  }
  if (L.isVector()) {
    float S = R.asFloat();
    Out.Kind = L.Kind;
    for (unsigned I = 0; I < L.width(); ++I)
      Out.F[I] = FOp(L.F[I], S);
    return Out;
  }
  float S = L.asFloat();
  Out.Kind = R.Kind;
  for (unsigned I = 0; I < R.width(); ++I)
    Out.F[I] = FOp(S, R.F[I]);
  return Out;
}

template <typename Cmp>
inline Value compare(const Value &L, const Value &R, Cmp Op) {
  if (L.isInt() && R.isInt())
    return Value::makeBool(Op(static_cast<float>(L.I),
                              static_cast<float>(R.I)));
  return Value::makeBool(Op(L.asFloat(), R.asFloat()));
}

inline Value opAdd(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A + B; },
      [](int32_t A, int32_t B) { return A + B; });
}

inline Value opSub(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A - B; },
      [](int32_t A, int32_t B) { return A - B; });
}

inline Value opMul(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A * B; },
      [](int32_t A, int32_t B) { return A * B; });
}

/// Caller must have rejected int/int division by zero.
inline Value opDiv(const Value &L, const Value &R) {
  return arith(
      L, R, [](float A, float B) { return A / B; },
      [](int32_t A, int32_t B) { return A / B; });
}

/// The min/max builtins. std::fmin/fmax leave the sign of a zero result
/// open when -0.0 meets +0.0, and the compiler expands them differently
/// in scalar and vectorized code, so every tier calls these instead: a
/// NaN operand yields the other operand, otherwise the smaller (larger)
/// by <, and the first operand on a tie.
inline float minF(float X, float Y) {
  if (X != X)
    return Y;
  if (Y != Y)
    return X;
  return Y < X ? Y : X;
}
inline float maxF(float X, float Y) {
  if (X != X)
    return Y;
  if (Y != Y)
    return X;
  return X < Y ? Y : X;
}

/// float -> int32 rounding toward zero, as the toInt builtin and the
/// noise kernel's lattice index convert. NaN, +-inf and everything outside
/// [-2^31, 2^31) give INT32_MIN, the value x86's cvttss2si returns for
/// them; the cast sees 0 in their place, so it is always defined. The
/// selects are whole-word masks: a ?: lets the compiler move the cast
/// under a branch, and the noise kernel's lane loop would no longer
/// vectorize.
inline int32_t toInt32(float X) {
  const uint32_t InRange =
      0u - static_cast<uint32_t>((X >= -0x1p31f) & (X < 0x1p31f));
  const int32_t I = static_cast<int32_t>(
      std::bit_cast<float>(std::bit_cast<uint32_t>(X) & InRange));
  return static_cast<int32_t>(static_cast<uint32_t>(I) |
                              (0x80000000u & ~InRange));
}

} // namespace interp
} // namespace dspec

#endif // DATASPEC_VM_INTERPOPS_H
