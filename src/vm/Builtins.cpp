//===- vm/Builtins.cpp - Builtin semantics ----------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime implementations of the dsc builtin library (lang/Builtins.h):
/// scalar math, vector operations, rotation transforms, the noise family,
/// and the two effectful builtins used to exercise Rule 2.
///
//===----------------------------------------------------------------------===//

#include "lang/Builtins.h"
#include "vm/InterpOps.h"
#include "vm/Noise.h"
#include "vm/VM.h"

#include <cmath>

using namespace dspec;

namespace {

Value vecOp2(const Value &A, const Value &B, float (*Op)(float, float)) {
  Value Out;
  Out.Kind = A.Kind;
  for (unsigned I = 0; I < A.width(); ++I)
    Out.F[I] = Op(A.F[I], B.F[I]);
  return Out;
}

float dot(const Value &A, const Value &B) {
  float Sum = 0;
  for (unsigned I = 0; I < A.width(); ++I)
    Sum += A.F[I] * B.F[I];
  return Sum;
}

Value normalize(const Value &V) {
  float Len = std::sqrt(dot(V, V));
  Value Out = V;
  if (Len == 0.0f)
    return Out;
  for (unsigned I = 0; I < V.width(); ++I)
    Out.F[I] = V.F[I] / Len;
  return Out;
}

Value mixVec(const Value &A, const Value &B, float T) {
  Value Out = A;
  for (unsigned I = 0; I < A.width(); ++I)
    Out.F[I] = A.F[I] + (B.F[I] - A.F[I]) * T;
  return Out;
}

float smoothstepf(float E0, float E1, float X) {
  if (E0 == E1)
    return X < E0 ? 0.0f : 1.0f;
  float T = (X - E0) / (E1 - E0);
  T = T < 0.0f ? 0.0f : (T > 1.0f ? 1.0f : T);
  return T * T * (3.0f - 2.0f * T);
}

Value rotate(const Value &V, float Angle, unsigned Axis) {
  float C = std::cos(Angle);
  float S = std::sin(Angle);
  float X = V.F[0], Y = V.F[1], Z = V.F[2];
  switch (Axis) {
  case 0:
    return Value::makeVec3(X, C * Y - S * Z, S * Y + C * Z);
  case 1:
    return Value::makeVec3(C * X + S * Z, Y, -S * X + C * Z);
  default:
    return Value::makeVec3(C * X - S * Y, S * X + C * Y, Z);
  }
}

} // namespace

namespace dspec {

Value callBuiltinImpl(uint16_t Id, const Value *A, VM &Machine) {
  switch (static_cast<BuiltinId>(Id)) {
  case BuiltinId::BI_SqrtF:
    return Value::makeFloat(std::sqrt(A[0].asFloat()));
  case BuiltinId::BI_AbsF:
    return Value::makeFloat(std::fabs(A[0].asFloat()));
  case BuiltinId::BI_AbsI:
    return Value::makeInt(A[0].I < 0 ? -A[0].I : A[0].I);
  case BuiltinId::BI_FloorF:
    return Value::makeFloat(std::floor(A[0].asFloat()));
  case BuiltinId::BI_CeilF:
    return Value::makeFloat(std::ceil(A[0].asFloat()));
  case BuiltinId::BI_FractF: {
    float X = A[0].asFloat();
    return Value::makeFloat(X - std::floor(X));
  }
  case BuiltinId::BI_SinF:
    return Value::makeFloat(std::sin(A[0].asFloat()));
  case BuiltinId::BI_CosF:
    return Value::makeFloat(std::cos(A[0].asFloat()));
  case BuiltinId::BI_TanF:
    return Value::makeFloat(std::tan(A[0].asFloat()));
  case BuiltinId::BI_ExpF:
    return Value::makeFloat(std::exp(A[0].asFloat()));
  case BuiltinId::BI_LogF:
    return Value::makeFloat(std::log(A[0].asFloat()));
  case BuiltinId::BI_PowF:
    return Value::makeFloat(std::pow(A[0].asFloat(), A[1].asFloat()));
  case BuiltinId::BI_MinF:
    return Value::makeFloat(interp::minF(A[0].asFloat(), A[1].asFloat()));
  case BuiltinId::BI_MinI:
    return Value::makeInt(A[0].I < A[1].I ? A[0].I : A[1].I);
  case BuiltinId::BI_MaxF:
    return Value::makeFloat(interp::maxF(A[0].asFloat(), A[1].asFloat()));
  case BuiltinId::BI_MaxI:
    return Value::makeInt(A[0].I > A[1].I ? A[0].I : A[1].I);
  case BuiltinId::BI_ClampF: {
    float X = A[0].asFloat(), Lo = A[1].asFloat(), Hi = A[2].asFloat();
    return Value::makeFloat(X < Lo ? Lo : (X > Hi ? Hi : X));
  }
  case BuiltinId::BI_MixF: {
    float X = A[0].asFloat(), Y = A[1].asFloat(), T = A[2].asFloat();
    return Value::makeFloat(X + (Y - X) * T);
  }
  case BuiltinId::BI_StepF:
    return Value::makeFloat(A[1].asFloat() < A[0].asFloat() ? 0.0f : 1.0f);
  case BuiltinId::BI_SmoothStepF:
    return Value::makeFloat(
        smoothstepf(A[0].asFloat(), A[1].asFloat(), A[2].asFloat()));
  case BuiltinId::BI_ModF:
    return Value::makeFloat(std::fmod(A[0].asFloat(), A[1].asFloat()));
  case BuiltinId::BI_ToInt:
    return Value::makeInt(interp::toInt32(A[0].asFloat()));
  case BuiltinId::BI_ToFloat:
    return Value::makeFloat(static_cast<float>(A[0].I));
  case BuiltinId::BI_Vec2:
    return Value::makeVec2(A[0].asFloat(), A[1].asFloat());
  case BuiltinId::BI_Vec3:
    return Value::makeVec3(A[0].asFloat(), A[1].asFloat(), A[2].asFloat());
  case BuiltinId::BI_Vec3Splat: {
    float X = A[0].asFloat();
    return Value::makeVec3(X, X, X);
  }
  case BuiltinId::BI_Vec4:
    return Value::makeVec4(A[0].asFloat(), A[1].asFloat(), A[2].asFloat(),
                           A[3].asFloat());
  case BuiltinId::BI_Vec4FromVec3:
    return Value::makeVec4(A[0].F[0], A[0].F[1], A[0].F[2], A[1].asFloat());
  case BuiltinId::BI_DotV2:
  case BuiltinId::BI_DotV3:
  case BuiltinId::BI_DotV4:
    return Value::makeFloat(dot(A[0], A[1]));
  case BuiltinId::BI_CrossV3: {
    const Value &X = A[0], &Y = A[1];
    return Value::makeVec3(X.F[1] * Y.F[2] - X.F[2] * Y.F[1],
                           X.F[2] * Y.F[0] - X.F[0] * Y.F[2],
                           X.F[0] * Y.F[1] - X.F[1] * Y.F[0]);
  }
  case BuiltinId::BI_LengthV2:
  case BuiltinId::BI_LengthV3:
  case BuiltinId::BI_LengthV4:
    return Value::makeFloat(std::sqrt(dot(A[0], A[0])));
  case BuiltinId::BI_NormalizeV2:
  case BuiltinId::BI_NormalizeV3:
  case BuiltinId::BI_NormalizeV4:
    return normalize(A[0]);
  case BuiltinId::BI_DistanceV3: {
    Value Diff = vecOp2(A[0], A[1], [](float X, float Y) { return X - Y; });
    return Value::makeFloat(std::sqrt(dot(Diff, Diff)));
  }
  case BuiltinId::BI_ReflectV3: {
    // reflect(I, N) = I - 2*dot(N, I)*N
    float D = 2.0f * dot(A[1], A[0]);
    return Value::makeVec3(A[0].F[0] - D * A[1].F[0],
                           A[0].F[1] - D * A[1].F[1],
                           A[0].F[2] - D * A[1].F[2]);
  }
  case BuiltinId::BI_FaceForwardV3: {
    // faceforward(N, I): N flipped to oppose I.
    bool Flip = dot(A[1], A[0]) > 0.0f;
    if (!Flip)
      return A[0];
    return Value::makeVec3(-A[0].F[0], -A[0].F[1], -A[0].F[2]);
  }
  case BuiltinId::BI_MixV2:
  case BuiltinId::BI_MixV3:
  case BuiltinId::BI_MixV4:
    return mixVec(A[0], A[1], A[2].asFloat());
  case BuiltinId::BI_ClampV3: {
    float Lo = A[1].asFloat(), Hi = A[2].asFloat();
    Value Out = A[0];
    for (unsigned I = 0; I < 3; ++I)
      Out.F[I] = Out.F[I] < Lo ? Lo : (Out.F[I] > Hi ? Hi : Out.F[I]);
    return Out;
  }
  case BuiltinId::BI_MinV3:
    return vecOp2(A[0], A[1], interp::minF);
  case BuiltinId::BI_MaxV3:
    return vecOp2(A[0], A[1], interp::maxF);
  case BuiltinId::BI_RotateXV3:
    return rotate(A[0], A[1].asFloat(), 0);
  case BuiltinId::BI_RotateYV3:
    return rotate(A[0], A[1].asFloat(), 1);
  case BuiltinId::BI_RotateZV3:
    return rotate(A[0], A[1].asFloat(), 2);
  case BuiltinId::BI_Noise1:
    return Value::makeFloat(perlinNoise1(A[0].asFloat()));
  case BuiltinId::BI_Noise2:
    return Value::makeFloat(perlinNoise2(A[0].F[0], A[0].F[1]));
  case BuiltinId::BI_Noise3:
    return Value::makeFloat(perlinNoise3(A[0].F[0], A[0].F[1], A[0].F[2]));
  case BuiltinId::BI_VNoise3:
    return Value::makeVec3(
        perlinNoise3(A[0].F[0], A[0].F[1], A[0].F[2]),
        perlinNoise3(A[0].F[1] + 31.7f, A[0].F[2] + 11.3f, A[0].F[0] + 5.1f),
        perlinNoise3(A[0].F[2] + 71.9f, A[0].F[0] + 43.1f, A[0].F[1] + 9.7f));
  case BuiltinId::BI_Fbm: {
    int Octaves = A[1].I < 0 ? 0 : (A[1].I > 16 ? 16 : A[1].I);
    return Value::makeFloat(fbm3(A[0].F[0], A[0].F[1], A[0].F[2], Octaves,
                                 A[2].asFloat(), A[3].asFloat()));
  }
  case BuiltinId::BI_Turbulence: {
    int Octaves = A[1].I < 0 ? 0 : (A[1].I > 16 ? 16 : A[1].I);
    return Value::makeFloat(
        turbulence3(A[0].F[0], A[0].F[1], A[0].F[2], Octaves));
  }
  case BuiltinId::BI_Trace:
    Machine.TraceLog.push_back(A[0].asFloat());
    return Value::makeVoid();
  case BuiltinId::BI_Clock:
    return Value::makeFloat(static_cast<float>(Machine.ClockCounter++));
  }
  return Value::makeVoid();
}

} // namespace dspec
