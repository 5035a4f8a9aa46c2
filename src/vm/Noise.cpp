//===- vm/Noise.cpp - Gradient noise library --------------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Noise.h"
#include "vm/InterpOps.h"

#include <bit>
#include <cmath>
#include <cstdint>

using namespace dspec;

namespace {

/// Ken Perlin's reference permutation, doubled to avoid index wrapping.
const uint8_t Perm[512] = {
    151, 160, 137, 91,  90,  15,  131, 13,  201, 95,  96,  53,  194, 233, 7,
    225, 140, 36,  103, 30,  69,  142, 8,   99,  37,  240, 21,  10,  23,  190,
    6,   148, 247, 120, 234, 75,  0,   26,  197, 62,  94,  252, 219, 203, 117,
    35,  11,  32,  57,  177, 33,  88,  237, 149, 56,  87,  174, 20,  125, 136,
    171, 168, 68,  175, 74,  165, 71,  134, 139, 48,  27,  166, 77,  146, 158,
    231, 83,  111, 229, 122, 60,  211, 133, 230, 220, 105, 92,  41,  55,  46,
    245, 40,  244, 102, 143, 54,  65,  25,  63,  161, 1,   216, 80,  73,  209,
    76,  132, 187, 208, 89,  18,  169, 200, 196, 135, 130, 116, 188, 159, 86,
    164, 100, 109, 198, 173, 186, 3,   64,  52,  217, 226, 250, 124, 123, 5,
    202, 38,  147, 118, 126, 255, 82,  85,  212, 207, 206, 59,  227, 47,  16,
    58,  17,  182, 189, 28,  42,  223, 183, 170, 213, 119, 248, 152, 2,   44,
    154, 163, 70,  221, 153, 101, 155, 167, 43,  172, 9,   129, 22,  39,  253,
    19,  98,  108, 110, 79,  113, 224, 232, 178, 185, 112, 104, 218, 246, 97,
    228, 251, 34,  242, 193, 238, 210, 144, 12,  191, 179, 162, 241, 81,  51,
    145, 235, 249, 14,  239, 107, 49,  192, 214, 31,  181, 199, 106, 157, 184,
    84,  204, 176, 115, 121, 50,  45,  127, 4,   150, 254, 138, 236, 205, 93,
    222, 114, 67,  29,  24,  72,  243, 141, 128, 195, 78,  66,  215, 61,  156,
    180,
    // repeat
    151, 160, 137, 91,  90,  15,  131, 13,  201, 95,  96,  53,  194, 233, 7,
    225, 140, 36,  103, 30,  69,  142, 8,   99,  37,  240, 21,  10,  23,  190,
    6,   148, 247, 120, 234, 75,  0,   26,  197, 62,  94,  252, 219, 203, 117,
    35,  11,  32,  57,  177, 33,  88,  237, 149, 56,  87,  174, 20,  125, 136,
    171, 168, 68,  175, 74,  165, 71,  134, 139, 48,  27,  166, 77,  146, 158,
    231, 83,  111, 229, 122, 60,  211, 133, 230, 220, 105, 92,  41,  55,  46,
    245, 40,  244, 102, 143, 54,  65,  25,  63,  161, 1,   216, 80,  73,  209,
    76,  132, 187, 208, 89,  18,  169, 200, 196, 135, 130, 116, 188, 159, 86,
    164, 100, 109, 198, 173, 186, 3,   64,  52,  217, 226, 250, 124, 123, 5,
    202, 38,  147, 118, 126, 255, 82,  85,  212, 207, 206, 59,  227, 47,  16,
    58,  17,  182, 189, 28,  42,  223, 183, 170, 213, 119, 248, 152, 2,   44,
    154, 163, 70,  221, 153, 101, 155, 167, 43,  172, 9,   129, 22,  39,  253,
    19,  98,  108, 110, 79,  113, 224, 232, 178, 185, 112, 104, 218, 246, 97,
    228, 251, 34,  242, 193, 238, 210, 144, 12,  191, 179, 162, 241, 81,  51,
    145, 235, 249, 14,  239, 107, 49,  192, 214, 31,  181, 199, 106, 157, 184,
    84,  204, 176, 115, 121, 50,  45,  127, 4,   150, 254, 138, 236, 205, 93,
    222, 114, 67,  29,  24,  72,  243, 141, 128, 195, 78,  66,  215, 61,  156,
    180};

/// Lanes per block. The float phases loop over a constant trip count, so
/// the compiler vectorizes them with the baseline ISA.
constexpr unsigned BlockLanes = 32;

inline float fade(float T) { return T * T * T * (T * (T * 6 - 15) + 10); }

inline float lerp(float T, float A, float B) { return A + T * (B - A); }

/// std::floor bit for bit, without a call or a branch: truncate, then step
/// down where truncation rounded up. The truncation keeps the sign, so
/// floor(-0.0) stays -0.0 and X - floor(X) is +0.0. From 2^23 up every
/// float is an integer, so X itself is returned there, and for +-inf and
/// NaN; the cast sees 0 in their place. As in interp::toInt32, the
/// selects are whole-word masks so that the lane loop vectorizes.
inline float floorLane(float X) {
  const uint32_t XB = std::bit_cast<uint32_t>(X);
  const uint32_t Small = 0u - static_cast<uint32_t>(std::fabs(X) < 0x1p23f);
  const float S = std::bit_cast<float>(XB & Small);
  const float T =
      std::copysign(static_cast<float>(static_cast<int32_t>(S)), S);
  const uint32_t Step = 0x3f800000u & (0u - static_cast<uint32_t>(T > S));
  const float F = T - std::bit_cast<float>(Step);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(F) & Small) |
                              (XB & ~Small));
}

/// The reference gradient: with H = Hash & 15, U is X for H < 8 and Y
/// otherwise; V is Y for H < 4, X for H 12 and 14, Z otherwise; bits 0
/// and 1 of H negate U and V. The choices are whole-word masks and the
/// negations flips of the sign bit, so the result is bit for bit that of
/// the branching form.
inline float grad(uint32_t Hash, float X, float Y, float Z) {
  const uint32_t H = Hash & 15;
  const uint32_t XB = std::bit_cast<uint32_t>(X);
  const uint32_t YB = std::bit_cast<uint32_t>(Y);
  const uint32_t ZB = std::bit_cast<uint32_t>(Z);
  const uint32_t UIsX = 0u - static_cast<uint32_t>(H < 8);
  const uint32_t VIsY = 0u - static_cast<uint32_t>(H < 4);
  const uint32_t VIsX = 0u - static_cast<uint32_t>((H & 13) == 12);
  const uint32_t U = (XB & UIsX) | (YB & ~UIsX);
  const uint32_t V = (YB & VIsY) | (~VIsY & ((XB & VIsX) | (ZB & ~VIsX)));
  return std::bit_cast<float>(U ^ ((H & 1) << 31)) +
         std::bit_cast<float>(V ^ ((H & 2) << 30));
}

/// Noise of \p Lanes lanes in three straight-line phases: lattice cells
/// and fractions, the 14 permutation lookups per lane (scalar loads), then
/// 8 gradients and 7 lerps per lane. Reads Y and Z, and X before it
/// writes X.
template <unsigned Lanes>
void noiseBlock(float *X, const float *Y, const float *Z) {
  float FX[Lanes], FY[Lanes], FZ[Lanes];
  int32_t IX[Lanes], IY[Lanes], IZ[Lanes];
  for (unsigned L = 0; L < Lanes; ++L) {
    const float X0 = floorLane(X[L]), Y0 = floorLane(Y[L]),
                Z0 = floorLane(Z[L]);
    IX[L] = interp::toInt32(X0) & 255;
    IY[L] = interp::toInt32(Y0) & 255;
    IZ[L] = interp::toInt32(Z0) & 255;
    FX[L] = X[L] - X0;
    FY[L] = Y[L] - Y0;
    FZ[L] = Z[L] - Z0;
  }

  // The hashes of the cell's 8 corners, in the order the lerps take them.
  uint32_t Hash[8][Lanes];
  for (unsigned L = 0; L < Lanes; ++L) {
    const int A = Perm[IX[L]] + IY[L];
    const int B = Perm[IX[L] + 1] + IY[L];
    const int AA = Perm[A] + IZ[L], AB = Perm[A + 1] + IZ[L];
    const int BA = Perm[B] + IZ[L], BB = Perm[B + 1] + IZ[L];
    Hash[0][L] = Perm[AA];
    Hash[1][L] = Perm[BA];
    Hash[2][L] = Perm[AB];
    Hash[3][L] = Perm[BB];
    Hash[4][L] = Perm[AA + 1];
    Hash[5][L] = Perm[BA + 1];
    Hash[6][L] = Perm[AB + 1];
    Hash[7][L] = Perm[BB + 1];
  }

  for (unsigned L = 0; L < Lanes; ++L) {
    const float PX = FX[L], PY = FY[L], PZ = FZ[L];
    const float U = fade(PX), V = fade(PY), W = fade(PZ);
    X[L] = lerp(
        W,
        lerp(V,
             lerp(U, grad(Hash[0][L], PX, PY, PZ),
                  grad(Hash[1][L], PX - 1, PY, PZ)),
             lerp(U, grad(Hash[2][L], PX, PY - 1, PZ),
                  grad(Hash[3][L], PX - 1, PY - 1, PZ))),
        lerp(V,
             lerp(U, grad(Hash[4][L], PX, PY, PZ - 1),
                  grad(Hash[5][L], PX - 1, PY, PZ - 1)),
             lerp(U, grad(Hash[6][L], PX, PY - 1, PZ - 1),
                  grad(Hash[7][L], PX - 1, PY - 1, PZ - 1))));
  }
}

} // namespace

void dspec::perlinNoise3Lanes(float *X, const float *Y, const float *Z,
                              unsigned N) {
  unsigned L = 0;
  for (; L + BlockLanes <= N; L += BlockLanes)
    noiseBlock<BlockLanes>(X + L, Y + L, Z + L);
  for (; L < N; ++L)
    noiseBlock<1>(X + L, Y + L, Z + L);
}

float dspec::perlinNoise3(float X, float Y, float Z) {
  noiseBlock<1>(&X, &Y, &Z);
  return X;
}

float dspec::fbm3(float X, float Y, float Z, int Octaves, float Lacunarity,
                  float Gain) {
  float Sum = 0.0f;
  float Amplitude = 1.0f;
  float FX = X, FY = Y, FZ = Z;
  for (int Octave = 0; Octave < Octaves; ++Octave) {
    Sum += Amplitude * perlinNoise3(FX, FY, FZ);
    FX *= Lacunarity;
    FY *= Lacunarity;
    FZ *= Lacunarity;
    Amplitude *= Gain;
  }
  return Sum;
}

float dspec::turbulence3(float X, float Y, float Z, int Octaves) {
  float Sum = 0.0f;
  float Amplitude = 1.0f;
  float FX = X, FY = Y, FZ = Z;
  for (int Octave = 0; Octave < Octaves; ++Octave) {
    Sum += Amplitude * std::fabs(perlinNoise3(FX, FY, FZ));
    FX *= 2.0f;
    FY *= 2.0f;
    FZ *= 2.0f;
    Amplitude *= 0.5f;
  }
  return Sum;
}
