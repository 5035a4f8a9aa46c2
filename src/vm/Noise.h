//===- vm/Noise.h - Gradient noise library ----------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic Perlin-style gradient noise library — the expensive
/// "noise functions" of the shaders' math library (the paper's shaders 3,
/// 4, and 5 owe their up-to-100x speedups to caching noise values). All
/// functions are pure and reproducible across runs.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_NOISE_H
#define DATASPEC_VM_NOISE_H

namespace dspec {

/// 3-D gradient noise in roughly [-1, 1]: the one-lane case of
/// perlinNoise3Lanes, so every tier and every caller computes noise with
/// the same operations.
///
/// Every input has a defined result. The lattice cell is floor() of each
/// coordinate, converted to int and taken mod 256; a coordinate that is
/// NaN, +-inf or at least 2^31 in magnitude gets cell 0 (INT32_MIN mod
/// 256, what x86 conversions give). The fraction is X - floor(X): +0.0 on
/// lattice points including -0.0, 0 from 2^23 up where every float is an
/// integer, NaN for +-inf and NaN, and then the result is NaN.
///
/// The results are pinned bit for bit (Noise.MatchesSeedValues), so the
/// kernel must be compiled without floating-point contraction: an FMA for
/// fade's or lerp's a * b + c rounds once instead of twice and changes the
/// noise. The top-level CMakeLists.txt passes -ffp-contract=off to every
/// file, which keeps these results on FMA targets too (x86-64-v3,
/// aarch64); do not turn contraction back on for this file.
float perlinNoise3(float X, float Y, float Z);

/// X[i] = perlinNoise3(X[i], Y[i], Z[i]) for i < \p N, bit for bit. Runs
/// blocks of 32 lanes through vectorized straight-line code and the rest
/// one lane at a time. X is read and written in place.
void perlinNoise3Lanes(float *X, const float *Y, const float *Z, unsigned N);

/// 1-D convenience wrapper.
inline float perlinNoise1(float X) { return perlinNoise3(X, 0.37f, 0.73f); }

/// 2-D convenience wrapper.
inline float perlinNoise2(float X, float Y) {
  return perlinNoise3(X, Y, 0.5f);
}

/// Fractal Brownian motion: \p Octaves octaves of noise with frequency
/// ratio \p Lacunarity and amplitude ratio \p Gain.
float fbm3(float X, float Y, float Z, int Octaves, float Lacunarity,
           float Gain);

/// Turbulence: sum of absolute noise over \p Octaves octaves.
float turbulence3(float X, float Y, float Z, int Octaves);

} // namespace dspec

#endif // DATASPEC_VM_NOISE_H
