//===- engine/RenderContext.h - Per-pixel fixed inputs ---------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic per-pixel rendering contexts. The paper's shaders receive
/// "the pixel coordinates [and] various rendering information specific to
/// the pixel" from the interactive renderer of [GKR95]; we substitute a
/// procedural scene — a wavy height-field patch with analytic normals and
/// a fixed eye point — that produces the same four standard inputs every
/// gallery shader takes:
///
///   vec2 uv   texture coordinates in [0,1]^2
///   vec3 P    surface position
///   vec3 N    unit surface normal
///   vec3 I    unit direction from the surface point toward the eye
///
/// These are *fixed* inputs in every input partition (the user only drags
/// control parameters), which is what makes one cache per pixel viable.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_ENGINE_RENDERCONTEXT_H
#define DATASPEC_ENGINE_RENDERCONTEXT_H

#include "vm/Value.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace dspec {

/// The fixed inputs of one pixel.
struct PixelInput {
  Value UV;
  Value P;
  Value N;
  Value I;
};

/// A W x H grid of per-pixel fixed inputs over the procedural patch.
///
/// The inputs are a pure function of (W, H), so a grid is a cheap handle
/// onto immutable pixel data interned per image size: every grid of one
/// size — one per cached SpecializationUnit, snapshot warm start or
/// shader lab — shares it. The data is 11 f32 columns (uv.xy, P.xyz,
/// N.xyz, I.xyz), 44 B/px: the batched tier copies a tile's parameters
/// straight out of them. The per-pixel switch tier builds one pixel's
/// Values with pixel(). The intern table holds each entry by weak
/// reference and drops it when the last grid of that size goes away, so
/// the table never keeps data alive. Construction is thread-safe; concurrent
/// constructions of one size build the data once.
class RenderGrid {
public:
  /// The f32 columns, in storage order.
  enum Column : unsigned { UVX, UVY, PX, PY, PZ, NX, NY, NZ, IX, IY, IZ,
                           NumColumns };

  RenderGrid(unsigned Width, unsigned Height);

  unsigned width() const { return W; }
  unsigned height() const { return H; }
  unsigned pixelCount() const { return W * H; }

  /// Column \p C: one float per pixel, in pixel order.
  const float *column(unsigned C) const;

  /// The fixed inputs of pixel \p Index as Values.
  PixelInput pixel(size_t Index) const;

  /// Every pixel's inputs as Values, built once per image size on first
  /// use and shared by every grid of that size (tests and benches; the
  /// render path reads columns).
  const std::vector<PixelInput> &pixels() const;

  /// Image sizes whose pixel data some live grid holds (the intern
  /// table's entry count).
  static size_t internedSizes();

  struct Data;

private:
  unsigned W;
  unsigned H;
  std::shared_ptr<const Data> Shared;
};

/// A trivially small framebuffer for the examples: vec3 colors.
class Framebuffer {
public:
  Framebuffer(unsigned Width, unsigned Height)
      : W(Width), H(Height), Pixels(static_cast<size_t>(Width) * Height) {}
  /// Adopts \p Pixels (Width x Height values, pixel order) without
  /// initialising a buffer first.
  Framebuffer(unsigned Width, unsigned Height, std::vector<Value> Pixels)
      : W(Width), H(Height), Pixels(std::move(Pixels)) {
    assert(this->Pixels.size() == static_cast<size_t>(Width) * Height &&
           "pixel count does not match the framebuffer size");
  }

  unsigned width() const { return W; }
  unsigned height() const { return H; }
  /// Pixel-order storage: pixel (X, Y) at data()[Y * width() + X].
  Value *data() { return Pixels.data(); }
  Value &at(unsigned X, unsigned Y) { return Pixels[size_t(Y) * W + X]; }
  const Value &at(unsigned X, unsigned Y) const {
    return Pixels[size_t(Y) * W + X];
  }

  /// Renders the luminance of the image as ASCII art (examples print it).
  std::string asciiArt() const;

  /// Writes a binary PPM (P6) image file. Returns false on I/O failure.
  bool writePPM(const std::string &Path) const;

private:
  unsigned W;
  unsigned H;
  std::vector<Value> Pixels;
};

} // namespace dspec

#endif // DATASPEC_ENGINE_RENDERCONTEXT_H
