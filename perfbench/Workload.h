//===- perfbench/Workload.h - Seeded request streams ------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's three traffic mixes, generated from a seed so the same
/// seed gives the same requests on every host and standard library:
///
///   drag     closed loop, 640x480: the 10 gallery shaders in blocks of
///            consecutive frames, one varying control per shader (fixed by
///            the catalogue), a new seeded value of it every frame. Warm-up
///            builds every unit, so every timed request is a cache hit.
///   explore  closed loop, 640x480: every request is a partition never
///            seen before in the run (the 131 (shader, control) pairs in a
///            fixed interleaved order, fixed controls drawn from their
///            sweep ranges), so every request builds a unit. Warm-up fills
///            the UnitCache with small units so every build evicts.
///   studio   open loop, 160x120: Poisson arrivals at fixed absolute rates,
///            calm periods alternating with bursts; simulated users drag one
///            partition for a geometric number of frames, then switch to
///            another: the next shader in turn and a Zipf-popular scene of
///            it (its fixed controls), over 190 partitions. Every request
///            carries a 250 ms deadline.
///
/// The end-to-end client (Client.cpp) sends these streams to `dspec
/// serve`; the traced replay (Replay.cpp) runs the same streams in
/// process.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "service/Protocol.h"
#include "shading/ShaderGallery.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny generator whose output is fixed by its seed alone.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, N).
  unsigned below(unsigned N);
  /// Uniform in [Lo, Hi].
  float between(float Lo, float Hi);

private:
  uint64_t State;
};

enum class Kind { Drag, Explore, Studio };

bool parseKind(const std::string &Name, Kind &Out);
const char *kindName(Kind K);

/// Fixed parameters of one workload.
struct WorkloadShape {
  unsigned Width;
  unsigned Height;
  /// Queue deadline every request carries (0 = none).
  unsigned DeadlineMillis;
  /// Client connections (one thread drives them all).
  unsigned Connections;
  /// Open loop (scheduled arrivals) rather than closed loop.
  bool OpenLoop;
};

WorkloadShape shapeOf(Kind K);

/// One request of a stream.
struct Planned {
  dspec::RenderRequest Request;
  /// Index into dspec::shaderGallery().
  unsigned Shader = 0;
  /// Open loop: when the request is due, in seconds from window start.
  double DueSeconds = 0.0;
  /// Open loop: the simulated user (its connection is User % Connections).
  unsigned User = 0;
};

/// A workload's seeded request stream.
class Stream {
public:
  Stream(Kind K, uint64_t Seed);

  const WorkloadShape &shape() const { return Shape; }

  /// Requests the set-up sends (closed loop) before the timed window.
  std::vector<Planned> warmup() const;

  /// The next request of the timed stream. Open loop: requests come in
  /// due order, and the caller stops once DueSeconds passes its window.
  Planned next();

  /// Drag: requests per full cycle over the gallery (0 elsewhere). A
  /// timed drag window ends on a cycle boundary so every shader weighs
  /// the same in each run.
  unsigned cycleLength() const;

private:
  struct Partition {
    unsigned Shader;
    unsigned Varying;
    std::vector<float> Controls;
  };
  struct User {
    unsigned Shader = 0;
    unsigned Scene = 0;
    unsigned FramesLeft = 0;
  };

  Planned make(const Partition &P, float VaryingValue, unsigned W,
               unsigned H) const;
  /// The popularity rank at quantile \p U of the Zipf distribution.
  unsigned pickZipf(double U) const;

  Kind K;
  WorkloadShape Shape;
  Rng Random;
  /// Seeds warm-up's own generator, so warm-up never shifts the stream.
  uint64_t WarmupSeed;
  uint64_t Count = 0;

  // drag
  std::vector<Partition> DragParts;
  unsigned DragOffset = 0;

  // explore: shader order over one 131-request cycle, and per shader the
  // order its controls vary in.
  std::vector<unsigned> ExploreShaders;
  std::vector<std::vector<unsigned>> ExploreControls;
  std::vector<unsigned> ExploreNextControl;

  // studio: per shader, its scenes in popularity order; the Zipf CDF
  // over popularity ranks.
  std::vector<std::vector<Partition>> StudioScenes;
  std::vector<double> ZipfCdf;
  std::vector<User> Users;
  uint64_t Sessions = 0;
  double RankOffset = 0.0;
  double LengthOffset = 0.0;
  /// Arrival times of the current calm or burst segment.
  std::vector<double> Arrivals;
  size_t NextArrival = 0;
  uint64_t Segment = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
