//===- perfbench/Bench.h - The benchmark's two runs -------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the perfbench binary:
///
///   e2e     spawns `dspec serve`, drives one workload over its unix
///           socket for a timed window, verifies a seeded sample of the
///           replies bit-for-bit against the original shader on the switch
///           interpreter, reconciles its counts with /statsz, and writes
///           the end-to-end metrics (untraced).
///   replay  runs the same seeded request stream in process through the
///           modules' public functions with a span around each call, and
///           writes the per-layer metrics plus the spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Workload.h"

#include <string>

namespace perfbench {

struct RunOptions {
  Kind Workload = Kind::Drag;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  /// Directory for sockets, spill files, logs and traces (created).
  std::string RunDir;
  /// Where the result JSON goes.
  std::string OutPath;

  // e2e only
  std::string DspecPath;
  /// How many times set-up is repeated; setup_s is their median.
  unsigned Setups = 3;

  // replay only
  /// The untraced run's latency_ms_p50 (bench.trace_coverage's base).
  double LatencyP50Ms = 0.0;
};

/// Both return a process exit code: 0 when the result JSON was written
/// (it records whether the run was correct), nonzero when no result could
/// be produced.
int runEndToEnd(const RunOptions &Options);
int runReplay(const RunOptions &Options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
