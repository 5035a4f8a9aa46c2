//===- tests/BatchTile.h - One batched tile for VM-level tests --*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives VM::runBatch over one cache-less tile without a render engine,
/// so tests can check the batched tier lane by lane against VM::run.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_TESTS_BATCHTILE_H
#define DATASPEC_TESTS_BATCHTILE_H

#include "vm/ExecChunk.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <vector>

namespace dspec {

/// The outcome of one tile and every lane's result. Results are
/// pre-filled with an int sentinel so tests can observe "results
/// unwritten" on a bail-out.
struct TileRun {
  ExecResult R;
  std::vector<Value> Results;
};

/// Runs \p Exec over one tile, one lane per entry of \p LaneArgs. Every
/// lane must pass the same argument kinds.
inline TileRun runTile(VM &Machine, const ExecChunk &Exec,
                       const std::vector<std::vector<Value>> &LaneArgs) {
  const unsigned Lanes = static_cast<unsigned>(LaneArgs.size());
  const unsigned NumArgs =
      Lanes ? static_cast<unsigned>(LaneArgs[0].size()) : 0;
  // One column set per parameter: every lane's component C (or int).
  std::vector<std::vector<float>> Floats(NumArgs * 4u);
  std::vector<std::vector<int32_t>> Ints(NumArgs);
  std::vector<BatchArg> Args(NumArgs);
  for (unsigned A = 0; A < NumArgs; ++A) {
    Args[A].Kind = LaneArgs[0][A].Kind;
    for (const auto &Lane : LaneArgs) {
      EXPECT_EQ(Lane.size(), NumArgs);
      EXPECT_EQ(Lane[A].Kind, Args[A].Kind) << "lane kinds must be uniform";
      Ints[A].push_back(Lane[A].I);
      for (unsigned C = 0; C < 4; ++C)
        Floats[A * 4 + C].push_back(Lane[A].F[C]);
    }
    Args[A].Ints = Ints[A].data();
    for (unsigned C = 0; C < 4; ++C)
      Args[A].Cols[C] = Floats[A * 4 + C].data();
  }
  TileRun Out;
  Out.Results.assign(Lanes, Value::makeInt(-777001));
  BatchRequest Req;
  Req.Args = Args.data();
  Req.NumArgs = NumArgs;
  Req.Lanes = Lanes;
  Req.Results = Out.Results.data();
  Out.R = Machine.runBatch(Exec, Req);
  return Out;
}

} // namespace dspec

#endif // DATASPEC_TESTS_BATCHTILE_H
