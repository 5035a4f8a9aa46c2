//===- perfbench/Main.cpp - perfbench command line --------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
//   perfbench e2e    --workload W --seed N --seconds S --run-dir D --out F
//                    --dspec PATH [--setups K]
//   perfbench replay --workload W --seed N --seconds S --run-dir D --out F
//                    [--latency-p50-ms X]
//
// run.py drives both; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench e2e|replay [options]\n");
    return 1;
  }
  std::string Mode = Argv[1];
  RunOptions Options;
  for (int I = 2; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", Arg);
      return 1;
    }
    const char *Value = Argv[++I];
    if (std::strcmp(Arg, "--workload") == 0) {
      if (!parseKind(Value, Options.Workload)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", Value);
        return 1;
      }
    } else if (std::strcmp(Arg, "--seed") == 0) {
      Options.Seed = std::strtoull(Value, nullptr, 10);
    } else if (std::strcmp(Arg, "--seconds") == 0) {
      Options.Seconds = std::strtod(Value, nullptr);
    } else if (std::strcmp(Arg, "--run-dir") == 0) {
      Options.RunDir = Value;
    } else if (std::strcmp(Arg, "--out") == 0) {
      Options.OutPath = Value;
    } else if (std::strcmp(Arg, "--dspec") == 0) {
      Options.DspecPath = Value;
    } else if (std::strcmp(Arg, "--setups") == 0) {
      Options.Setups = static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
    } else if (std::strcmp(Arg, "--latency-p50-ms") == 0) {
      Options.LatencyP50Ms = std::strtod(Value, nullptr);
    } else {
      std::fprintf(stderr, "perfbench: unknown option '%s'\n", Arg);
      return 1;
    }
  }
  if (Options.RunDir.empty() || Options.OutPath.empty() ||
      Options.Seconds <= 0) {
    std::fprintf(stderr, "perfbench: --run-dir, --out and a positive "
                         "--seconds are required\n");
    return 1;
  }
  if (Mode == "e2e") {
    if (Options.DspecPath.empty()) {
      std::fprintf(stderr, "perfbench: e2e needs --dspec\n");
      return 1;
    }
    return runEndToEnd(Options);
  }
  if (Mode == "replay")
    return runReplay(Options);
  std::fprintf(stderr, "perfbench: unknown mode '%s'\n", Mode.c_str());
  return 1;
}
