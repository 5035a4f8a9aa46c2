//===- perfbench/Report.h - Statistics and JSON output ----------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the end-to-end client and the traced replay:
/// quantiles, a flat JSON writer, a lookup into /statsz JSON, and the
/// provenance every output records.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Quantile \p Q in (0, 1) by the Harrell-Davis estimator: a
/// Beta-weighted average of all order statistics. Where a sample clusters
/// by shader, it does not jump from one cluster to the next as a plain
/// order statistic does. 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);

/// A JSON object built field by field.
class JsonObject {
public:
  void number(const std::string &Key, double Value);
  void integer(const std::string &Key, int64_t Value);
  void boolean(const std::string &Key, bool Value);
  void string(const std::string &Key, const std::string &Value);
  /// \p Json must already be valid JSON.
  void raw(const std::string &Key, const std::string &Json);
  std::string str() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};

/// JSON string literal for \p Text.
std::string jsonQuote(const std::string &Text);

/// JSON array of string literals.
std::string jsonStringList(const std::vector<std::string> &Items);

/// The number at "\p Key" inside the object "\p Section" of a /statsz
/// document (whose sections are flat objects). Nullopt-like: returns
/// false when absent.
bool statszNumber(const std::string &Json, const char *Section,
                  const char *Key, double &Out);

/// Where and how a run was made: build type, nproc, detected LLC and the
/// server configuration `dspec serve` runs with by default.
std::string provenanceJson();

/// Writes \p Text to \p Path. False on failure.
bool writeFile(const std::string &Path, const std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
