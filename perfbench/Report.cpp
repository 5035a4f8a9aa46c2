//===- perfbench/Report.cpp - Statistics and JSON output --------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "engine/ArenaLayout.h"
#include "net/NetServer.h"
#include "service/Service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace perfbench;

namespace {

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz).
double betaContinuedFraction(double A, double B, double X) {
  constexpr double Tiny = 1e-300;
  double C = 1.0, D = 1.0 - (A + B) * X / (A + 1.0);
  D = 1.0 / (std::fabs(D) < Tiny ? Tiny : D);
  double H = D;
  for (int M = 1; M <= 300; ++M) {
    double M2 = 2.0 * M;
    double Num = M * (B - M) * X / ((A + M2 - 1.0) * (A + M2));
    D = 1.0 + Num * D;
    C = 1.0 + Num / C;
    D = 1.0 / (std::fabs(D) < Tiny ? Tiny : D);
    C = std::fabs(C) < Tiny ? Tiny : C;
    H *= D * C;
    Num = -(A + M) * (A + B + M) * X / ((A + M2) * (A + M2 + 1.0));
    D = 1.0 + Num * D;
    C = 1.0 + Num / C;
    D = 1.0 / (std::fabs(D) < Tiny ? Tiny : D);
    C = std::fabs(C) < Tiny ? Tiny : C;
    double Step = D * C;
    H *= Step;
    if (std::fabs(Step - 1.0) < 1e-14)
      break;
  }
  return H;
}

/// Regularized incomplete beta I_X(A, B).
double incompleteBeta(double A, double B, double X) {
  if (X <= 0.0)
    return 0.0;
  if (X >= 1.0)
    return 1.0;
  double LogFront = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                    A * std::log(X) + B * std::log1p(-X);
  if (X < (A + 1.0) / (A + B + 2.0))
    return std::exp(LogFront) * betaContinuedFraction(A, B, X) / A;
  return 1.0 -
         std::exp(LogFront) * betaContinuedFraction(B, A, 1.0 - X) / B;
}

} // namespace

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double N = static_cast<double>(Values.size());
  const double A = Q * (N + 1.0), B = (1.0 - Q) * (N + 1.0);
  double Sum = 0.0, Previous = 0.0;
  for (size_t I = 0; I < Values.size(); ++I) {
    double Cumulative = incompleteBeta(A, B, static_cast<double>(I + 1) / N);
    Sum += (Cumulative - Previous) * Values[I];
    Previous = Cumulative;
  }
  return Sum;
}

std::string perfbench::jsonQuote(const std::string &Text) {
  std::string Out = "\"";
  for (char C : Text) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string perfbench::jsonStringList(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I < Items.size(); ++I)
    Out += (I ? "," : "") + jsonQuote(Items[I]);
  return Out + "]";
}

void JsonObject::key(const std::string &Key) {
  if (!Body.empty())
    Body += ",";
  Body += jsonQuote(Key) + ":";
}

void JsonObject::number(const std::string &Key, double Value) {
  key(Key);
  if (!std::isfinite(Value)) {
    Body += "null";
    return;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Body += Buf;
}

void JsonObject::integer(const std::string &Key, int64_t Value) {
  key(Key);
  Body += std::to_string(Value);
}

void JsonObject::boolean(const std::string &Key, bool Value) {
  key(Key);
  Body += Value ? "true" : "false";
}

void JsonObject::string(const std::string &Key, const std::string &Value) {
  key(Key);
  Body += jsonQuote(Value);
}

void JsonObject::raw(const std::string &Key, const std::string &Json) {
  key(Key);
  Body += Json;
}

bool perfbench::statszNumber(const std::string &Json, const char *Section,
                             const char *Key, double &Out) {
  size_t Start = Json.find("\"" + std::string(Section) + "\":{");
  if (Start == std::string::npos)
    return false;
  size_t End = Json.find('}', Start);
  std::string Needle = "\"" + std::string(Key) + "\":";
  size_t At = Json.find(Needle, Start);
  if (At == std::string::npos || At > End)
    return false;
  Out = std::strtod(Json.c_str() + At + Needle.size(), nullptr);
  return true;
}

std::string perfbench::provenanceJson() {
  dspec::ServiceConfig S;
  dspec::NetServerConfig N;
  JsonObject Server;
  Server.integer("render_threads", S.RenderThreads);
  Server.integer("tile_pixels", S.TilePixels);
  Server.integer("cache_units", S.CacheUnits);
  Server.integer("cache_shards", S.CacheShards);
  Server.integer("queue_capacity", S.QueueCapacity);
  Server.integer("max_batch", S.MaxBatch);
  Server.integer("dispatchers", S.Dispatchers);
  Server.string("exec_tier", dspec::execTierName(S.Tier));
  Server.string("arena_layout", dspec::arenaLayoutName(S.ArenaLayout.Layout));
  Server.integer("max_variant_pins", S.MaxVariantPins);
  Server.integer("llc_bytes_bound", static_cast<int64_t>(S.LlcBytes));
  Server.integer("spill_max_bytes", static_cast<int64_t>(S.SpillMaxBytes));
  Server.integer("io_threads", N.IoThreads);
  Server.integer("max_client_queue", N.MaxClientQueue);
  Server.number("quota_rps", N.QuotaRps);

  JsonObject Out;
#ifdef PERFBENCH_BUILD_TYPE
  Out.string("build_type", PERFBENCH_BUILD_TYPE);
#endif
  Out.integer("nproc", std::thread::hardware_concurrency());
  Out.integer("llc_bytes", static_cast<int64_t>(dspec::detectLlcBytes()));
  Out.raw("server_config", Server.str());
  return Out.str();
}

bool perfbench::writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream File(Path, std::ios::binary);
  File << Text;
  return static_cast<bool>(File);
}
