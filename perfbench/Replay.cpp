//===- perfbench/Replay.cpp - Traced in-process replay ----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Replays a workload's seeded request stream in process, along the path a
// request takes through `dspec serve` — UnitCache lookup, on a miss a
// SpillStore probe or a build (parse, split, bytecode compile, loader
// pass), then the reader pass, reply encode and client decode — calling
// each module's public function under a span. The server's default
// ServiceConfig sizes the engine and cache. Spans live in memory, one id
// per request and a parent per span, and are written out when the run
// ends. Tracing inside the program is not part of this file.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Report.h"

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "service/Service.h"
#include "service/SpillStore.h"
#include "service/UnitCache.h"
#include "specialize/DataSpecializer.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"
#include "vm/BytecodeCompiler.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

using namespace perfbench;
using namespace dspec;

namespace {

constexpr unsigned NoShader = ~0u;

struct Span {
  uint32_t Id;
  uint32_t Parent; // 0 = none
  uint32_t Request;
  const char *Name;
  unsigned Shader;
  double Start;
  double End;
};

/// In-memory span recorder. Spans nest by scope; the innermost open span
/// is the parent of the next one.
class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  void beginRequest(uint32_t Id) { Request = Id; }

  uint32_t open(const char *Name, unsigned Shader) {
    if (!Enabled)
      return 0;
    uint32_t Id = static_cast<uint32_t>(Spans.size()) + 1;
    Spans.push_back({Id, Open.empty() ? 0 : Open.back(), Request, Name, Shader,
                     now(), 0.0});
    Open.push_back(Id);
    return Id;
  }

  void close(uint32_t Id) {
    if (Id == 0)
      return;
    Spans[Id - 1].End = now();
    Open.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  double now() const { return secondsBetween(Origin, Clock::now()); }

  Clock::time_point Origin;
  bool Enabled = true;
  uint32_t Request = 0;
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

class Scope {
public:
  Scope(Tracer &T, const char *Name, unsigned Shader = NoShader)
      : T(T), Id(T.open(Name, Shader)) {}
  ~Scope() { T.close(Id); }

private:
  Tracer &T;
  uint32_t Id;
};

/// Seconds one open/close pair costs, measured on a throwaway tracer.
double spanCostSeconds() {
  constexpr unsigned Pairs = 200000;
  Tracer Calibration;
  Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I < Pairs; ++I) {
    Scope S(Calibration, "calibrate");
  }
  return secondsBetween(Start, Clock::now()) / Pairs;
}

/// The service path, in process.
class ReplayService {
public:
  ReplayService(Tracer &T, const std::string &SpillDir)
      : T(T), Cache(Config.CacheUnits, std::max(1u, Config.CacheShards)),
        Engine(Config.RenderThreads, Config.TilePixels) {
    Engine.setExecTier(Config.Tier);
    Engine.setArenaLayout(Config.ArenaLayout);
    if (!SpillDir.empty()) {
      Spill = std::make_unique<SpillStore>();
      std::string Error;
      if (!Spill->open(SpillDir, Config.SpillMaxBytes, &Error)) {
        std::fprintf(stderr, "perfbench: spill dir: %s\n", Error.c_str());
        Spill.reset();
      }
    }
    if (Spill)
      Cache.setEvictionSink([this](const UnitKey &Key, const UnitPtr &Unit) {
        Scope S(this->T, "spill.store", shaderIndex(Key.Shader));
        Spill->store(Key, Unit);
      });
  }

  /// Serves one request; false (with \p Error) when any stage failed.
  bool serve(const Planned &P, std::string &Error) {
    const RenderRequest &R = P.Request;
    UnitKey Key = keyFor(R);
    UnitPtr Unit;
    bool WasHit = false;
    {
      Scope S(T, "unit_cache.get_or_build", P.Shader);
      Unit = Cache.getOrBuild(
          Key,
          [&](std::string &BuildError) -> UnitPtr {
            if (Spill) {
              Scope L(T, "spill.load", P.Shader);
              if (auto Restored = Spill->load(Key, nullptr))
                return Restored;
            }
            return build(P, BuildError);
          },
          &WasHit, &Error);
    }
    if (!Unit)
      return false;
    if (!FirstUnit && R.Width * R.Height > 100000)
      FirstUnit = Unit;

    Framebuffer Fb(R.Width, R.Height);
    {
      Scope S(T, "engine.reader", P.Shader);
      if (!Engine.readerPass(Unit->Reader, Unit->Grid, R.Controls, Unit->Arena,
                             &Fb)) {
        Error = "reader trapped: " + Engine.lastTrap();
        return false;
      }
    }
    // Pass statistics count the requests the trace covers.
    if (T.enabled()) {
      const RenderEngine::PassExecStats &Stats = Engine.lastPassStats();
      DispatchLanes += Stats.BatchDispatchLanes;
      ActiveLanes += Stats.BatchActiveLanes;
      BatchTiles += Stats.BatchTiles;
      BailedTiles += Stats.BailedTiles;
      ArenaBytesPerPx.push_back(Unit->Layout.totalBytes());
    }

    std::vector<unsigned char> Frame;
    {
      Scope S(T, "protocol.encode", P.Shader);
      RenderReply Reply = RenderReply::fromFramebuffer(Fb);
      Reply.CacheHit = WasHit;
      ByteWriter W;
      encodeRenderReply(W, Reply);
      Frame = encodeFrame(FrameType::RenderReply, W.bytes());
    }
    if (T.enabled())
      ReplyBytes.push_back(static_cast<double>(Frame.size()));
    {
      Scope S(T, "protocol.decode", P.Shader);
      constexpr size_t HeaderBytes = 16;
      ByteReader H(Frame.data(), HeaderBytes);
      H.readU32();
      H.readU32();
      uint32_t Length = H.readU32();
      uint32_t Crc = H.readU32();
      const unsigned char *Body = Frame.data() + HeaderBytes;
      RenderReply Decoded;
      ByteReader Payload(Body, Length);
      if (crc32(Body, Length) != Crc ||
          !decodeRenderReply(Payload, Decoded, &Error))
        return false;
      Framebuffer Out = Decoded.toFramebuffer();
      (void)Out;
    }
    return true;
  }

  /// One store and one load of a replayed full-size unit, for workloads
  /// whose server runs without a spill directory.
  bool probeSpill(const std::string &Dir) {
    if (!FirstUnit)
      return false;
    SpillStore Probe;
    std::string Error;
    if (!Probe.open(Dir, 0, &Error))
      return false;
    UnitKey Key;
    Key.Shader = FirstUnit->Shader;
    Key.InvariantHash = 1;
    unsigned Shader = shaderIndex(Key.Shader);
    {
      Scope S(T, "spill.store", Shader);
      Probe.store(Key, FirstUnit);
    }
    Scope S(T, "spill.load", Shader);
    return Probe.load(Key, &Error) != nullptr;
  }

  double activeLaneFrac() const {
    return DispatchLanes ? double(ActiveLanes) / double(DispatchLanes) : 1.0;
  }
  double bailedTileFrac() const {
    uint64_t Tiles = BatchTiles + BailedTiles;
    return Tiles ? double(BailedTiles) / double(Tiles) : 0.0;
  }
  double arenaBytesPerPx() const {
    double Sum = 0;
    for (double B : ArenaBytesPerPx)
      Sum += B;
    return ArenaBytesPerPx.empty() ? 0.0 : Sum / ArenaBytesPerPx.size();
  }
  double replyBytes() const { return quantile(ReplyBytes, 0.5); }
  bool spilling() const { return Spill != nullptr; }

private:
  static unsigned shaderIndex(const std::string &Name) {
    const auto &Gallery = shaderGallery();
    for (unsigned I = 0; I < Gallery.size(); ++I)
      if (Gallery[I].Name == Name)
        return I;
    return NoShader;
  }

  SpecializerOptions optionsFor(const RenderRequest &R) const {
    SpecializerOptions O = R.toOptions();
    if (Config.LlcBytes != 0) {
      O.LlcByteBound = Config.LlcBytes;
      O.ArenaPixels = R.Width * R.Height;
    }
    return O;
  }

  /// The cache key: everything invariant across a drag (grid, varying
  /// set, fixed control values) plus the options fingerprint.
  UnitKey keyFor(const RenderRequest &R) const {
    const ShaderInfo *Info = findShader(R.Shader);
    ByteWriter W;
    W.writeU32(R.Width);
    W.writeU32(R.Height);
    for (const std::string &Name : R.Varying)
      W.writeString(Name);
    for (size_t I = 0; I < R.Controls.size(); ++I)
      if (std::find(R.Varying.begin(), R.Varying.end(),
                    Info->Controls[I].Name) == R.Varying.end()) {
        W.writeU32(static_cast<uint32_t>(I));
        W.writeF32(R.Controls[I]);
      }
    UnitKey Key;
    Key.Shader = R.Shader;
    Key.InvariantHash = fnv1a64(W.bytes().data(), W.size());
    Key.OptionsFingerprint = optionsFingerprint(optionsFor(R));
    return Key;
  }

  UnitPtr build(const Planned &P, std::string &Error) {
    const RenderRequest &R = P.Request;
    const ShaderInfo &Info = shaderGallery()[P.Shader];
    std::unique_ptr<CompilationUnit> Source;
    {
      Scope S(T, "lang.parse", P.Shader);
      Source = parseUnit(Info.Source);
    }
    Function *F = Source->ok() ? Source->Prog->findFunction(Info.Name) : nullptr;
    if (!F) {
      Error = Source->Diags.str();
      return nullptr;
    }
    std::vector<std::string> Varying = R.Varying;
    std::sort(Varying.begin(), Varying.end());
    std::optional<SpecializationResult> Spec;
    {
      Scope S(T, "specialize.split", P.Shader);
      DataSpecializer Specializer(Source->Ctx, Source->Diags);
      Spec = Specializer.specialize(F, Varying, optionsFor(R));
    }
    if (!Spec) {
      Error = Source->Diags.str();
      return nullptr;
    }
    auto Built = std::make_shared<SpecializationUnit>(R.Width, R.Height);
    {
      Scope S(T, "vm.compile", P.Shader);
      Built->Loader = BytecodeCompiler().compile(Spec->Loader);
      Built->Reader = BytecodeCompiler().compile(Spec->Reader);
    }
    Built->Layout = Spec->Layout;
    for (Chunk *C : {&Built->Loader, &Built->Reader}) {
      C->CacheSlotCount = Built->Layout.slotCount();
      C->CacheBytes = Built->Layout.totalBytes();
    }
    Built->Shader = R.Shader;
    Built->Options = optionsFor(R);
    Built->Varying = Varying;
    Built->LoadControls = R.Controls;
    {
      Scope S(T, "engine.loader", P.Shader);
      if (!Engine.loaderPass(Built->Loader, Built->Layout, Built->Grid,
                             Built->LoadControls, Built->Arena)) {
        Error = "loader trapped: " + Engine.lastTrap();
        return nullptr;
      }
    }
    return Built;
  }

  Tracer &T;
  ServiceConfig Config;
  UnitCache Cache;
  RenderEngine Engine;
  std::unique_ptr<SpillStore> Spill;
  UnitPtr FirstUnit;

  uint64_t DispatchLanes = 0, ActiveLanes = 0, BatchTiles = 0, BailedTiles = 0;
  std::vector<double> ArenaBytesPerPx, ReplyBytes;
};

/// Per-span self time: duration minus the time its children cover.
std::vector<double> selfTimes(const std::vector<Span> &Spans) {
  std::vector<double> Self;
  for (const Span &S : Spans)
    Self.push_back(S.End - S.Start);
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Self[S.Parent - 1] -= S.End - S.Start;
  return Self;
}

std::string traceEventsJson(const std::vector<Span> &Spans,
                            const std::string &Provenance) {
  std::string Out = "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
        "\"request\":%u,\"shader\":\"%s\"}}",
        I ? "," : "", S.Name, S.Request, S.Start * 1e6,
        (S.End - S.Start) * 1e6, S.Id, S.Parent, S.Request,
        S.Shader == NoShader ? "" : shaderGallery()[S.Shader].Name.c_str());
    Out += Buf;
  }
  return Out + "],\"metadata\":" + Provenance + "}\n";
}

} // namespace

int perfbench::runReplay(const RunOptions &Options) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(Options.RunDir, Ec);
  const std::string SpillDir = Options.RunDir + "/replay-spill";
  const std::string ProbeDir = Options.RunDir + "/replay-probe";
  fs::remove_all(SpillDir, Ec);
  fs::remove_all(ProbeDir, Ec);

  const auto &Gallery = shaderGallery();
  Stream S(Options.Workload, Options.Seed);
  const WorkloadShape Shape = S.shape();

  // The stream to replay: warm-up, then the timed stream — drag one full
  // cycle, explore until every shader appeared, studio every arrival of
  // the window.
  std::vector<Planned> Requests = S.warmup();
  size_t FirstTimed = Requests.size();
  std::set<unsigned> Seen;
  while (true) {
    if (Options.Workload == Kind::Drag &&
        Requests.size() - FirstTimed >= S.cycleLength())
      break;
    if (Options.Workload == Kind::Explore && Seen.size() == Gallery.size() &&
        Requests.size() - FirstTimed >= Gallery.size())
      break;
    Planned P = S.next();
    if (Options.Workload == Kind::Studio && P.DueSeconds >= Options.Seconds)
      break;
    Seen.insert(P.Shader);
    Requests.push_back(std::move(P));
  }

  Tracer T;
  std::vector<std::string> Problems;
  Clock::time_point Start = Clock::now();
  {
    ReplayService Service(T, Options.Workload == Kind::Studio ? SpillDir : "");
    for (size_t I = 0; I < Requests.size(); ++I) {
      const Planned &P = Requests[I];
      // Only requests at the workload's size are traced (explore's set-up
      // fills the cache with small units first).
      T.setEnabled(P.Request.Width == Shape.Width &&
                   P.Request.Height == Shape.Height);
      T.beginRequest(static_cast<uint32_t>(I + 1));
      Scope Root(T, "request", P.Shader);
      std::string Error;
      if (!Service.serve(P, Error))
        Problems.push_back("replayed " + P.Request.Shader + ": " + Error);
    }
    T.setEnabled(true);
    bool HaveSpillSpans = std::any_of(
        T.spans().begin(), T.spans().end(),
        [](const Span &Sp) { return std::string(Sp.Name) == "spill.load"; });
    if (!HaveSpillSpans) {
      T.beginRequest(static_cast<uint32_t>(Requests.size() + 1));
      Scope Root(T, "spill-probe");
      if (!Service.probeSpill(ProbeDir))
        Problems.push_back("spill probe failed");
    }

    double ReplaySeconds = secondsBetween(Start, Clock::now());
    const std::vector<Span> &Spans = T.spans();
    std::vector<double> Self = selfTimes(Spans);

    // Per-name and per-(name, shader) samples, in milliseconds.
    std::map<std::string, std::vector<double>> ByName;
    std::map<std::pair<std::string, unsigned>, std::vector<double>> ByShader;
    std::map<uint32_t, double> LayerSelfPerRequest;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &Sp = Spans[I];
      double Ms = (Sp.End - Sp.Start) * 1e3;
      ByName[Sp.Name].push_back(Ms);
      ByShader[{Sp.Name, Sp.Shader}].push_back(Ms);
      if (Sp.Parent != 0 && Sp.Request > FirstTimed &&
          Sp.Request <= Requests.size())
        LayerSelfPerRequest[Sp.Request] += Self[I] * 1e3;
    }

    JsonObject Metrics;
    for (unsigned Sh = 0; Sh < Gallery.size(); ++Sh) {
      const std::string &Name = Gallery[Sh].Name;
      auto Reader = ByShader.find({"engine.reader", Sh});
      auto Loader = ByShader.find({"engine.loader", Sh});
      if (Reader == ByShader.end() || Loader == ByShader.end())
        Problems.push_back("no traced reader or loader pass for " + Name);
      Metrics.number("engine.reader_ms." + Name,
                     Reader == ByShader.end() ? 0.0
                                              : quantile(Reader->second, 0.5));
      Metrics.number("engine.loader_ms." + Name,
                     Loader == ByShader.end() ? 0.0
                                              : quantile(Loader->second, 0.5));
    }
    Metrics.number("engine.active_lane_frac", Service.activeLaneFrac());
    Metrics.number("engine.bailed_tile_frac", Service.bailedTileFrac());
    Metrics.number("engine.arena_bytes_per_px", Service.arenaBytesPerPx());
    for (const char *Name :
         {"lang.parse", "specialize.split", "vm.compile", "protocol.encode",
          "protocol.decode", "spill.load", "spill.store"})
      Metrics.number(std::string(Name) + "_ms", quantile(ByName[Name], 0.5));
    Metrics.number("protocol.reply_bytes", Service.replyBytes());

    std::vector<double> Covered;
    for (auto &[Request, Ms] : LayerSelfPerRequest)
      Covered.push_back(Ms);
    Metrics.number("bench.trace_coverage",
                   Options.LatencyP50Ms > 0
                       ? quantile(Covered, 0.5) / Options.LatencyP50Ms
                       : 0.0);
    Metrics.number("bench.trace_overhead_frac",
                   spanCostSeconds() * double(Spans.size()) / ReplaySeconds);

    JsonObject Out;
    Out.boolean("correct", Problems.empty());
    Out.integer("attempted", int64_t(Requests.size()));
    Out.integer("failed", int64_t(Problems.size()));
    Out.raw("metrics", Metrics.str());
    Out.integer("spans", int64_t(Spans.size()));
    Out.number("replay_s", ReplaySeconds);
    Out.boolean("spill_from_evictions", HaveSpillSpans);
    Out.raw("problems", jsonStringList(Problems));
    std::string Provenance = provenanceJson();
    Out.raw("provenance", Provenance);

    std::string TracePath = Options.RunDir + "/trace-" +
                            kindName(Options.Workload) + "-" +
                            std::to_string(Options.Seed) + ".json";
    if (!writeFile(TracePath, traceEventsJson(Spans, Provenance)) ||
        !writeFile(Options.OutPath, Out.str() + "\n")) {
      std::fprintf(stderr, "perfbench: cannot write results\n");
      return 2;
    }
  }
  fs::remove_all(SpillDir, Ec);
  fs::remove_all(ProbeDir, Ec);
  return 0;
}
