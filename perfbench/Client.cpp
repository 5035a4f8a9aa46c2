//===- perfbench/Client.cpp - End-to-end load generator ---------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One process, one thread, at most four connections to a `dspec serve`
// child that runs with its default ServiceConfig (only the socket path and,
// for studio, a spill directory are set). Closed loops use the repository's
// own client (connectUnixSocket + requestRender); studio's open loop drives
// four nonblocking sockets from one poll loop so sends keep their schedule
// while replies are outstanding.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Report.h"

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "service/Transport.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <poll.h>
#include <sstream>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace dspec;

namespace {

/// A studio run whose generator sent its p90 request later than this
/// after its due time measured the client, not the server: invalid.
constexpr double MaxGeneratorLagMs = 10.0;
/// Replies to studio requests still missing this long after the window
/// closed are counted as lost.
constexpr double DrainLimitSeconds = 10.0;
/// Verified replies kept per shader (reservoir sampled).
constexpr unsigned SamplesPerShaderLarge = 1; // 640x480: ~0.1-1.5 s each
constexpr unsigned SamplesPerShaderSmall = 3; // 160x120

//===----------------------------------------------------------------------===//
// The server process
//===----------------------------------------------------------------------===//

class ServerProcess {
public:
  ~ServerProcess() { stop(); }

  bool start(const std::string &Dspec, const std::string &Socket,
             const std::string &SpillDir, const std::string &LogPath,
             std::string &Error) {
    std::vector<std::string> Args = {Dspec, "serve", "--socket", Socket};
    if (!SpillDir.empty()) {
      Args.push_back("--spill-dir");
      Args.push_back(SpillDir);
    }
    Pid = ::fork();
    if (Pid < 0) {
      Error = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (Pid == 0) {
      // The server must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0) {
        ::dup2(Log, 1);
        ::dup2(Log, 2);
        ::close(Log);
      }
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    return true;
  }

  bool running() {
    if (Pid <= 0)
      return false;
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      return false;
    }
    return true;
  }

  /// SIGTERM (the server drains and exits 0), SIGKILL after 10 s. Waits
  /// for the process in either case.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    for (int I = 0; I < 1000; ++I) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

  /// User + system CPU seconds from /proc/<pid>/stat.
  double cpuSeconds() const {
    std::ifstream F("/proc/" + std::to_string(Pid) + "/stat");
    std::string Text((std::istreambuf_iterator<char>(F)),
                     std::istreambuf_iterator<char>());
    size_t Paren = Text.rfind(')');
    if (Paren == std::string::npos)
      return 0.0;
    std::istringstream Fields(Text.substr(Paren + 2));
    std::string Field;
    double Ticks = 0.0;
    // Fields after the command start at field 3 (state); utime and stime
    // are fields 14 and 15.
    for (int Index = 3; Index <= 15 && (Fields >> Field); ++Index)
      if (Index >= 14)
        Ticks += std::strtod(Field.c_str(), nullptr);
    return Ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// VmHWM from /proc/<pid>/status, in MiB.
  double peakRssMb() const {
    std::ifstream F("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(F, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
  }

private:
  pid_t Pid = -1;
};

//===----------------------------------------------------------------------===//
// Bookkeeping
//===----------------------------------------------------------------------===//

/// Every reply the current server sent, by outcome: what /statsz must
/// agree with at the end.
struct Tally {
  uint64_t Sent = 0, Ok = 0, Hit = 0, ShedQueueFull = 0, ShedDeadline = 0,
           ShedQuota = 0, Draining = 0, BadRequest = 0, SpecializeError = 0,
           RenderTrap = 0, Lost = 0;

  void count(const RenderReply &Reply) {
    switch (Reply.Status) {
    case RenderStatus::Ok:
      ++Ok;
      Hit += Reply.CacheHit;
      break;
    case RenderStatus::ShedQueueFull:
      ++ShedQueueFull;
      break;
    case RenderStatus::ShedDeadline:
      ++ShedDeadline;
      break;
    case RenderStatus::ShedQuota:
      ++ShedQuota;
      break;
    case RenderStatus::Draining:
      ++Draining;
      break;
    case RenderStatus::BadRequest:
      ++BadRequest;
      break;
    case RenderStatus::SpecializeError:
      ++SpecializeError;
      break;
    case RenderStatus::RenderTrap:
      ++RenderTrap;
      break;
    }
  }
};

bool isShed(RenderStatus S) {
  return S == RenderStatus::ShedQueueFull || S == RenderStatus::ShedDeadline ||
         S == RenderStatus::ShedQuota || S == RenderStatus::Draining;
}

/// The timed window, as the client saw it.
struct Window {
  double Seconds = 0.0;
  uint64_t Sent = 0;
  /// Replies of any status.
  uint64_t Replied = 0;
  /// Correct frames delivered within the limit.
  uint64_t Good = 0;
  uint64_t Late = 0;
  uint64_t Shed = 0;
  /// Error statuses (bad request, specialize error, trap) and lost
  /// replies: the program failed, not the load.
  uint64_t Errors = 0;
  std::vector<double> LatencyMs, ServiceMs, OutsideMs, LagMs;
  std::vector<unsigned> ShadersSeen;
};

/// A reply kept for bit-for-bit verification.
struct Sample {
  Planned Request;
  std::vector<float> Pixels;
};

/// Per-shader reservoir sample of delivered frames.
class Sampler {
public:
  Sampler(uint64_t Seed, unsigned PerShader)
      : Random(Seed ^ 0x5eed5a3b1e5ull), PerShader(PerShader) {}

  void offer(const Planned &P, const std::vector<float> &Pixels) {
    unsigned &Seen = SeenPerShader[P.Shader];
    std::vector<Sample> &Kept = KeptPerShader[P.Shader];
    ++Seen;
    if (Kept.size() < PerShader) {
      Kept.push_back({P, Pixels});
      return;
    }
    unsigned Slot = Random.below(Seen);
    if (Slot < PerShader)
      Kept[Slot] = {P, Pixels};
  }

  std::vector<Sample> take() {
    std::vector<Sample> Out;
    for (auto &[Shader, Kept] : KeptPerShader)
      for (Sample &S : Kept)
        Out.push_back(std::move(S));
    return Out;
  }

private:
  Rng Random;
  unsigned PerShader;
  std::map<unsigned, unsigned> SeenPerShader;
  std::map<unsigned, std::vector<Sample>> KeptPerShader;
};

//===----------------------------------------------------------------------===//
// Closed loop
//===----------------------------------------------------------------------===//

std::unique_ptr<Transport> connectWithRetry(const std::string &Socket,
                                            ServerProcess &Server,
                                            std::string &Error) {
  Clock::time_point Start = Clock::now();
  while (secondsBetween(Start, Clock::now()) < 30.0) {
    if (auto T = connectUnixSocket(Socket, &Error))
      return T;
    if (!Server.running()) {
      Error = "dspec serve exited before accepting connections";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return nullptr;
}

/// One closed-loop request: send, wait, decode the reply into a
/// framebuffer. \p LatencyMs covers all three.
std::optional<RenderReply> roundTrip(Transport &T, const Planned &P,
                                     double &LatencyMs) {
  Clock::time_point Start = Clock::now();
  std::string Error;
  std::optional<RenderReply> Reply = requestRender(T, P.Request, &Error);
  if (Reply && Reply->ok()) {
    Framebuffer Fb = Reply->toFramebuffer();
    (void)Fb;
  }
  LatencyMs = secondsBetween(Start, Clock::now()) * 1e3;
  return Reply;
}

void runClosedLoop(Transport &T, Stream &S, double Seconds, Tally &Counts,
                   Window &W, Sampler &Samples) {
  unsigned Cycle = S.cycleLength();
  Clock::time_point Start = Clock::now();
  Clock::time_point LastReply = Start;
  while (true) {
    double Elapsed = secondsBetween(Start, Clock::now());
    if (Elapsed >= Seconds && (Cycle == 0 || W.Sent % Cycle == 0))
      break;
    Planned P = S.next();
    // Closed loop: the request is due the moment the previous reply is
    // decoded; lag is the client's own time in between.
    W.LagMs.push_back(secondsBetween(LastReply, Clock::now()) * 1e3);
    double LatencyMs = 0.0;
    std::optional<RenderReply> Reply = roundTrip(T, P, LatencyMs);
    LastReply = Clock::now();
    ++W.Sent;
    ++Counts.Sent;
    W.ShadersSeen.push_back(P.Shader);
    if (!Reply) {
      ++Counts.Lost;
      ++W.Errors;
      break; // the connection is gone
    }
    ++W.Replied;
    Counts.count(*Reply);
    if (Reply->ok()) {
      ++W.Good;
      W.LatencyMs.push_back(LatencyMs);
      W.ServiceMs.push_back(static_cast<double>(Reply->ServiceMicros) / 1e3);
      W.OutsideMs.push_back(LatencyMs - W.ServiceMs.back());
      Samples.offer(P, Reply->Pixels);
    } else if (isShed(Reply->Status)) {
      ++W.Shed;
    } else {
      ++W.Errors;
    }
  }
  W.Seconds = secondsBetween(Start, LastReply);
}

//===----------------------------------------------------------------------===//
// Open loop
//===----------------------------------------------------------------------===//

int connectRaw(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

struct Conn {
  int Fd = -1;
  std::vector<unsigned char> Out;
  size_t OutPos = 0;
  std::vector<unsigned char> In;
  size_t InPos = 0;
  /// Indices of requests awaiting replies, in send order (the server
  /// answers each connection's requests in order).
  std::deque<size_t> InFlight;
  bool Broken = false;
};

/// Parses one complete reply frame at the front of \p C.In, if any.
/// Returns false when more bytes are needed; sets \p Bad on a malformed
/// frame.
bool takeFrame(Conn &C, std::vector<unsigned char> &Payload, bool &Bad) {
  constexpr size_t HeaderBytes = 16;
  size_t Avail = C.In.size() - C.InPos;
  if (Avail < HeaderBytes)
    return false;
  ByteReader H(C.In.data() + C.InPos, HeaderBytes);
  uint32_t Magic = H.readU32();
  uint8_t Type = H.readU8();
  H.readU8();
  H.readU8();
  H.readU8();
  uint32_t Length = H.readU32();
  uint32_t Crc = H.readU32();
  if (Magic != kFrameMagic ||
      Type != static_cast<uint8_t>(FrameType::RenderReply) ||
      Length > kMaxFramePayload) {
    Bad = true;
    return false;
  }
  if (Avail < HeaderBytes + Length)
    return false;
  const unsigned char *Body = C.In.data() + C.InPos + HeaderBytes;
  if (crc32(Body, Length) != Crc) {
    Bad = true;
    return false;
  }
  Payload.assign(Body, Body + Length);
  C.InPos += HeaderBytes + Length;
  if (C.InPos == C.In.size()) {
    C.In.clear();
    C.InPos = 0;
  }
  return true;
}

void runOpenLoop(const std::string &Socket, Stream &S, double Seconds,
                 Tally &Counts, Window &W, Sampler &Samples,
                 std::vector<std::string> &Problems) {
  const WorkloadShape &Shape = S.shape();
  std::vector<Conn> Conns(Shape.Connections);
  for (Conn &C : Conns)
    if ((C.Fd = connectRaw(Socket)) < 0) {
      Problems.push_back("open-loop connect failed");
      return;
    }

  std::vector<Planned> Requests;
  std::vector<bool> Answered;
  size_t Outstanding = 0;
  double LastReply = 0.0;
  Planned Next = S.next();
  bool HaveNext = Next.DueSeconds < Seconds;
  Clock::time_point Start = Clock::now();
  auto Now = [&] { return secondsBetween(Start, Clock::now()); };

  auto Send = [&](Planned P) {
    Conn &C = Conns[P.User % Conns.size()];
    ByteWriter Body;
    encodeRenderRequest(Body, P.Request);
    std::vector<unsigned char> Frame =
        encodeFrame(FrameType::RenderRequest, Body.bytes());
    C.Out.insert(C.Out.end(), Frame.begin(), Frame.end());
    C.InFlight.push_back(Requests.size());
    W.LagMs.push_back((Now() - P.DueSeconds) * 1e3);
    W.ShadersSeen.push_back(P.Shader);
    Requests.push_back(std::move(P));
    Answered.push_back(false);
    ++Outstanding;
    ++W.Sent;
    ++Counts.Sent;
  };

  auto Flush = [&](Conn &C) {
    while (C.OutPos < C.Out.size()) {
      ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos,
                         MSG_NOSIGNAL);
      if (N > 0) {
        C.OutPos += static_cast<size_t>(N);
      } else {
        if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          return;
        if (N < 0 && errno == EINTR)
          continue;
        C.Broken = true;
        return;
      }
    }
    C.Out.clear();
    C.OutPos = 0;
  };

  auto Receive = [&](Conn &C) {
    unsigned char Buf[1 << 16];
    while (true) {
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
      if (N > 0) {
        C.In.insert(C.In.end(), Buf, Buf + N);
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      if (N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
        C.Broken = true;
      break;
    }
    std::vector<unsigned char> Payload;
    bool Bad = false;
    while (!C.InFlight.empty() && takeFrame(C, Payload, Bad)) {
      size_t Index = C.InFlight.front();
      C.InFlight.pop_front();
      const Planned &P = Requests[Index];
      RenderReply Reply;
      ByteReader R(Payload);
      std::string Error;
      if (!decodeRenderReply(R, Reply, &Error)) {
        Bad = true;
        break;
      }
      if (Reply.ok()) {
        Framebuffer Fb = Reply.toFramebuffer();
        (void)Fb;
      }
      LastReply = Now();
      double LatencyMs = (LastReply - P.DueSeconds) * 1e3;
      Answered[Index] = true;
      --Outstanding;
      ++W.Replied;
      Counts.count(Reply);
      if (Reply.ok()) {
        W.LatencyMs.push_back(LatencyMs);
        W.ServiceMs.push_back(static_cast<double>(Reply.ServiceMicros) / 1e3);
        W.OutsideMs.push_back(LatencyMs - W.ServiceMs.back());
        if (LatencyMs <= Shape.DeadlineMillis) {
          ++W.Good;
          Samples.offer(P, Reply.Pixels);
        } else {
          ++W.Late;
        }
      } else if (isShed(Reply.Status)) {
        ++W.Shed;
      } else {
        ++W.Errors;
      }
    }
    if (Bad)
      C.Broken = true;
  };

  while (HaveNext || Outstanding > 0) {
    double T = Now();
    while (HaveNext && Next.DueSeconds <= T) {
      Send(std::move(Next));
      Next = S.next();
      HaveNext = Next.DueSeconds < Seconds;
    }
    for (Conn &C : Conns)
      if (!C.Out.empty())
        Flush(C);
    if (std::any_of(Conns.begin(), Conns.end(),
                    [](const Conn &C) { return C.Broken; })) {
      Problems.push_back("open-loop connection failed");
      break;
    }
    if (!HaveNext && T > Seconds + DrainLimitSeconds)
      break;
    double Wait = HaveNext ? std::max(0.0, Next.DueSeconds - Now())
                           : Seconds + DrainLimitSeconds - T;
    std::vector<pollfd> Fds;
    for (Conn &C : Conns)
      Fds.push_back({C.Fd,
                     static_cast<short>(POLLIN | (C.Out.empty() ? 0 : POLLOUT)),
                     0});
    timespec Timeout;
    Timeout.tv_sec = static_cast<time_t>(Wait);
    Timeout.tv_nsec = static_cast<long>((Wait - std::floor(Wait)) * 1e9);
    int Ready = ::ppoll(Fds.data(), Fds.size(), &Timeout, nullptr);
    if (Ready <= 0)
      continue;
    for (size_t I = 0; I < Conns.size(); ++I) {
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
        Receive(Conns[I]);
      if (Fds[I].revents & POLLOUT)
        Flush(Conns[I]);
    }
  }
  // Goodput is per second of the run: the schedule, or longer while the
  // last replies drained.
  W.Seconds = std::max(Seconds, LastReply);
  for (size_t I = 0; I < Answered.size(); ++I)
    if (!Answered[I]) {
      ++W.Errors;
      ++Counts.Lost;
    }
  for (Conn &C : Conns)
    ::close(C.Fd);
}

//===----------------------------------------------------------------------===//
// Verification and reconciliation
//===----------------------------------------------------------------------===//

/// Renders every sample with the *original* shader on the switch
/// interpreter and compares bits. Returns the number that matched.
unsigned verifySamples(const std::vector<Sample> &Samples,
                       std::vector<std::string> &Problems) {
  RenderEngine Engine(std::max(1u, std::thread::hardware_concurrency()));
  Engine.setExecTier(ExecTier::Switch);
  std::map<unsigned, Chunk> Originals;
  std::map<std::pair<unsigned, unsigned>, RenderGrid> Grids;
  unsigned Matched = 0;
  for (const Sample &S : Samples) {
    const ShaderInfo &Info = shaderGallery()[S.Request.Shader];
    auto It = Originals.find(S.Request.Shader);
    if (It == Originals.end()) {
      auto Unit = parseUnit(Info.Source);
      std::optional<Chunk> Plain;
      if (Unit->ok())
        Plain = compileFunction(*Unit, Info.Name);
      if (!Plain) {
        Problems.push_back("cannot compile original " + Info.Name);
        continue;
      }
      It = Originals.emplace(S.Request.Shader, std::move(*Plain)).first;
    }
    const RenderRequest &R = S.Request.Request;
    auto GridIt = Grids.find({R.Width, R.Height});
    if (GridIt == Grids.end())
      GridIt = Grids.emplace(std::make_pair(R.Width, R.Height),
                             RenderGrid(R.Width, R.Height))
                   .first;
    Framebuffer Fb(R.Width, R.Height);
    if (!Engine.plainPass(It->second, GridIt->second, R.Controls, &Fb)) {
      Problems.push_back("original " + Info.Name +
                         " trapped: " + Engine.lastTrap());
      continue;
    }
    std::vector<float> Want = RenderReply::fromFramebuffer(Fb).Pixels;
    if (Want.size() == S.Pixels.size() &&
        std::memcmp(Want.data(), S.Pixels.data(),
                    Want.size() * sizeof(float)) == 0)
      ++Matched;
    else
      Problems.push_back("reply for " + Info.Name +
                         " differs from the original shader");
  }
  return Matched;
}

/// Checks the client's tallies against /statsz; appends disagreements.
void reconcile(const Tally &T, const std::string &Statsz,
               std::vector<std::string> &Problems) {
  auto Expect = [&](const char *Section, const char *Key, uint64_t Want) {
    double Got = -1;
    if (!statszNumber(Statsz, Section, Key, Got) ||
        static_cast<uint64_t>(Got) != Want)
      Problems.push_back(std::string("statsz ") + Section + "." + Key + " = " +
                         std::to_string(static_cast<int64_t>(Got)) +
                         ", client counted " + std::to_string(Want));
  };
  Expect("requests", "total", T.Sent - T.Lost);
  Expect("requests", "ok", T.Ok);
  Expect("requests", "cache_hit", T.Hit);
  Expect("requests", "shed_queue_full", T.ShedQueueFull);
  Expect("requests", "shed_deadline", T.ShedDeadline);
  Expect("requests", "shed_quota", T.ShedQuota);
  Expect("requests", "rejected_draining", T.Draining);
  Expect("requests", "bad_request", T.BadRequest);
  Expect("requests", "specialize_error", T.SpecializeError);
  Expect("requests", "render_trap", T.RenderTrap);
  Expect("net", "quota_sheds", T.ShedQuota);

  // Disk hits: every unit-cache miss is either restored from disk (its
  // reply says hit) or built (its reply says miss), so the client's miss
  // count pins down the server's disk-hit count. A coalesced wait behind
  // another dispatcher's build also replies "miss".
  double Misses = 0, DiskHits = 0, Failures = 0, Coalesced = 0;
  statszNumber(Statsz, "unit_cache", "misses", Misses);
  statszNumber(Statsz, "unit_cache", "build_failures", Failures);
  statszNumber(Statsz, "unit_cache", "coalesced_waits", Coalesced);
  statszNumber(Statsz, "spill", "disk_hits", DiskHits);
  double Built = Misses - DiskHits - Failures;
  double ClientMisses = static_cast<double>(T.Ok - T.Hit);
  if (ClientMisses < Built || ClientMisses > Built + Coalesced)
    Problems.push_back(
        "client saw " + std::to_string(T.Ok - T.Hit) +
        " builds; statsz has " + std::to_string(int64_t(Misses)) +
        " misses, " + std::to_string(int64_t(DiskHits)) + " disk hits, " +
        std::to_string(int64_t(Coalesced)) + " coalesced waits");
}

double statszDelta(const std::string &Before, const std::string &After,
                   const char *Section, const char *Key) {
  double A = 0, B = 0;
  statszNumber(Before, Section, Key, A);
  statszNumber(After, Section, Key, B);
  return B - A;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

int perfbench::runEndToEnd(const RunOptions &Options) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  fs::create_directories(Options.RunDir, Ec);
  const std::string Socket = Options.RunDir + "/dspec.sock";
  const std::string Log = Options.RunDir + "/server.log";
  const WorkloadShape Shape = shapeOf(Options.Workload);
  std::vector<std::string> Problems;

  // Set-up, repeated: spawn the server, connect, warm up. The last one
  // serves the timed window.
  std::vector<double> SetupSeconds;
  ServerProcess Server;
  std::unique_ptr<Transport> Control;
  Tally Counts;
  unsigned Setups = std::max(1u, Options.Setups);
  for (unsigned Round = 0; Round < Setups; ++Round) {
    Server.stop();
    Control.reset();
    fs::remove(Socket, Ec);
    std::string SpillDir;
    if (Options.Workload == Kind::Studio) {
      SpillDir = Options.RunDir + "/spill";
      fs::remove_all(SpillDir, Ec);
    }
    Counts = Tally();
    Stream Warm(Options.Workload, Options.Seed);
    std::vector<Planned> Warmup = Warm.warmup();

    Clock::time_point Start = Clock::now();
    std::string Error;
    if (!Server.start(Options.DspecPath, Socket, SpillDir, Log, Error) ||
        !(Control = connectWithRetry(Socket, Server, Error))) {
      std::fprintf(stderr, "perfbench: cannot start dspec serve: %s\n",
                   Error.c_str());
      return 2;
    }
    for (const Planned &P : Warmup) {
      double LatencyMs = 0.0;
      std::optional<RenderReply> Reply = roundTrip(*Control, P, LatencyMs);
      ++Counts.Sent;
      if (!Reply || !Reply->ok()) {
        std::fprintf(stderr, "perfbench: warm-up request for %s failed: %s\n",
                     P.Request.Shader.c_str(),
                     Reply ? Reply->Error.c_str() : "connection lost");
        return 2;
      }
      Counts.count(*Reply);
    }
    SetupSeconds.push_back(secondsBetween(Start, Clock::now()));
  }

  std::string Error;
  std::optional<std::string> Before = requestStats(*Control, &Error);
  if (!Before) {
    std::fprintf(stderr, "perfbench: statsz failed: %s\n", Error.c_str());
    return 2;
  }
  double CpuBefore = Server.cpuSeconds();

  Stream Timed(Options.Workload, Options.Seed);
  Window W;
  Sampler Samples(Options.Seed, Shape.Width * Shape.Height > 100000
                                    ? SamplesPerShaderLarge
                                    : SamplesPerShaderSmall);
  if (Shape.OpenLoop)
    runOpenLoop(Socket, Timed, Options.Seconds, Counts, W, Samples, Problems);
  else
    runClosedLoop(*Control, Timed, Options.Seconds, Counts, W, Samples);

  double CpuSeconds = Server.cpuSeconds() - CpuBefore;
  double PeakRssMb = Server.peakRssMb();
  std::optional<std::string> After = requestStats(*Control, &Error);
  Control.reset();
  Server.stop();
  fs::remove(Socket, Ec);
  if (!After) {
    std::fprintf(stderr, "perfbench: statsz failed: %s\n", Error.c_str());
    return 2;
  }
  fs::remove_all(Options.RunDir + "/spill", Ec);

  reconcile(Counts, *After, Problems);

  // Outside the timed window: check the sampled replies.
  std::vector<Sample> Kept = Samples.take();
  std::vector<unsigned> Shaders = W.ShadersSeen;
  std::sort(Shaders.begin(), Shaders.end());
  Shaders.erase(std::unique(Shaders.begin(), Shaders.end()), Shaders.end());
  std::vector<unsigned> Covered;
  for (const Sample &S : Kept)
    Covered.push_back(S.Request.Shader);
  std::sort(Covered.begin(), Covered.end());
  Covered.erase(std::unique(Covered.begin(), Covered.end()), Covered.end());
  if (Covered.size() != Shaders.size())
    Problems.push_back("only " + std::to_string(Covered.size()) + " of " +
                       std::to_string(Shaders.size()) +
                       " shaders had a verifiable reply");
  unsigned Verified = verifySamples(Kept, Problems);
  uint64_t Mismatched = Kept.size() - Verified;

  double LagP90 = quantile(W.LagMs, 0.9);
  if (Shape.OpenLoop && LagP90 > MaxGeneratorLagMs)
    Problems.push_back("generator fell behind: p90 lag " +
                       std::to_string(LagP90) + " ms");
  if (W.Errors)
    Problems.push_back(std::to_string(W.Errors) +
                       " requests failed with an error or were lost");

  uint64_t Good = W.Good - std::min<uint64_t>(W.Good, Mismatched);
  uint64_t FailedRequests = W.Sent - Good;

  JsonObject Metrics;
  Metrics.number("setup_s", quantile(SetupSeconds, 0.5));
  Metrics.number("latency_ms_p50", quantile(W.LatencyMs, 0.5));
  Metrics.number("latency_ms_p90", quantile(W.LatencyMs, 0.9));
  Metrics.number("throughput_rps", ratio(double(Good), W.Seconds));
  // Laplace's rule of succession, (failed + 1) / (sent + 2): the expected
  // failure probability after the run, never exactly 0 or 1.
  Metrics.number("failed_frac",
                 (double(FailedRequests) + 1.0) / (double(W.Sent) + 2.0));
  Metrics.number("cpu_ms_per_req", ratio(CpuSeconds * 1e3, double(W.Replied)));
  Metrics.number("peak_rss_mb", PeakRssMb);

  Metrics.number("service.service_ms_p50", quantile(W.ServiceMs, 0.5));
  Metrics.number("service.service_ms_p90", quantile(W.ServiceMs, 0.9));
  Metrics.number("net.outside_ms_p50", quantile(W.OutsideMs, 0.5));
  double Hits = statszDelta(*Before, *After, "unit_cache", "hits");
  double Misses = statszDelta(*Before, *After, "unit_cache", "misses");
  Metrics.number("unit_cache.hit_frac", ratio(Hits, Hits + Misses));
  Metrics.number("unit_cache.evictions",
                 statszDelta(*Before, *After, "unit_cache", "evictions"));
  Metrics.number("unit_cache.coalesced_waits",
                 statszDelta(*Before, *After, "unit_cache", "coalesced_waits"));
  Metrics.number("spill.disk_hit_frac",
                 ratio(statszDelta(*Before, *After, "spill", "disk_hits"),
                       Misses));
  Metrics.number("service.shed_frac", ratio(double(W.Shed), double(W.Sent)));
  Metrics.number("service.late_frac", ratio(double(W.Late), double(W.Sent)));
  Metrics.number("bench.gen_lag_ms_p90", LagP90);
  Metrics.number("bench.verified_frames", Verified);

  JsonObject Counters;
  Counters.integer("sent", int64_t(W.Sent));
  Counters.integer("replied", int64_t(W.Replied));
  Counters.integer("good", int64_t(Good));
  Counters.integer("late", int64_t(W.Late));
  Counters.integer("shed", int64_t(W.Shed));
  Counters.integer("errors", int64_t(W.Errors));
  Counters.integer("mismatched", int64_t(Mismatched));
  Counters.integer("latency_samples", int64_t(W.LatencyMs.size()));
  Counters.number("window_s", W.Seconds);
  Counters.number("server_cpu_s", CpuSeconds);

  std::string SetupList = "[";
  for (size_t I = 0; I < SetupSeconds.size(); ++I)
    SetupList += (I ? "," : "") + std::to_string(SetupSeconds[I]);
  SetupList += "]";

  JsonObject Out;
  Out.boolean("correct", Problems.empty());
  Out.integer("attempted", int64_t(W.Sent));
  Out.integer("failed", int64_t(W.Errors + Mismatched));
  Out.raw("metrics", Metrics.str());
  Out.raw("counts", Counters.str());
  Out.raw("setup_runs_s", SetupList);
  Out.raw("problems", jsonStringList(Problems));
  Out.raw("provenance", provenanceJson());
  Out.raw("statsz", *After);
  if (!writeFile(Options.OutPath, Out.str() + "\n")) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 Options.OutPath.c_str());
    return 2;
  }
  return 0;
}
