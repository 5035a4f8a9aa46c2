//===- tests/TestService.cpp - Specialization service tests -----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the specialization service: the framed protocol
/// (its corruption checks over the in-process loopback transport), the
/// bit-identity of frames served through the event-loop front end on a
/// loopback socket against the unspecialized plain pass (the paper's
/// equivalence guarantee, through the whole server), load shedding, and
/// graceful drain.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "engine/RenderEngine.h"
#include "net/NetServer.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "service/Transport.h"
#include "shading/ShaderGallery.h"
#include "shading/ShaderLab.h"
#include "support/ByteStream.h"
#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

using namespace dspec;

namespace {

/// Renders \p Info with the unspecialized original — the ground truth a
/// service reply must match bit-for-bit.
Framebuffer plainReference(const ShaderInfo &Info, unsigned Width,
                           unsigned Height,
                           const std::vector<float> &Controls) {
  auto Unit = parseUnit(Info.Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Plain = compileFunction(*Unit, Info.Name);
  EXPECT_TRUE(Plain.has_value()) << Unit->Diags.str();
  RenderGrid Grid(Width, Height);
  RenderEngine Engine(1);
  Framebuffer Out(Width, Height);
  EXPECT_TRUE(Engine.plainPass(*Plain, Grid, Controls, &Out))
      << Engine.lastTrap();
  return Out;
}

::testing::AssertionResult bitIdentical(const Framebuffer &A,
                                        const Framebuffer &B) {
  if (A.width() != B.width() || A.height() != B.height())
    return ::testing::AssertionFailure() << "dimension mismatch";
  for (unsigned Y = 0; Y < A.height(); ++Y)
    for (unsigned X = 0; X < A.width(); ++X)
      if (std::memcmp(A.at(X, Y).F, B.at(X, Y).F, sizeof(A.at(X, Y).F)) != 0)
        return ::testing::AssertionFailure()
               << "pixel (" << X << "," << Y << ") differs";
  return ::testing::AssertionSuccess();
}

//===----------------------------------------------------------------------===//
// Protocol serde and framing
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, RenderRequestRoundTrips) {
  RenderRequest In;
  In.Shader = "wood";
  In.Width = 17;
  In.Height = 9;
  In.Varying = {"grain", "ringscale"};
  In.Controls = {1.0f, 2.5f, -3.25f};
  In.DeadlineMillis = 250;
  In.JoinNormalize = false;
  In.Reassociate = true;
  In.Speculation = true;
  In.CacheByteLimit = 24;

  ByteWriter W;
  encodeRenderRequest(W, In);
  ByteReader R(W.bytes());
  RenderRequest Out;
  std::string Error;
  ASSERT_TRUE(decodeRenderRequest(R, Out, &Error)) << Error;
  EXPECT_EQ(Out.Shader, In.Shader);
  EXPECT_EQ(Out.Width, In.Width);
  EXPECT_EQ(Out.Height, In.Height);
  EXPECT_EQ(Out.Varying, In.Varying);
  ASSERT_EQ(Out.Controls.size(), In.Controls.size());
  for (size_t I = 0; I < In.Controls.size(); ++I)
    EXPECT_EQ(std::memcmp(&Out.Controls[I], &In.Controls[I], 4), 0);
  EXPECT_EQ(Out.DeadlineMillis, In.DeadlineMillis);
  EXPECT_EQ(Out.JoinNormalize, In.JoinNormalize);
  EXPECT_EQ(Out.Reassociate, In.Reassociate);
  EXPECT_EQ(Out.Speculation, In.Speculation);
  EXPECT_EQ(Out.CacheByteLimit, In.CacheByteLimit);
}

float floatFromBits(uint32_t Bits) {
  float V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

TEST(ServiceProtocol, RenderReplyRoundTripsBitExactPixels) {
  RenderReply In;
  In.Status = RenderStatus::Ok;
  In.Width = 3;
  In.Height = 2;
  // Bit patterns the bulk float copy must carry verbatim: NaNs with
  // payloads (quiet, signaling, negative), signed zero, denormals at both
  // ends of the range, infinities, and ordinary values.
  In.Pixels = {0.1f,
               -0.0f,
               1e-38f,
               3.0f,
               0.25f,
               1234.5f,
               floatFromBits(0x7FC00001u),
               floatFromBits(0x7F800001u),
               floatFromBits(0xFFC0BEEFu),
               floatFromBits(0x00000001u),
               floatFromBits(0x807FFFFFu),
               floatFromBits(0x80000001u),
               floatFromBits(0x7F800000u),
               floatFromBits(0xFF800000u),
               0.0f,
               -1.0f,
               floatFromBits(0x7FFFFFFFu),
               floatFromBits(0x00400000u)};
  In.CacheHit = true;
  In.ServiceMicros = 98765;

  ByteWriter W;
  encodeRenderReply(W, In);
  ByteReader R(W.bytes());
  RenderReply Out;
  std::string Error;
  ASSERT_TRUE(decodeRenderReply(R, Out, &Error)) << Error;
  EXPECT_TRUE(R.atEnd());
  EXPECT_EQ(Out.Status, In.Status);
  EXPECT_EQ(Out.Width, In.Width);
  EXPECT_EQ(Out.Height, In.Height);
  ASSERT_EQ(Out.Pixels.size(), In.Pixels.size());
  EXPECT_EQ(std::memcmp(Out.Pixels.data(), In.Pixels.data(),
                        In.Pixels.size() * sizeof(float)),
            0);
  EXPECT_EQ(Out.CacheHit, In.CacheHit);
  EXPECT_EQ(Out.ServiceMicros, In.ServiceMicros);

  // The wire bytes are each float's little-endian IEEE-754 pattern, the
  // same bytes per-float writeF32 produces, whatever the host order.
  ByteWriter PerFloat;
  for (float V : In.Pixels)
    PerFloat.writeF32(V);
  const size_t PixelBytes = In.Pixels.size() * sizeof(float);
  ASSERT_GE(W.size(), PixelBytes);
  EXPECT_EQ(std::memcmp(W.bytes().data() + W.size() - PixelBytes,
                        PerFloat.bytes().data(), PixelBytes),
            0);

  // Every truncation of the payload is rejected with a diagnostic, never
  // a short or garbage framebuffer.
  for (size_t Length = 0; Length < W.size(); ++Length) {
    ByteReader Short(W.bytes().data(), Length);
    RenderReply Partial;
    std::string Why;
    EXPECT_FALSE(decodeRenderReply(Short, Partial, &Why))
        << "accepted a payload cut at byte " << Length;
    EXPECT_FALSE(Why.empty()) << "no diagnostic at byte " << Length;
    EXPECT_TRUE(Partial.Pixels.empty()) << "pixels from byte " << Length;
  }

  // A float count that disagrees with width x height is rejected even
  // though the floats it announces are all present.
  for (size_t Floats : {size_t(0), size_t(3), In.Pixels.size() - 1,
                        In.Pixels.size() + 3}) {
    RenderReply Bad = In;
    Bad.Pixels.resize(Floats, 0.5f);
    ByteWriter BW;
    encodeRenderReply(BW, Bad);
    ByteReader BR(BW.bytes());
    RenderReply Decoded;
    std::string Why;
    EXPECT_FALSE(decodeRenderReply(BR, Decoded, &Why)) << Floats << " floats";
    EXPECT_NE(Why.find("does not match"), std::string::npos) << Why;
  }
}

TEST(ServiceProtocol, FrameRejectsCorruption) {
  auto [ClientEnd, ServerEnd] = makeLoopbackPair();
  std::vector<unsigned char> Payload = {1, 2, 3, 4};

  // Flipping one payload byte after framing must fail the CRC check.
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::StatsRequest, Payload);
  Frame.back() ^= 0xff;
  ASSERT_TRUE(ClientEnd->writeAll(Frame.data(), Frame.size()));

  FrameType Type;
  std::vector<unsigned char> Got;
  std::string Error;
  EXPECT_FALSE(readFrame(*ServerEnd, Type, Got, &Error));
  EXPECT_NE(Error.find("CRC"), std::string::npos) << Error;

  // Bad magic.
  auto [C2, S2] = makeLoopbackPair();
  Frame = encodeFrame(FrameType::StatsRequest, Payload);
  Frame[0] ^= 0xff;
  ASSERT_TRUE(C2->writeAll(Frame.data(), Frame.size()));
  Error.clear();
  EXPECT_FALSE(readFrame(*S2, Type, Got, &Error));
  EXPECT_FALSE(Error.empty());

  // Clean EOF: shutdown with no bytes leaves Error empty.
  auto [C3, S3] = makeLoopbackPair();
  C3->shutdown();
  Error = "sentinel";
  EXPECT_FALSE(readFrame(*S3, Type, Got, &Error));
  EXPECT_TRUE(Error.empty());
}

/// A reply with \p Width x \p Height seeded pixels, NaN payloads and
/// signed zeros among them.
RenderReply seededReply(uint32_t Width, uint32_t Height) {
  RenderReply Reply;
  Reply.Width = Width;
  Reply.Height = Height;
  Reply.CacheHit = true;
  Reply.ServiceMicros = 4242;
  Reply.Pixels.resize(static_cast<size_t>(Width) * Height * 3);
  uint32_t State = 17;
  for (float &V : Reply.Pixels) {
    State = State * 1664525u + 1013904223u;
    V = floatFromBits(State);
  }
  if (!Reply.Pixels.empty()) {
    Reply.Pixels.front() = -0.0f;
    Reply.Pixels.back() = floatFromBits(0x7FC0BEEFu);
  }
  return Reply;
}

/// The frame the encoder-then-framer route produces for \p Reply.
std::vector<unsigned char> encodedReplyFrame(const RenderReply &Reply) {
  ByteWriter W;
  encodeRenderReply(W, Reply);
  return encodeFrame(FrameType::RenderReply, W.bytes());
}

TEST(ServiceProtocol, DirectReplyFrameEqualsEncodeFrame) {
  RenderReply Ok = seededReply(37, 11);
  RenderReply OkWithCrc = Ok;
  OkWithCrc.PixelCrc = pixelCrc(Ok.Pixels);
  RenderReply Error;
  Error.Status = RenderStatus::ShedDeadline;
  Error.Error = "deadline of 5ms exceeded while queued";
  Error.Width = 640;
  Error.Height = 480;
  Error.ServiceMicros = 7;
  RenderReply ZeroPixels; // Ok, 0x0
  ZeroPixels.PixelCrc = 0;

  const std::vector<unsigned char> Backlog = {0xAB, 0xCD, 0xEF};
  for (const RenderReply *Reply : {&Ok, &OkWithCrc, &Error, &ZeroPixels}) {
    const std::vector<unsigned char> Want = encodedReplyFrame(*Reply);
    std::vector<unsigned char> Direct;
    appendRenderReplyFrame(Direct, *Reply);
    EXPECT_EQ(Direct, Want) << renderStatusName(Reply->Status) << ", "
                            << Reply->Pixels.size() << " floats";
    // Appending after bytes already queued leaves them alone.
    std::vector<unsigned char> Queued = Backlog;
    appendRenderReplyFrame(Queued, *Reply);
    ASSERT_EQ(Queued.size(), Backlog.size() + Want.size());
    EXPECT_TRUE(std::equal(Backlog.begin(), Backlog.end(), Queued.begin()));
    EXPECT_TRUE(std::equal(Want.begin(), Want.end(),
                           Queued.begin() + Backlog.size()));
  }

  // The frame CRC comes from PixelCrc, not from another pass over the
  // pixels: a wrong one makes a frame that fails its CRC check.
  RenderReply Lying = OkWithCrc;
  *Lying.PixelCrc ^= 1;
  std::vector<unsigned char> Bad;
  appendRenderReplyFrame(Bad, Lying);
  auto [Reader, Writer] = makeLoopbackPair();
  ASSERT_TRUE(Writer->writeAll(Bad.data(), Bad.size()));
  FrameType Type;
  std::vector<unsigned char> Payload;
  std::string Why;
  EXPECT_FALSE(readFrame(*Reader, Type, Payload, &Why));
  EXPECT_NE(Why.find("CRC"), std::string::npos) << Why;
}

/// requestRender against a peer that reads the request, answers with
/// exactly \p Bytes and hangs up.
std::optional<RenderReply>
requestAgainst(const std::vector<unsigned char> &Bytes, std::string &Error) {
  auto Pair = makeLoopbackPair();
  Transport *Client = Pair.first.get();
  Transport *Peer = Pair.second.get();
  std::thread Server([Peer, &Bytes] {
    FrameType Type;
    std::vector<unsigned char> Request;
    std::string Why;
    if (readFrame(*Peer, Type, Request, &Why))
      Peer->writeAll(Bytes.data(), Bytes.size());
    Peer->shutdown();
  });
  RenderRequest Request;
  Request.Shader = "plastic";
  std::optional<RenderReply> Reply = requestRender(*Client, Request, &Error);
  Server.join();
  return Reply;
}

TEST(ServiceProtocol, ClientReadsReplyStraightIntoPixels) {
  RenderReply Error;
  Error.Status = RenderStatus::BadRequest;
  Error.Error = "no gallery shader named 'nope'";
  RenderReply Empty; // Ok, 0x0
  for (const RenderReply &Want : {seededReply(64, 48), Error, Empty}) {
    std::string Why;
    std::optional<RenderReply> Got =
        requestAgainst(encodedReplyFrame(Want), Why);
    ASSERT_TRUE(Got.has_value()) << Why;
    EXPECT_EQ(Got->Status, Want.Status);
    EXPECT_EQ(Got->Error, Want.Error);
    EXPECT_EQ(Got->Width, Want.Width);
    EXPECT_EQ(Got->Height, Want.Height);
    EXPECT_EQ(Got->CacheHit, Want.CacheHit);
    EXPECT_EQ(Got->ServiceMicros, Want.ServiceMicros);
    ASSERT_EQ(Got->Pixels.size(), Want.Pixels.size());
    if (!Want.Pixels.empty()) {
      EXPECT_EQ(std::memcmp(Got->Pixels.data(), Want.Pixels.data(),
                            Want.Pixels.size() * sizeof(float)),
                0);
    }
  }
}

/// Little-endian u32 at \p At.
void putU32(std::vector<unsigned char> &Bytes, size_t At, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Bytes[At + I] = static_cast<unsigned char>(V >> (8 * I));
}

TEST(ServiceProtocol, ClientRejectsMalformedReplies) {
  // Offsets into a reply payload with an empty error text.
  constexpr size_t ErrorLengthAt = 1, WidthAt = 5, HeightAt = 9,
                   FloatCountAt = 22, PixelsAt = 26;
  const RenderReply Good = seededReply(16, 12);
  ByteWriter GoodPayload;
  encodeRenderReply(GoodPayload, Good);

  struct Case {
    const char *What;
    std::vector<unsigned char> Bytes;
    const char *Diagnostic;
  };
  std::vector<Case> Cases;

  std::vector<unsigned char> Frame = encodedReplyFrame(Good);
  Cases.push_back({"truncated mid-pixels",
                   std::vector<unsigned char>(Frame.begin(),
                                              Frame.end() - 101),
                   "truncated"});
  Frame.back() ^= 0x01;
  Cases.push_back({"last pixel byte flipped", Frame, "CRC mismatch"});

  // Counts that, if trusted, would allocate gigabytes: the float count
  // disagrees with W*H*3, or agrees with it but not with the bytes left.
  std::vector<unsigned char> Payload = GoodPayload.bytes();
  putU32(Payload, WidthAt, 65535);
  putU32(Payload, HeightAt, 65535);
  Cases.push_back({"float count != W*H*3",
                   encodeFrame(FrameType::RenderReply, Payload),
                   "does not match the image dimensions"});
  Payload = GoodPayload.bytes();
  putU32(Payload, WidthAt, 1431655765);
  putU32(Payload, HeightAt, 1);
  putU32(Payload, FloatCountAt, 0xFFFFFFFFu);
  Cases.push_back({"float count past the frame",
                   encodeFrame(FrameType::RenderReply, Payload),
                   "pixel payload truncated"});
  Payload = GoodPayload.bytes();
  Payload.insert(Payload.end(), {0, 0, 0, 0});
  Cases.push_back({"float count short of the frame",
                   encodeFrame(FrameType::RenderReply, Payload),
                   "does not end the frame"});

  Payload = GoodPayload.bytes();
  putU32(Payload, ErrorLengthAt, 0xFFFFFFF0u);
  Cases.push_back({"error length past the payload",
                   encodeFrame(FrameType::RenderReply, Payload),
                   "runs past"});
  Payload.assign(GoodPayload.bytes().begin(),
                 GoodPayload.bytes().begin() + PixelsAt - 10);
  Cases.push_back({"payload ends inside the fields",
                   encodeFrame(FrameType::RenderReply, Payload),
                   "unexpected end of data"});

  Frame = encodedReplyFrame(Good);
  putU32(Frame, 8, kMaxFramePayload + 1);
  Cases.push_back({"length over kMaxFramePayload", Frame, "exceeds"});

  for (const Case &C : Cases) {
    std::string Why;
    std::optional<RenderReply> Got = requestAgainst(C.Bytes, Why);
    EXPECT_FALSE(Got.has_value()) << C.What;
    EXPECT_NE(Why.find(C.Diagnostic), std::string::npos)
        << C.What << ": " << Why;
  }
}

//===----------------------------------------------------------------------===//
// Service request handling
//===----------------------------------------------------------------------===//

TEST(Service, RejectsMalformedRequests) {
  ServiceConfig Config;
  Config.MaxPixels = 1u << 16;
  SpecializationService Service(Config);

  RenderRequest Request;
  Request.Shader = "no-such-shader";
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Shader = "plastic";
  Request.Width = 0;
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Width = 512;
  Request.Height = 512; // 256k pixels > the configured 64k ceiling
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Width = 8;
  Request.Height = 8;
  Request.Varying = {"no-such-control"};
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  Request.Varying.clear();
  Request.Controls = {1.0f}; // plastic takes more controls than this
  EXPECT_EQ(Service.render(Request).Status, RenderStatus::BadRequest);

  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.BadRequests, 5u);
  EXPECT_EQ(Stats.RequestsTotal, 5u);
}

TEST(Service, ResolvesRenderThreadDefaultAcrossDispatchers) {
  ServiceConfig Config;
  EXPECT_EQ(Config.RenderThreads, 0u) << "default is one per hardware thread";
  Config.Dispatchers = 2;
  SpecializationService Service(Config);
  // Resolved once, in the constructor: config() reports the real count,
  // and the two dispatchers' engines together never exceed the host.
  const unsigned Hardware = std::thread::hardware_concurrency();
  EXPECT_EQ(Service.config().RenderThreads, std::max(1u, Hardware / 2));
  EXPECT_EQ(Service.config().Dispatchers, 2u);
  if (Hardware >= 2) {
    EXPECT_LE(Service.config().RenderThreads * Service.config().Dispatchers,
              Hardware);
  }

  // The multi-threaded default still serves bit-identical frames.
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);
  RenderRequest Request;
  Request.Shader = "marble";
  Request.Width = 24;
  Request.Height = 16;
  RenderReply Reply = Service.render(Request);
  ASSERT_TRUE(Reply.ok()) << Reply.Error;
  EXPECT_TRUE(bitIdentical(
      Reply.toFramebuffer(),
      plainReference(*Info, 24, 16, ShaderLab::defaultControls(*Info))));

  // An explicit count is kept as given.
  ServiceConfig Explicit;
  Explicit.RenderThreads = 3;
  Explicit.Dispatchers = 2;
  SpecializationService Fixed(Explicit);
  EXPECT_EQ(Fixed.config().RenderThreads, 3u);
}

TEST(Service, MatchesPlainPassForEveryShader) {
  SpecializationService Service;
  for (const ShaderInfo &Info : shaderGallery()) {
    RenderRequest Request;
    Request.Shader = Info.Name;
    Request.Width = 24;
    Request.Height = 16;
    RenderReply Reply = Service.render(Request);
    ASSERT_TRUE(Reply.ok()) << Info.Name << ": " << Reply.Error;
    EXPECT_FALSE(Reply.CacheHit) << Info.Name;
    Framebuffer Reference = plainReference(
        Info, 24, 16, ShaderLab::defaultControls(Info));
    EXPECT_TRUE(bitIdentical(Reply.toFramebuffer(), Reference)) << Info.Name;
  }
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.RequestsOk, shaderGallery().size());
  EXPECT_EQ(Stats.Cache.Misses, shaderGallery().size());
}

TEST(Service, CacheHitsStayBitIdenticalAcrossVaryingValues) {
  ServiceConfig Config;
  Config.RenderThreads = 4; // exercise the tiled multi-threaded reader
  SpecializationService Service(Config);
  const ShaderInfo *Info = findShader("marble");
  ASSERT_NE(Info, nullptr);

  for (unsigned Frame = 0; Frame < 4; ++Frame) {
    RenderRequest Request;
    Request.Shader = Info->Name;
    Request.Width = 24;
    Request.Height = 16;
    // Drag the first control across frames: same unit, different value.
    Request.Controls = ShaderLab::defaultControls(*Info);
    Request.Controls[0] =
        Info->Controls[0].SweepMin +
        static_cast<float>(Frame) * 0.25f *
            (Info->Controls[0].SweepMax - Info->Controls[0].SweepMin);
    RenderReply Reply = Service.render(Request);
    ASSERT_TRUE(Reply.ok()) << Reply.Error;
    EXPECT_EQ(Reply.CacheHit, Frame > 0);
    Framebuffer Reference =
        plainReference(*Info, 24, 16, Request.Controls);
    EXPECT_TRUE(bitIdentical(Reply.toFramebuffer(), Reference))
        << "frame " << Frame;
  }
  MetricsSnapshot Stats = Service.statsz();
  EXPECT_EQ(Stats.Cache.Misses, 1u);
  EXPECT_EQ(Stats.Cache.Hits, 3u);
}

/// The reply form of a switch-tier plain render: what a hit's payload
/// must equal bit for bit.
std::vector<float> switchPlainPixels(const ShaderInfo &Info, unsigned Width,
                                     unsigned Height,
                                     const std::vector<float> &Controls) {
  auto Unit = parseUnit(Info.Source);
  EXPECT_TRUE(Unit->ok()) << Unit->Diags.str();
  auto Plain = compileFunction(*Unit, Info.Name);
  EXPECT_TRUE(Plain.has_value()) << Unit->Diags.str();
  RenderGrid Grid(Width, Height);
  RenderEngine Engine(1);
  Engine.setExecTier(ExecTier::Switch);
  Framebuffer Out(Width, Height);
  EXPECT_TRUE(Engine.plainPass(*Plain, Grid, Controls, &Out))
      << Engine.lastTrap();
  return RenderReply::fromFramebuffer(Out).Pixels;
}

::testing::AssertionResult sameBits(const std::vector<float> &A,
                                    const std::vector<float> &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure()
           << A.size() << " vs " << B.size() << " floats";
  for (size_t I = 0; I < A.size(); ++I)
    if (std::memcmp(&A[I], &B[I], sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "float " << I << " (pixel " << I / 3 << ") differs";
  return ::testing::AssertionSuccess();
}

/// Renders every gallery shader twice through \p Service (a miss, then a
/// hit with the first control dragged) at a size that leaves a partial
/// last tile, and requires both payloads to equal the switch tier.
void expectRepliesMatchSwitch(SpecializationService &Service) {
  const unsigned W = 37, H = 23;
  for (const ShaderInfo &Info : shaderGallery()) {
    RenderRequest Request;
    Request.Shader = Info.Name;
    Request.Width = W;
    Request.Height = H;
    Request.Controls = ShaderLab::defaultControls(Info);
    for (bool Hit : {false, true}) {
      if (Hit)
        Request.Controls[0] = Info.Controls[0].SweepMax;
      RenderReply Reply = Service.render(Request);
      ASSERT_TRUE(Reply.ok()) << Info.Name << ": " << Reply.Error;
      EXPECT_EQ(Reply.CacheHit, Hit) << Info.Name;
      EXPECT_EQ(Reply.Width, W);
      EXPECT_EQ(Reply.Height, H);
      EXPECT_TRUE(sameBits(Reply.Pixels,
                           switchPlainPixels(Info, W, H, Request.Controls)))
          << Info.Name << (Hit ? " hit" : " miss");
    }
  }
}

TEST(Service, HitPayloadEqualsSwitchPlainRenderBitForBit) {
  // The reader writes the reply's RGB floats directly, on every core.
  ServiceConfig Config;
  Config.RenderThreads = 4;
  SpecializationService Service(Config);
  expectRepliesMatchSwitch(Service);
}

TEST(Service, PerPixelReaderWritesTheSamePayload) {
  // Blocks of 96 pixels never align with 128-pixel tiles, so no tile can
  // run batched: every pixel takes the per-pixel path and writes its own
  // three floats into the payload.
  ServiceConfig Config;
  Config.RenderThreads = 4;
  Config.ArenaLayout.Layout = ArenaLayout::TileBlocked;
  Config.ArenaLayout.TilePixels = 96;
  SpecializationService Service(Config);
  expectRepliesMatchSwitch(Service);
}

/// /statsz sums every loader and reader pass's execution counters: on
/// the batched tier every gallery tile retires batched, on the switch
/// tier every pixel of every pass runs per-pixel.
TEST(Service, StatszSumsEnginePassCounters) {
  const unsigned W = 24, H = 16, Tiles = (W * H + 127) / 128;
  for (ExecTier Tier : {ExecTier::Batched, ExecTier::Switch}) {
    ServiceConfig Config;
    Config.RenderThreads = 2;
    Config.Tier = Tier;
    SpecializationService Service(Config);
    const ShaderInfo *Info = findShader("marble");
    ASSERT_NE(Info, nullptr);
    RenderRequest Request;
    Request.Shader = Info->Name;
    Request.Width = W;
    Request.Height = H;
    Request.Controls = ShaderLab::defaultControls(*Info);
    for (unsigned Frame = 0; Frame < 2; ++Frame) {
      Request.Controls[0] = Frame ? Info->Controls[0].SweepMax
                                  : Info->Controls[0].SweepMin;
      ASSERT_TRUE(Service.render(Request).ok());
    }
    // One loader pass (the miss) and two reader passes.
    const uint64_t Passes = 3;
    const MetricsSnapshot Stats = Service.statsz();
    const std::string Tag = execTierName(Tier);
    EXPECT_EQ(Stats.Engine.BailedTiles, 0u) << Tag;
    if (Tier == ExecTier::Batched) {
      EXPECT_EQ(Stats.Engine.BatchTiles, Passes * Tiles) << Tag;
      EXPECT_EQ(Stats.Engine.PerPixelPixels, 0u) << Tag;
    } else {
      EXPECT_EQ(Stats.Engine.BatchTiles, 0u) << Tag;
      EXPECT_EQ(Stats.Engine.PerPixelPixels, Passes * W * H) << Tag;
    }
    const std::string Expected =
        "\"engine\":{\"batch_tiles\":" +
        std::to_string(Stats.Engine.BatchTiles) +
        ",\"bailed_tiles\":0,\"per_pixel_pixels\":" +
        std::to_string(Stats.Engine.PerPixelPixels) + "}";
    EXPECT_NE(Stats.toJson().find(Expected), std::string::npos)
        << Tag << ": " << Stats.toJson();
  }
}

TEST(Service, ShedsWhenQueueIsFull) {
  ServiceConfig Config;
  Config.QueueCapacity = 1;
  Config.MaxBatch = 1;
  SpecializationService Service(Config);

  RenderRequest Request;
  Request.Shader = "rings"; // most expensive build in the gallery
  std::vector<std::future<RenderReply>> Futures;
  for (unsigned I = 0; I < 64; ++I)
    Futures.push_back(Service.submit(Request));

  unsigned Ok = 0, Shed = 0;
  for (std::future<RenderReply> &F : Futures) {
    RenderReply Reply = F.get();
    if (Reply.ok())
      ++Ok;
    else if (Reply.Status == RenderStatus::ShedQueueFull) {
      ++Shed;
      EXPECT_NE(Reply.Error.find("queue full"), std::string::npos);
    }
  }
  EXPECT_EQ(Ok + Shed, 64u);
  EXPECT_GT(Ok, 0u);
  // A 64-deep burst into a 1-deep queue must shed (the first build takes
  // milliseconds while submission takes microseconds).
  EXPECT_GT(Shed, 0u);
  EXPECT_EQ(Service.statsz().ShedQueueFull, Shed);
}

TEST(Service, ShedsQueuedRequestsPastTheirDeadline) {
  ServiceConfig Config;
  Config.Dispatchers = 1;
  SpecializationService Service(Config);

  // Occupy the single dispatcher with an expensive cold build (sized to
  // outlast the sleep below by a wide margin on a fast host)...
  RenderRequest Blocker;
  Blocker.Shader = "rings";
  Blocker.Width = 512;
  Blocker.Height = 512;
  std::future<RenderReply> BlockerDone = Service.submit(Blocker);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // ...so a 1ms-deadline request queued behind it is shed at dispatch.
  RenderRequest Urgent;
  Urgent.Shader = "plastic";
  Urgent.DeadlineMillis = 1;
  RenderReply Reply = Service.submit(Urgent).get();
  EXPECT_EQ(Reply.Status, RenderStatus::ShedDeadline);
  EXPECT_NE(Reply.Error.find("deadline"), std::string::npos);

  EXPECT_TRUE(BlockerDone.get().ok());
  EXPECT_EQ(Service.statsz().ShedDeadline, 1u);
}

TEST(Service, DrainRejectsNewWorkAndIsIdempotent) {
  SpecializationService Service;
  RenderRequest Request;
  Request.Shader = "plastic";
  ASSERT_TRUE(Service.render(Request).ok());

  Service.drain();
  Service.drain(); // second drain is a no-op, not a crash

  RenderReply Reply = Service.render(Request);
  EXPECT_EQ(Reply.Status, RenderStatus::Draining);
  EXPECT_EQ(Service.statsz().RejectedDraining, 1u);
}

//===----------------------------------------------------------------------===//
// End-to-end over a loopback socket
//===----------------------------------------------------------------------===//

/// A live in-process server: a service behind the event-loop front end
/// (NetServer) on an ephemeral loopback TCP port, and one client.
struct LoopbackServer {
  SpecializationService Service;
  std::unique_ptr<NetServer> Server;
  std::unique_ptr<Transport> Client;

  explicit LoopbackServer(const ServiceConfig &Config = {})
      : Service(Config) {
    NetServerConfig NetCfg;
    NetCfg.TcpHostPort = "127.0.0.1:0";
    Server = std::make_unique<NetServer>(Service, std::move(NetCfg));
    std::string Error;
    EXPECT_TRUE(Server->start(&Error)) << Error;
    Client = connectTcp("127.0.0.1", Server->boundTcpPort(), &Error);
    EXPECT_NE(Client, nullptr) << Error;
  }

  ~LoopbackServer() {
    if (Client)
      Client->shutdown();
    Server->shutdownServer();
    Service.drain();
  }
};

TEST(ServiceLoopback, EndToEndMatchesPlainPassForEveryShader) {
  for (unsigned Threads : {1u, 4u}) {
    ServiceConfig Config;
    Config.RenderThreads = Threads;
    LoopbackServer Server(Config);
    for (const ShaderInfo &Info : shaderGallery()) {
      RenderRequest Request;
      Request.Shader = Info.Name;
      Request.Width = 20;
      Request.Height = 12;
      std::string Error;
      auto Reply = requestRender(*Server.Client, Request, &Error);
      ASSERT_TRUE(Reply.has_value()) << Error;
      ASSERT_TRUE(Reply->ok()) << Info.Name << ": " << Reply->Error;
      Framebuffer Reference = plainReference(
          Info, 20, 12, ShaderLab::defaultControls(Info));
      EXPECT_TRUE(bitIdentical(Reply->toFramebuffer(), Reference))
          << Info.Name << " with " << Threads << " render thread(s)";
    }
  }
}

TEST(ServiceLoopback, SecondRequestIsACacheHit) {
  LoopbackServer Server;
  RenderRequest Request;
  Request.Shader = "checker";
  std::string Error;
  auto First = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(First.has_value()) << Error;
  EXPECT_FALSE(First->CacheHit);
  auto Second = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(Second.has_value()) << Error;
  EXPECT_TRUE(Second->CacheHit);
  ASSERT_TRUE(Second->ok());
  EXPECT_EQ(std::memcmp(First->Pixels.data(), Second->Pixels.data(),
                        First->Pixels.size() * sizeof(float)),
            0);
}

TEST(ServiceLoopback, StatszReportsJsonSnapshot) {
  LoopbackServer Server;
  RenderRequest Request;
  Request.Shader = "stripes";
  std::string Error;
  ASSERT_TRUE(requestRender(*Server.Client, Request, &Error)) << Error;

  auto Json = requestStats(*Server.Client, &Error);
  ASSERT_TRUE(Json.has_value()) << Error;
  EXPECT_NE(Json->find("\"requests\""), std::string::npos);
  EXPECT_NE(Json->find("\"unit_cache\""), std::string::npos);
  EXPECT_NE(Json->find("\"latency_seconds\""), std::string::npos);
  EXPECT_NE(Json->find("\"total\":1"), std::string::npos);
}

TEST(ServiceLoopback, BadRequestGetsStructuredErrorNotDisconnect) {
  LoopbackServer Server;
  RenderRequest Request;
  Request.Shader = "not-a-shader";
  std::string Error;
  auto Reply = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(Reply.has_value()) << Error;
  EXPECT_EQ(Reply->Status, RenderStatus::BadRequest);
  EXPECT_FALSE(Reply->Error.empty());

  // The connection survives a rejected request.
  Request.Shader = "plastic";
  auto Good = requestRender(*Server.Client, Request, &Error);
  ASSERT_TRUE(Good.has_value()) << Error;
  EXPECT_TRUE(Good->ok());
}

TEST(ServiceLoopback, CorruptFrameDropsConnection) {
  LoopbackServer Server;
  ByteWriter W;
  RenderRequest Request;
  Request.Shader = "plastic";
  encodeRenderRequest(W, Request);
  std::vector<unsigned char> Frame =
      encodeFrame(FrameType::RenderRequest, W.bytes());
  Frame.back() ^= 0xff; // corrupt the payload => CRC mismatch
  ASSERT_TRUE(Server.Client->writeAll(Frame.data(), Frame.size()));

  // The server drops the connection instead of answering garbage.
  FrameType Type;
  std::vector<unsigned char> Payload;
  std::string Error;
  EXPECT_FALSE(readFrame(*Server.Client, Type, Payload, &Error));
}

} // namespace
