//===- service/Protocol.cpp - Framed binary service protocol ----------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "service/Transport.h"
#include "support/Crc32.h"

#include <algorithm>
#include <cstring>

using namespace dspec;

const char *dspec::renderStatusName(RenderStatus Status) {
  switch (Status) {
  case RenderStatus::Ok:
    return "ok";
  case RenderStatus::BadRequest:
    return "bad_request";
  case RenderStatus::SpecializeError:
    return "specialize_error";
  case RenderStatus::RenderTrap:
    return "render_trap";
  case RenderStatus::ShedQueueFull:
    return "shed_queue_full";
  case RenderStatus::ShedDeadline:
    return "shed_deadline";
  case RenderStatus::Draining:
    return "draining";
  case RenderStatus::ShedQuota:
    return "shed_quota";
  }
  return "unknown";
}

Framebuffer RenderReply::toFramebuffer() const {
  // Build the pixels in place rather than value-initialising a
  // framebuffer and overwriting it: each Value is written once.
  const size_t Count = static_cast<size_t>(Width) * Height;
  std::vector<Value> Values;
  Values.reserve(Count);
  const float *RGB = Pixels.data();
  for (size_t I = 0; I < Count; ++I, RGB += 3)
    Values.push_back(Value::makeVec3(RGB[0], RGB[1], RGB[2]));
  return Framebuffer(Width, Height, std::move(Values));
}

RenderReply RenderReply::fromFramebuffer(const Framebuffer &Fb) {
  RenderReply Reply;
  Reply.Width = Fb.width();
  Reply.Height = Fb.height();
  Reply.Pixels.resize(static_cast<size_t>(Fb.width()) * Fb.height() * 3);
  float *RGB = Reply.Pixels.data();
  for (uint32_t Y = 0; Y < Fb.height(); ++Y)
    for (uint32_t X = 0; X < Fb.width(); ++X, RGB += 3)
      std::memcpy(RGB, Fb.at(X, Y).F, 3 * sizeof(float));
  return Reply;
}

//===----------------------------------------------------------------------===//
// Payload serde
//===----------------------------------------------------------------------===//

void dspec::encodeRenderRequest(ByteWriter &W, const RenderRequest &Request) {
  W.writeString(Request.Shader);
  W.writeU32(Request.Width);
  W.writeU32(Request.Height);
  W.writeU32(static_cast<uint32_t>(Request.Varying.size()));
  for (const std::string &Name : Request.Varying)
    W.writeString(Name);
  W.writeU32(static_cast<uint32_t>(Request.Controls.size()));
  for (float V : Request.Controls)
    W.writeF32(V);
  W.writeU32(Request.DeadlineMillis);
  W.writeU8(Request.JoinNormalize ? 1 : 0);
  W.writeU8(Request.Reassociate ? 1 : 0);
  W.writeU8(Request.Speculation ? 1 : 0);
  W.writeU8(Request.CacheByteLimit.has_value() ? 1 : 0);
  W.writeU32(Request.CacheByteLimit.value_or(0));
  W.writeU32(Request.VariantPins);
  W.writeU8(Request.StreamTiles ? 1 : 0);
}

bool dspec::decodeRenderRequest(ByteReader &R, RenderRequest &Out,
                                std::string *Error) {
  Out.Shader = R.readString();
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  uint32_t NumVarying = R.readU32();
  if (NumVarying > 4096)
    R.fail("varying-parameter count out of range");
  Out.Varying.clear();
  for (uint32_t I = 0; R.ok() && I < NumVarying; ++I)
    Out.Varying.push_back(R.readString());
  uint32_t NumControls = R.readU32();
  if (NumControls > 4096)
    R.fail("control count out of range");
  Out.Controls.clear();
  for (uint32_t I = 0; R.ok() && I < NumControls; ++I)
    Out.Controls.push_back(R.readF32());
  Out.DeadlineMillis = R.readU32();
  Out.JoinNormalize = R.readU8() != 0;
  Out.Reassociate = R.readU8() != 0;
  Out.Speculation = R.readU8() != 0;
  bool HasLimit = R.readU8() != 0;
  uint32_t Limit = R.readU32();
  Out.CacheByteLimit =
      HasLimit ? std::optional<uint32_t>(Limit) : std::nullopt;
  // Trailing fields, absent in older payloads: default (0 pins, no
  // streaming) instead of failing so old encoders keep working.
  Out.VariantPins = R.ok() && R.remaining() >= 4 ? R.readU32() : 0;
  Out.StreamTiles = R.ok() && R.remaining() >= 1 && R.readU8() != 0;
  if (!R.ok() && Error)
    *Error = "render request: " + R.error();
  return R.ok();
}

namespace {

/// A render reply's 26 fixed bytes before the pixels (status 1, error
/// length 4, width 4, height 4, hit 1, micros 8, float count 4), with
/// the error text after the error length.
constexpr size_t kReplyFixedBytes = 26;
/// The fixed bytes before (status, error length) and after the error text.
constexpr size_t kReplyFieldsBeforeError = 5;
constexpr size_t kReplyFieldsAfterError = 21;

void encodeRenderReplyFields(ByteWriter &W, const RenderReply &Reply) {
  W.writeU8(static_cast<uint8_t>(Reply.Status));
  W.writeString(Reply.Error);
  W.writeU32(Reply.Width);
  W.writeU32(Reply.Height);
  W.writeU8(Reply.CacheHit ? 1 : 0);
  W.writeU64(Reply.ServiceMicros);
  W.writeU32(static_cast<uint32_t>(Reply.Pixels.size()));
}

/// Reads everything up to the pixels and returns the float count, which
/// must match the image (or be 0 on a non-Ok reply).
uint32_t decodeRenderReplyFields(ByteReader &R, RenderReply &Out) {
  uint8_t Status = R.readU8();
  if (Status > static_cast<uint8_t>(RenderStatus::ShedQuota))
    R.fail("unknown render status " + std::to_string(Status));
  Out.Status = static_cast<RenderStatus>(Status);
  Out.Error = R.readString();
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  Out.CacheHit = R.readU8() != 0;
  Out.ServiceMicros = R.readU64();
  uint32_t NumFloats = R.readU32();
  if (NumFloats != static_cast<uint64_t>(Out.Width) * Out.Height * 3 &&
      !(NumFloats == 0 && Out.Status != RenderStatus::Ok))
    R.fail("pixel payload does not match the image dimensions");
  return NumFloats;
}

} // namespace

void dspec::encodeRenderReply(ByteWriter &W, const RenderReply &Reply) {
  // The fixed bytes, the error text and the pixels: one reservation for
  // all of it.
  W.reserve(kReplyFixedBytes + Reply.Error.size() +
            Reply.Pixels.size() * sizeof(float));
  encodeRenderReplyFields(W, Reply);
  W.writeF32Array(Reply.Pixels.data(), Reply.Pixels.size());
}

bool dspec::decodeRenderReply(ByteReader &R, RenderReply &Out,
                              std::string *Error) {
  uint32_t NumFloats = decodeRenderReplyFields(R, Out);
  if (NumFloats * sizeof(float) > R.remaining())
    R.fail("pixel payload truncated");
  Out.Pixels.clear();
  if (R.ok()) {
    Out.Pixels.resize(NumFloats);
    R.readF32Array(Out.Pixels.data(), NumFloats);
  }
  if (!R.ok() && Error)
    *Error = "render reply: " + R.error();
  return R.ok();
}

uint32_t dspec::pixelCrc(const std::vector<float> &Pixels) {
  return crc32(reinterpret_cast<const unsigned char *>(Pixels.data()),
               Pixels.size() * sizeof(float));
}

void dspec::encodeRenderPartial(ByteWriter &W,
                                const RenderPartialChunk &Chunk) {
  W.writeU32(Chunk.Width);
  W.writeU32(Chunk.Height);
  W.writeU32(Chunk.PixelOffset);
  W.writeU32(Chunk.PixelCount);
  W.writeF32Array(Chunk.Pixels.data(), Chunk.Pixels.size());
}

bool dspec::decodeRenderPartial(ByteReader &R, RenderPartialChunk &Out,
                                std::string *Error) {
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  Out.PixelOffset = R.readU32();
  Out.PixelCount = R.readU32();
  uint64_t Total = static_cast<uint64_t>(Out.Width) * Out.Height;
  if (Out.PixelCount == 0 ||
      static_cast<uint64_t>(Out.PixelOffset) + Out.PixelCount > Total)
    R.fail("partial chunk range outside the image");
  uint64_t NumFloats = static_cast<uint64_t>(Out.PixelCount) * 3;
  if (NumFloats * sizeof(float) > R.remaining())
    R.fail("partial chunk payload truncated");
  Out.Pixels.clear();
  if (R.ok()) {
    Out.Pixels.resize(NumFloats);
    R.readF32Array(Out.Pixels.data(), NumFloats);
  }
  if (!R.ok() && Error)
    *Error = "render partial: " + R.error();
  return R.ok();
}

void dspec::encodeRenderDone(ByteWriter &W, const RenderStreamDone &Done) {
  W.writeU8(static_cast<uint8_t>(Done.Status));
  W.writeString(Done.Error);
  W.writeU32(Done.Width);
  W.writeU32(Done.Height);
  W.writeU8(Done.CacheHit ? 1 : 0);
  W.writeU64(Done.ServiceMicros);
  W.writeU32(Done.NumPartials);
  W.writeU32(Done.PixelCrc);
}

bool dspec::decodeRenderDone(ByteReader &R, RenderStreamDone &Out,
                             std::string *Error) {
  uint8_t Status = R.readU8();
  if (Status > static_cast<uint8_t>(RenderStatus::ShedQuota))
    R.fail("unknown render status " + std::to_string(Status));
  Out.Status = static_cast<RenderStatus>(Status);
  Out.Error = R.readString();
  Out.Width = R.readU32();
  Out.Height = R.readU32();
  Out.CacheHit = R.readU8() != 0;
  Out.ServiceMicros = R.readU64();
  Out.NumPartials = R.readU32();
  Out.PixelCrc = R.readU32();
  if (!R.ok() && Error)
    *Error = "render done: " + R.error();
  return R.ok();
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

namespace {

/// Writes a frame header for a \p Size-byte payload with CRC \p Crc.
void putFrameHeader(unsigned char *Header, FrameType Type, size_t Size,
                    uint32_t Crc) {
  auto PutU32 = [Header](size_t At, uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Header[At + I] = static_cast<unsigned char>(V >> (8 * I));
  };
  std::memset(Header, 0, kFrameHeaderBytes);
  PutU32(0, kFrameMagic);
  Header[4] = static_cast<unsigned char>(Type);
  PutU32(8, static_cast<uint32_t>(Size));
  PutU32(12, Crc);
}

} // namespace

void dspec::appendFrame(std::vector<unsigned char> &Out, FrameType Type,
                        const unsigned char *Payload, size_t Size) {
  unsigned char Header[kFrameHeaderBytes];
  putFrameHeader(Header, Type, Size, crc32(Payload, Size));
  reserveAppend(Out, sizeof(Header) + Size);
  Out.insert(Out.end(), Header, Header + sizeof(Header));
  Out.insert(Out.end(), Payload, Payload + Size);
}

void dspec::appendRenderReplyFrame(std::vector<unsigned char> &Out,
                                   const RenderReply &Reply) {
  const size_t PixelBytes = Reply.Pixels.size() * sizeof(float);
  const size_t PayloadBytes =
      kReplyFixedBytes + Reply.Error.size() + PixelBytes;
  // Encode into Out itself: a placeholder header, the fields, the pixels.
  ByteWriter W(std::move(Out));
  const size_t HeaderAt = W.size();
  const size_t FieldsAt = HeaderAt + kFrameHeaderBytes;
  W.reserve(kFrameHeaderBytes + PayloadBytes);
  const unsigned char Placeholder[kFrameHeaderBytes] = {};
  W.writeBytes(Placeholder, sizeof(Placeholder));
  encodeRenderReplyFields(W, Reply);
  const size_t PixelsAt = W.size();
  const uint32_t FieldsCrc =
      crc32(W.bytes().data() + FieldsAt, PixelsAt - FieldsAt);
  W.writeF32Array(Reply.Pixels.data(), Reply.Pixels.size());
  Out = W.takeBytes();
  // A PixelCrc covers the floats' in-memory bytes, which are the wire
  // bytes only on a little-endian host.
  const uint32_t PixelsCrc = Reply.PixelCrc && kHostIsLittleEndian
                                 ? *Reply.PixelCrc
                                 : crc32(Out.data() + PixelsAt, PixelBytes);
  putFrameHeader(Out.data() + HeaderAt, FrameType::RenderReply, PayloadBytes,
                 crc32Combine(FieldsCrc, PixelsCrc, PixelBytes));
}

std::vector<unsigned char>
dspec::encodeFrame(FrameType Type, const std::vector<unsigned char> &Payload) {
  std::vector<unsigned char> Frame;
  appendFrame(Frame, Type, Payload.data(), Payload.size());
  return Frame;
}

bool dspec::writeFrame(Transport &T, FrameType Type,
                       const std::vector<unsigned char> &Payload) {
  std::vector<unsigned char> Frame = encodeFrame(Type, Payload);
  return T.writeAll(Frame.data(), Frame.size());
}

namespace {

/// Reads and validates one frame header: magic, type and the payload
/// length bound, so no caller allocates for a corrupt length. Returns
/// false on clean EOF (\p Error left empty) or with \p Error set.
bool readFrameHeader(Transport &T, FrameType &Type, uint32_t &PayloadBytes,
                     uint32_t &StoredCrc, std::string *Error) {
  if (Error)
    Error->clear(); // empty Error on return false means clean EOF
  unsigned char Header[kFrameHeaderBytes];
  if (!T.readAll(Header, sizeof(Header)))
    return false;
  ByteReader R(Header, sizeof(Header));
  uint32_t Magic = R.readU32();
  uint8_t RawType = R.readU8();
  R.readU8();
  R.readU8();
  R.readU8();
  PayloadBytes = R.readU32();
  StoredCrc = R.readU32();
  if (Magic != kFrameMagic) {
    if (Error)
      *Error = "bad frame magic";
    return false;
  }
  if (RawType < static_cast<uint8_t>(FrameType::RenderRequest) ||
      RawType > static_cast<uint8_t>(FrameType::RenderDone)) {
    if (Error)
      *Error = "unknown frame type " + std::to_string(RawType);
    return false;
  }
  if (PayloadBytes > kMaxFramePayload) {
    if (Error)
      *Error = "frame payload of " + std::to_string(PayloadBytes) +
               " bytes exceeds the " + std::to_string(kMaxFramePayload) +
               "-byte limit";
    return false;
  }
  Type = static_cast<FrameType>(RawType);
  return true;
}

constexpr const char *kTruncatedPayload = "frame payload truncated";
constexpr const char *kCrcMismatch = "frame payload CRC mismatch";

/// Reads the \p PayloadBytes-byte payload after a validated header and
/// checks it against \p StoredCrc.
bool readFramePayload(Transport &T, uint32_t PayloadBytes,
                      uint32_t StoredCrc, std::vector<unsigned char> &Payload,
                      std::string *Error) {
  Payload.resize(PayloadBytes);
  if (PayloadBytes > 0 && !T.readAll(Payload.data(), PayloadBytes)) {
    if (Error)
      *Error = kTruncatedPayload;
    return false;
  }
  if (crc32(Payload.data(), Payload.size()) != StoredCrc) {
    if (Error)
      *Error = kCrcMismatch;
    return false;
  }
  return true;
}

/// Reads a RenderReply payload of \p PayloadBytes off \p T with no
/// payload buffer: the fields, then the floats straight into
/// Reply.Pixels, folding every chunk into the CRC as it lands. Makes
/// the checks readFrame and decodeRenderReply make, and one more: the
/// floats must end the payload.
std::optional<RenderReply> receiveRenderReply(Transport &T,
                                              uint32_t PayloadBytes,
                                              uint32_t StoredCrc,
                                              std::string *Error) {
  auto Fail = [Error](std::string Why) -> std::optional<RenderReply> {
    if (Error)
      *Error = std::move(Why);
    return std::nullopt;
  };
  size_t Remaining = PayloadBytes;
  uint32_t Crc = 0;
  auto Take = [&](void *Into, size_t Bytes) {
    if (Bytes > 0 && !T.readAll(Into, Bytes))
      return false;
    Crc = crc32(Into, Bytes, Crc);
    Remaining -= Bytes;
    return true;
  };

  // Status and error length first, then the error text and the fixed
  // fields after it, never reading past the payload.
  std::vector<unsigned char> Fields(
      std::min(Remaining, kReplyFieldsBeforeError));
  if (!Take(Fields.data(), Fields.size()))
    return Fail(kTruncatedPayload);
  uint64_t ErrorBytes = 0;
  if (Fields.size() == kReplyFieldsBeforeError) {
    ByteReader Peek(Fields);
    Peek.readU8();
    ErrorBytes = Peek.readU32();
    if (ErrorBytes > Remaining)
      return Fail("render reply: error text of " +
                  std::to_string(ErrorBytes) + " bytes runs past the " +
                  std::to_string(PayloadBytes) + "-byte payload");
  }
  const size_t Rest = std::min<size_t>(
      Remaining, static_cast<size_t>(ErrorBytes) + kReplyFieldsAfterError);
  Fields.resize(Fields.size() + Rest);
  if (!Take(Fields.data() + Fields.size() - Rest, Rest))
    return Fail(kTruncatedPayload);

  RenderReply Reply;
  ByteReader R(Fields);
  const uint32_t NumFloats = decodeRenderReplyFields(R, Reply);
  if (R.ok() && static_cast<uint64_t>(NumFloats) * sizeof(float) != Remaining)
    R.fail(static_cast<uint64_t>(NumFloats) * sizeof(float) > Remaining
               ? "pixel payload truncated"
               : "pixel payload does not end the frame (" +
                     std::to_string(Remaining) + " bytes left for " +
                     std::to_string(NumFloats) + " floats)");
  if (!R.ok())
    return Fail("render reply: " + R.error());

  // The count now equals both W*H*3 and the bytes left, which the frame
  // length bounds, so the allocation is the payload's own size. The
  // chunks are small enough to be still in cache for their CRC.
  Reply.Pixels.resize(NumFloats);
  auto *Dest = reinterpret_cast<unsigned char *>(Reply.Pixels.data());
  constexpr size_t kChunkBytes = 64 << 10;
  while (Remaining > 0) {
    size_t Chunk = std::min(Remaining, kChunkBytes);
    if (!Take(Dest, Chunk))
      return Fail(kTruncatedPayload);
    Dest += Chunk;
  }
  if (Crc != StoredCrc)
    return Fail(kCrcMismatch);
  if constexpr (!kHostIsLittleEndian) {
    // The bytes landed in wire (little-endian) order.
    ByteReader Wire(reinterpret_cast<unsigned char *>(Reply.Pixels.data()),
                    static_cast<size_t>(NumFloats) * sizeof(float));
    std::vector<float> Host(NumFloats);
    Wire.readF32Array(Host.data(), NumFloats);
    Reply.Pixels = std::move(Host);
  }
  return Reply;
}

} // namespace

bool dspec::readFrame(Transport &T, FrameType &Type,
                      std::vector<unsigned char> &Payload,
                      std::string *Error) {
  uint32_t PayloadBytes = 0, StoredCrc = 0;
  return readFrameHeader(T, Type, PayloadBytes, StoredCrc, Error) &&
         readFramePayload(T, PayloadBytes, StoredCrc, Payload, Error);
}

std::optional<RenderReply> dspec::requestRender(Transport &T,
                                                const RenderRequest &Request,
                                                std::string *Error) {
  ByteWriter W;
  encodeRenderRequest(W, Request);
  if (!writeFrame(T, FrameType::RenderRequest, W.bytes())) {
    if (Error)
      *Error = "cannot send request (connection closed?)";
    return std::nullopt;
  }
  // The reply is either one RenderReply frame, or — when the server
  // honors StreamTiles — RenderPartial frames closed by a RenderDone
  // trailer. Reassemble the latter into the same RenderReply shape.
  std::vector<float> Assembled;
  uint32_t Partials = 0;
  for (;;) {
    FrameType Type;
    uint32_t PayloadBytes = 0, StoredCrc = 0;
    std::vector<unsigned char> Payload;
    std::string FrameError;
    if (!readFrameHeader(T, Type, PayloadBytes, StoredCrc, &FrameError)) {
      if (Error)
        *Error = FrameError.empty() ? "connection closed before the reply"
                                    : FrameError;
      return std::nullopt;
    }
    if (Type == FrameType::RenderReply) {
      if (Partials != 0) {
        if (Error)
          *Error = "plain reply arrived inside a streamed reply";
        return std::nullopt;
      }
      return receiveRenderReply(T, PayloadBytes, StoredCrc, Error);
    }
    if (!readFramePayload(T, PayloadBytes, StoredCrc, Payload, Error))
      return std::nullopt;
    ByteReader R(Payload);
    if (Type == FrameType::RenderPartial) {
      RenderPartialChunk Chunk;
      if (!decodeRenderPartial(R, Chunk, Error))
        return std::nullopt;
      size_t Needed = static_cast<size_t>(Chunk.Width) * Chunk.Height * 3;
      if (Assembled.size() < Needed)
        Assembled.resize(Needed, 0.0f);
      std::copy(Chunk.Pixels.begin(), Chunk.Pixels.end(),
                Assembled.begin() + static_cast<size_t>(Chunk.PixelOffset) * 3);
      ++Partials;
      continue;
    }
    if (Type == FrameType::RenderDone) {
      RenderStreamDone Done;
      if (!decodeRenderDone(R, Done, Error))
        return std::nullopt;
      if (Done.NumPartials != Partials) {
        if (Error)
          *Error = "streamed reply lost chunks (" + std::to_string(Partials) +
                   " of " + std::to_string(Done.NumPartials) + " arrived)";
        return std::nullopt;
      }
      RenderReply Reply;
      Reply.Status = Done.Status;
      Reply.Error = Done.Error;
      Reply.Width = Done.Width;
      Reply.Height = Done.Height;
      Reply.CacheHit = Done.CacheHit;
      Reply.ServiceMicros = Done.ServiceMicros;
      if (Reply.ok()) {
        size_t Needed = static_cast<size_t>(Done.Width) * Done.Height * 3;
        if (Assembled.size() != Needed) {
          if (Error)
            *Error = "streamed reply pixel count does not match the image";
          return std::nullopt;
        }
        if (pixelCrc(Assembled) != Done.PixelCrc) {
          if (Error)
            *Error = "streamed reply pixel CRC mismatch";
          return std::nullopt;
        }
        Reply.Pixels = std::move(Assembled);
      }
      return Reply;
    }
    if (Error)
      *Error = "unexpected frame type in reply";
    return std::nullopt;
  }
}

std::optional<std::string> dspec::requestStats(Transport &T,
                                               std::string *Error) {
  if (!writeFrame(T, FrameType::StatsRequest, {})) {
    if (Error)
      *Error = "cannot send stats request";
    return std::nullopt;
  }
  FrameType Type;
  std::vector<unsigned char> Payload;
  std::string FrameError;
  if (!readFrame(T, Type, Payload, &FrameError)) {
    if (Error)
      *Error = FrameError.empty() ? "connection closed before the reply"
                                  : FrameError;
    return std::nullopt;
  }
  if (Type != FrameType::StatsReply) {
    if (Error)
      *Error = "unexpected frame type in stats reply";
    return std::nullopt;
  }
  return std::string(Payload.begin(), Payload.end());
}
