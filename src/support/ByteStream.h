//===- support/ByteStream.h - Bounds-checked binary serde -------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary writer/reader used by the snapshot subsystem's
/// serde layers. ByteWriter appends into a growable buffer; ByteReader
/// walks a read-only span and *never* reads past it — every read is
/// bounds-checked, and the first failure latches an error message so
/// callers can check once at the end instead of after every field.
/// Corrupt or truncated input therefore produces a diagnostic, not UB.
///
/// All integers are written little-endian regardless of host order;
/// floats are written as their IEEE-754 bit pattern, which round-trips
/// NaN payloads and signed zeros exactly (the snapshot round-trip
/// guarantee is bit-identity).
///
/// Float arrays (a service reply's framebuffer is 3.7 MB of them at
/// 640x480) move in bulk: on a little-endian host the wire bytes *are*
/// the in-memory bytes, so writeF32Array/readF32Array are one
/// bounds-checked memcpy; a big-endian host swaps float by float.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SUPPORT_BYTESTREAM_H
#define DATASPEC_SUPPORT_BYTESTREAM_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dspec {

/// True when the host's float/integer byte order is the wire order, so
/// arrays can be copied verbatim.
constexpr bool kHostIsLittleEndian = std::endian::native == std::endian::little;

/// Makes room for \p Bytes more bytes at the end of \p Buffer. Growth
/// stays geometric, so repeated appends to one buffer (a write backlog
/// of many frames) still copy each byte O(1) times.
inline void reserveAppend(std::vector<unsigned char> &Buffer, size_t Bytes) {
  if (Buffer.capacity() - Buffer.size() < Bytes)
    Buffer.reserve(std::max(Buffer.size() + Bytes, 2 * Buffer.capacity()));
}

/// Appends little-endian fields to a byte buffer.
class ByteWriter {
public:
  ByteWriter() = default;
  /// Appends after the bytes already in \p Existing (takeBytes hands the
  /// buffer back), so a frame can be encoded into a reused buffer.
  explicit ByteWriter(std::vector<unsigned char> Existing)
      : Buffer(std::move(Existing)) {}

  /// Reserves room for \p Bytes more bytes, so a caller that knows its
  /// encoded size grows the buffer once.
  void reserve(size_t Bytes) { reserveAppend(Buffer, Bytes); }

  void writeU8(uint8_t V) { Buffer.push_back(V); }

  void writeU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buffer.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeU64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buffer.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeI32(int32_t V) { writeU32(static_cast<uint32_t>(V)); }

  void writeF32(float V) {
    uint32_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    writeU32(Bits);
  }

  /// \p Count floats as consecutive IEEE-754 bit patterns (what Count
  /// writeF32 calls produce, in one copy on little-endian hosts).
  void writeF32Array(const float *Data, size_t Count) {
    if constexpr (kHostIsLittleEndian) {
      writeBytes(Data, Count * sizeof(float));
    } else {
      for (size_t I = 0; I < Count; ++I)
        writeF32(Data[I]);
    }
  }

  /// Length-prefixed UTF-8 string.
  void writeString(const std::string &S) {
    writeU32(static_cast<uint32_t>(S.size()));
    Buffer.insert(Buffer.end(), S.begin(), S.end());
  }

  void writeBytes(const void *Data, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    Buffer.insert(Buffer.end(), P, P + Size);
  }

  /// Appends zero bytes until size() is a multiple of \p Alignment.
  void alignTo(size_t Alignment) {
    while (Buffer.size() % Alignment != 0)
      Buffer.push_back(0);
  }

  size_t size() const { return Buffer.size(); }
  const std::vector<unsigned char> &bytes() const { return Buffer; }
  std::vector<unsigned char> takeBytes() { return std::move(Buffer); }

private:
  std::vector<unsigned char> Buffer;
};

/// Walks a read-only byte span; reads past the end latch an error and
/// return zero values instead of touching out-of-bounds memory.
class ByteReader {
public:
  ByteReader(const unsigned char *Data, size_t Size)
      : Data(Data), Size(Size) {}
  ByteReader(const std::vector<unsigned char> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  bool ok() const { return !Failed; }
  const std::string &error() const { return ErrorMessage; }
  size_t position() const { return Pos; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }
  bool atEnd() const { return Failed || Pos == Size; }

  /// Latches a caller-detected semantic error (bad enum value, count out
  /// of range, ...) through the same channel as truncation.
  void fail(const std::string &Message) {
    if (!Failed) {
      Failed = true;
      ErrorMessage = Message;
    }
  }

  uint8_t readU8() {
    if (!require(1))
      return 0;
    return Data[Pos++];
  }

  uint32_t readU32() {
    if (!require(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }

  uint64_t readU64() {
    if (!require(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }

  int32_t readI32() { return static_cast<int32_t>(readU32()); }

  float readF32() {
    uint32_t Bits = readU32();
    float V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  /// Reads \p Count floats written by writeF32Array (or Count writeF32
  /// calls) into \p Out. On truncation latches an error, leaves \p Out
  /// untouched and returns false.
  bool readF32Array(float *Out, size_t Count) {
    if (Count > SIZE_MAX / sizeof(float)) {
      fail("float array of " + std::to_string(Count) +
           " elements is too large");
      return false;
    }
    if (!require(Count * sizeof(float)))
      return false;
    if constexpr (kHostIsLittleEndian) {
      if (Count != 0)
        std::memcpy(Out, Data + Pos, Count * sizeof(float));
      Pos += Count * sizeof(float);
    } else {
      for (size_t I = 0; I < Count; ++I)
        Out[I] = readF32();
    }
    return true;
  }

  std::string readString() {
    uint32_t Length = readU32();
    if (!require(Length))
      return std::string();
    std::string S(reinterpret_cast<const char *>(Data + Pos), Length);
    Pos += Length;
    return S;
  }

  /// Copies \p Count bytes out; on truncation returns an empty vector.
  std::vector<unsigned char> readBytes(size_t Count) {
    if (!require(Count))
      return {};
    std::vector<unsigned char> Out(Data + Pos, Data + Pos + Count);
    Pos += Count;
    return Out;
  }

private:
  bool require(size_t Count) {
    if (Failed)
      return false;
    if (Count > Size - Pos) {
      fail("unexpected end of data at byte " + std::to_string(Pos) +
           " (need " + std::to_string(Count) + " more, have " +
           std::to_string(Size - Pos) + ")");
      return false;
    }
    return true;
  }

  const unsigned char *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
  std::string ErrorMessage;
};

} // namespace dspec

#endif // DATASPEC_SUPPORT_BYTESTREAM_H
