//===- tests/TestSupport.cpp - Support library tests ------------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/AlignedBuffer.h"
#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Crc32.h"
#include "support/Diagnostics.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

using namespace dspec;

namespace {

TEST(Arena, AllocatesAndAligns) {
  Arena A;
  int *I = A.create<int>(42);
  double *D = A.create<double>(3.5);
  EXPECT_EQ(*I, 42);
  EXPECT_EQ(*D, 3.5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(D) % alignof(double), 0u);
  EXPECT_GE(A.bytesAllocated(), sizeof(int) + sizeof(double));
}

TEST(Arena, RunsDestructors) {
  static int Destroyed = 0;
  struct Probe {
    ~Probe() { ++Destroyed; }
  };
  Destroyed = 0;
  {
    Arena A;
    A.create<Probe>();
    A.create<Probe>();
    A.create<int>(1); // trivially destructible: not registered
  }
  EXPECT_EQ(Destroyed, 2);
}

TEST(Arena, GrowsAcrossSlabs) {
  Arena A;
  for (int I = 0; I < 10000; ++I)
    A.create<std::array<char, 64>>();
  EXPECT_GT(A.slabCount(), 1u);
}

TEST(Arena, ResetReleasesEverything) {
  static int Destroyed = 0;
  struct Probe {
    ~Probe() { ++Destroyed; }
  };
  Destroyed = 0;
  Arena A;
  A.create<Probe>();
  A.reset();
  EXPECT_EQ(Destroyed, 1);
  EXPECT_EQ(A.bytesAllocated(), 0u);
}

TEST(Arena, HandlesOversizedAllocations) {
  Arena A;
  void *Big = A.allocate(1 << 20, 16);
  EXPECT_NE(Big, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Big) % 16, 0u);
}

struct CastBase {
  enum class Kind { A, B } K;
  explicit CastBase(Kind K) : K(K) {}
};
struct CastA : CastBase {
  CastA() : CastBase(Kind::A) {}
  static bool classof(const CastBase *B) { return B->K == Kind::A; }
};
struct CastB : CastBase {
  CastB() : CastBase(Kind::B) {}
  static bool classof(const CastBase *B) { return B->K == Kind::B; }
};

TEST(Casting, IsaCastDynCast) {
  CastA A;
  CastBase *Base = &A;
  EXPECT_TRUE(isa<CastA>(Base));
  EXPECT_FALSE(isa<CastB>(Base));
  EXPECT_TRUE((isa<CastB, CastA>(Base)));
  EXPECT_EQ(cast<CastA>(Base), &A);
  EXPECT_EQ(dyn_cast<CastB>(Base), nullptr);
  EXPECT_NE(dyn_cast<CastA>(Base), nullptr);
  CastBase *Null = nullptr;
  EXPECT_FALSE(isa_and_nonnull<CastA>(Null));
  EXPECT_EQ(dyn_cast_or_null<CastA>(Null), nullptr);
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 2), "watch out");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(3, 4), "boom");
  Diags.note(SourceLoc(), "context");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
  std::string Text = Diags.str();
  EXPECT_NE(Text.find("error: 3:4: boom"), std::string::npos);
  EXPECT_NE(Text.find("warning: 1:2: watch out"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(StringUtil, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("empty"), "empty");
  // Long outputs are not truncated.
  std::string Long(500, 'a');
  EXPECT_EQ(formatString("%s", Long.c_str()).size(), 500u);
}

TEST(StringUtil, FormatFloatRoundTrips) {
  for (float V : {0.0f, 1.0f, -1.5f, 0.1f, 3.14159265f, 1e-8f, 2.5e10f}) {
    std::string Text = formatFloat(V);
    EXPECT_EQ(std::strtof(Text.c_str(), nullptr), V) << Text;
  }
}

TEST(StringUtil, FormatFloatLexesAsFloat) {
  EXPECT_EQ(formatFloat(2.0f), "2.0");
  EXPECT_EQ(formatFloat(-3.0f), "-3.0");
  EXPECT_NE(formatFloat(1e20f).find('e'), std::string::npos);
}

TEST(StringUtil, SplitTrimJoin) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(trimString("  hi \n"), "hi");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

/// The textbook byte-at-a-time CRC-32 (reflected 0xEDB88320), bit by bit:
/// the reference the table-driven crc32 must agree with everywhere.
uint32_t referenceCrc32(const unsigned char *Data, size_t Size,
                        uint32_t Seed = 0) {
  uint32_t C = Seed ^ 0xFFFFFFFFu;
  for (size_t I = 0; I < Size; ++I) {
    C ^= Data[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> crcTestBytes(size_t Size) {
  std::vector<unsigned char> Bytes(Size);
  uint32_t State = 0x12345678u;
  for (unsigned char &B : Bytes) {
    State = State * 1664525u + 1013904223u;
    B = static_cast<unsigned char>(State >> 24);
  }
  return Bytes;
}

TEST(Crc32, KnownAnswers) {
  const char *Check = "123456789";
  EXPECT_EQ(crc32(Check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Empty input leaves any seed unchanged.
  EXPECT_EQ(crc32(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32, MatchesByteAtATimeAtEveryLengthAndAlignment) {
  // Every length 0..64 from every start offset 0..7 covers the eight-byte
  // main loop, the byte tail, and every misalignment of both.
  std::vector<unsigned char> Bytes = crcTestBytes(64 + 8);
  for (size_t Offset = 0; Offset < 8; ++Offset)
    for (size_t Length = 0; Length <= 64; ++Length)
      EXPECT_EQ(crc32(Bytes.data() + Offset, Length),
                referenceCrc32(Bytes.data() + Offset, Length))
          << "offset " << Offset << ", length " << Length;
}

TEST(Crc32, SeedChainsAcrossEverySplit) {
  std::vector<unsigned char> Bytes = crcTestBytes(67);
  const uint32_t Whole = crc32(Bytes.data(), Bytes.size());
  EXPECT_EQ(Whole, referenceCrc32(Bytes.data(), Bytes.size()));
  for (size_t Split = 0; Split <= Bytes.size(); ++Split) {
    uint32_t A = crc32(Bytes.data(), Split);
    EXPECT_EQ(crc32(Bytes.data() + Split, Bytes.size() - Split, A), Whole)
        << "split at " << Split;
  }
}

TEST(Crc32, InterleavedStreamsMatchByteAtATime) {
  // Long inputs run as three interleaved streams joined by crc32Combine;
  // lengths around the 16 KiB switch-over, thirds that are not multiples
  // of eight, every misalignment, and a seed carried in.
  std::vector<unsigned char> Bytes = crcTestBytes(100003 + 8);
  for (size_t Length : {size_t(16383), size_t(16384), size_t(16385),
                        size_t(16391), size_t(3 * 16384 + 5), size_t(100003)})
    for (size_t Offset = 0; Offset < 8; ++Offset) {
      const unsigned char *At = Bytes.data() + Offset;
      EXPECT_EQ(crc32(At, Length), referenceCrc32(At, Length))
          << "offset " << Offset << ", length " << Length;
      EXPECT_EQ(crc32(At, Length, 0x9E3779B9u),
                referenceCrc32(At, Length, 0x9E3779B9u))
          << "seeded, offset " << Offset << ", length " << Length;
    }
}

TEST(Crc32, CombineMatchesSerialAtEverySplit) {
  // Every split of a short buffer, through both the general combine and
  // the precomputed shift for the second range's length.
  std::vector<unsigned char> Small = crcTestBytes(300);
  const uint32_t SmallWhole = crc32(Small.data(), Small.size());
  for (size_t Split = 0; Split <= Small.size(); ++Split) {
    uint32_t A = crc32(Small.data(), Split);
    uint32_t B = crc32(Small.data() + Split, Small.size() - Split);
    EXPECT_EQ(crc32Combine(A, B, Small.size() - Split), SmallWhole)
        << "split at " << Split;
    Crc32Shift Shift(Small.size() - Split);
    EXPECT_EQ(Shift.size(), Small.size() - Split);
    EXPECT_EQ(Shift.combine(A, B), SmallWhole) << "split at " << Split;
  }

  // Zero lengths on either side: an empty range's CRC is 0 and drops out.
  EXPECT_EQ(crc32Combine(SmallWhole, 0, 0), SmallWhole);
  EXPECT_EQ(crc32Combine(0, SmallWhole, Small.size()), SmallWhole);
  EXPECT_EQ(Crc32Shift(0).combine(SmallWhole, 0), SmallWhole);
  EXPECT_EQ(crc32Combine(0, 0, 0), 0u);

  // A 640x480 reply's worth of bytes (3,686,400), seeded random splits,
  // plus a tile-sized chain combined the way the render engine does.
  std::vector<unsigned char> Big = crcTestBytes(640 * 480 * 12);
  const uint32_t BigWhole = crc32(Big.data(), Big.size());
  EXPECT_EQ(BigWhole, referenceCrc32(Big.data(), Big.size()));
  uint32_t State = 961;
  for (int Trial = 0; Trial < 24; ++Trial) {
    State = State * 1664525u + 1013904223u;
    size_t Split = State % (Big.size() + 1);
    uint32_t A = crc32(Big.data(), Split);
    uint32_t B = crc32(Big.data() + Split, Big.size() - Split);
    EXPECT_EQ(crc32Combine(A, B, Big.size() - Split), BigWhole)
        << "split at " << Split;
  }
  const size_t Piece = 128 * 12;
  Crc32Shift PieceShift(Piece);
  uint32_t Chained = 0;
  for (size_t At = 0; At < Big.size(); At += Piece) {
    size_t Len = std::min(Piece, Big.size() - At);
    uint32_t C = crc32(Big.data() + At, Len);
    Chained = Len == Piece ? PieceShift.combine(Chained, C)
                           : crc32Combine(Chained, C, Len);
  }
  EXPECT_EQ(Chained, BigWhole);
}

//===----------------------------------------------------------------------===//
// AlignedAllocator: heap below kDirectMapBytes, mmap at and above it
//===----------------------------------------------------------------------===//

TEST(AlignedBuffer, AlignedAndZeroedAroundTheDirectMapThreshold) {
  for (size_t Size : {kDirectMapBytes - 64, kDirectMapBytes,
                      kDirectMapBytes + 1}) {
    ArenaBuffer Buffer(Size);
    ASSERT_EQ(Buffer.size(), Size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Buffer.data()) % kArenaAlignBytes,
              0u)
        << Size;
    EXPECT_TRUE(std::all_of(Buffer.begin(), Buffer.end(),
                            [](unsigned char B) { return B == 0; }))
        << Size;
    // The whole extent is writable, and a copy (a second allocation of
    // the same size class) carries the bytes over.
    Buffer.front() = 0x5a;
    Buffer.back() = 0xa5;
    ArenaBuffer Copy = Buffer;
    EXPECT_EQ(Copy.front(), 0x5a);
    EXPECT_EQ(Copy.back(), 0xa5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Copy.data()) % kArenaAlignBytes,
              0u);
  }
}

TEST(AlignedBuffer, GrowsAcrossTheDirectMapThreshold) {
  // Reallocation moves the bytes from a heap block into a mapping and
  // releases the heap block; shrinking back releases the mapping.
  ArenaBuffer Buffer(1000, 7);
  Buffer.resize(kDirectMapBytes + 4096, 9);
  EXPECT_EQ(Buffer[999], 7);
  EXPECT_EQ(Buffer[1000], 9);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Buffer.data()) % kArenaAlignBytes,
            0u);
  Buffer.resize(10);
  Buffer.shrink_to_fit();
  EXPECT_EQ(Buffer.size(), 10u);
  EXPECT_EQ(Buffer[9], 7);
}

TEST(SourceLoc, Validity) {
  SourceLoc Invalid;
  EXPECT_FALSE(Invalid.isValid());
  EXPECT_EQ(Invalid.str(), "<unknown>");
  SourceLoc Loc(7, 3);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "7:3");
  EXPECT_TRUE(Loc == SourceLoc(7, 3));
  EXPECT_TRUE(Loc != SourceLoc(7, 4));
}

} // namespace
