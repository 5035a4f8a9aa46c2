//===- support/Crc32.h - CRC-32 checksums -----------------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) used to checksum
/// every DSPF frame payload (each service reply, both ways), snapshot
/// file sections and spill files. A 640x480 reply is 3.7 MB, so this is
/// on the hot path of every cache hit: slicing-by-8 consumes eight bytes
/// per step through eight 256-entry tables, and the tail runs byte at a
/// time through the first. The values are exactly the classic
/// byte-at-a-time CRC's (tests/TestSupport.cpp checks both against each
/// other and against the "123456789" check value).
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SUPPORT_CRC32_H
#define DATASPEC_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>

namespace dspec {

/// CRC-32 of \p Size bytes at \p Data. \p Seed allows incremental use:
/// crc32(B, crc32(A)) == crc32(A ++ B).
uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0);

} // namespace dspec

#endif // DATASPEC_SUPPORT_CRC32_H
