//===- support/AlignedBuffer.h - Cacheline-aligned byte buffers -*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal over-aligning allocator and the ArenaBuffer alias built on
/// it. CacheArena storage must start on a cacheline: an unaligned base
/// skews any layout comparison (the same logical stride straddles one
/// more line on some runs than others) and defeats the tile-blocked
/// layout's premise that a slot column begins at a line boundary.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SUPPORT_ALIGNEDBUFFER_H
#define DATASPEC_SUPPORT_ALIGNEDBUFFER_H

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include <sys/mman.h>

namespace dspec {

/// Allocations of at least this many bytes are mapped straight from the
/// kernel and unmapped on release.
constexpr size_t kDirectMapBytes = size_t(1) << 20;

/// std::allocator drop-in that over-aligns every allocation to
/// \p Alignment bytes (a power of two, at least alignof(T), at most a
/// page). Allocations of kDirectMapBytes and up bypass the heap with
/// mmap/munmap: an evicted multi-MB arena then returns its memory to the
/// system at once, instead of staying in a heap whose mmap threshold
/// glibc raises after the first large free.
template <typename T, size_t Alignment> struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) {}

  T *allocate(size_t N) {
    if (N == 0)
      return nullptr;
    const size_t Bytes = roundedBytes(N);
    if (Bytes >= kDirectMapBytes) {
      // Page-aligned, hence Alignment-aligned, and zero-filled.
      void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (P == MAP_FAILED)
        throw std::bad_alloc();
      return static_cast<T *>(P);
    }
    return static_cast<T *>(
        ::operator new(Bytes, std::align_val_t(Alignment)));
  }

  void deallocate(T *P, size_t N) {
    if (!P)
      return;
    const size_t Bytes = roundedBytes(N);
    if (Bytes >= kDirectMapBytes)
      ::munmap(P, Bytes);
    else
      ::operator delete(P, std::align_val_t(Alignment));
  }

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator &, const AlignedAllocator &) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &, const AlignedAllocator &) {
    return false;
  }

private:
  /// Size must be a multiple of the alignment for some implementations
  /// of aligned allocation, so round.
  static size_t roundedBytes(size_t N) {
    return (N * sizeof(T) + Alignment - 1) / Alignment * Alignment;
  }
};

/// Cacheline width every arena allocation is aligned to.
constexpr size_t kArenaAlignBytes = 64;

/// Byte buffer whose data() is 64-byte aligned. The type CacheArena
/// stores and snapshots move in and out of (so a canonical arena image
/// can be adopted without a copy when the layout is identity).
using ArenaBuffer =
    std::vector<unsigned char, AlignedAllocator<unsigned char, kArenaAlignBytes>>;

} // namespace dspec

#endif // DATASPEC_SUPPORT_ALIGNEDBUFFER_H
