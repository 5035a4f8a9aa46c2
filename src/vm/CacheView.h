//===- vm/CacheView.h - Packed cache buffer view ----------------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-owning view over one specialization instance's packed cache: a
/// raw byte buffer whose typed slots live at the byte offsets computed by
/// the specializer's CacheLayout. This is the runtime realization of the
/// paper's Figure 8 byte counts — a float slot really is 4 bytes, a vec3
/// slot 12 — instead of an array of tagged boxes. Cache instructions
/// carry (offset, type), so loads and stores are single bounds-checked
/// memcpys with no tag dispatch on the hot path.
///
/// Two orthogonal extensions over a plain pointer+size:
///
///  - Read-only views. A view built from a const buffer (the reader-pass
///    path) has no store pointer; every execution tier traps a cache
///    store against it instead of silently writing through a loader-less
///    pass. readOnly() is the tiers' test.
///
///  - Mapped addressing. The CacheArena can arrange its bytes slot-major
///    or tile-blocked (engine/ArenaLayout.h) while bytecode keeps using
///    canonical pixel-major offsets. A mapped view carries a per-4-byte-
///    word table of affine address entries; the address of logical
///    offset O is
///
///        Base(O>>2) + BlockIdx * Block(O>>2) + Lane * LaneW(O>>2)
///        + (O & 3)
///
///    where (BlockIdx, Lane) locate the view's pixel inside its block.
///    A null map is the dense fast path — identical code to the seed.
///    Bounds checks always use the *logical* stride, so a mapped view
///    traps exactly where a dense one would.
///
/// Views are cheap value objects. The bytes they point at are typically
/// one pixel's stride inside a CacheArena (see engine/CacheArena.h), but
/// any buffer of at least the layout's totalBytes() works.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_VM_CACHEVIEW_H
#define DATASPEC_VM_CACHEVIEW_H

#include "vm/Value.h"

#include <cstdint>
#include <cstring>

namespace dspec {

/// Affine address of one canonical 4-byte word of the cache stride under
/// a non-identity arena layout: physical byte = Base + BlockIdx * Block +
/// Lane * LaneW (all relative to the arena's buffer start).
struct ArenaSlotAddr {
  uint32_t Base = 0;  ///< column start + intra-slot word displacement
  uint32_t Block = 0; ///< physical bytes per pixel block
  uint32_t LaneW = 0; ///< slot width: per-lane element stride in a column
};

/// A typed window onto one packed cache instance.
class CacheView {
public:
  CacheView() = default;
  /// Writable dense view (loader path / plain buffers).
  CacheView(unsigned char *Data, unsigned SizeBytes)
      : Bytes(Data), Mut(Data), Size(SizeBytes) {}
  /// Read-only dense view: loads succeed, stores have no target — the
  /// interpreters trap them via readOnly(). This is the constructor
  /// CacheArena's const accessor uses instead of a const_cast.
  CacheView(const unsigned char *Data, unsigned SizeBytes)
      : Bytes(Data), Size(SizeBytes) {}

  /// Writable mapped view over the whole arena buffer for the pixel at
  /// (BlockIndex, LaneIndex). \p LogicalSize is the canonical stride.
  static CacheView mapped(unsigned char *Buffer, unsigned LogicalSize,
                          const ArenaSlotAddr *AddrMap, unsigned BlockIndex,
                          unsigned LaneIndex) {
    CacheView V(Buffer, LogicalSize);
    V.Map = AddrMap;
    V.BlockIdx = BlockIndex;
    V.Lane = LaneIndex;
    return V;
  }
  /// Read-only mapped view.
  static CacheView mapped(const unsigned char *Buffer, unsigned LogicalSize,
                          const ArenaSlotAddr *AddrMap, unsigned BlockIndex,
                          unsigned LaneIndex) {
    CacheView V(Buffer, LogicalSize);
    V.Map = AddrMap;
    V.BlockIdx = BlockIndex;
    V.Lane = LaneIndex;
    return V;
  }

  bool valid() const { return Bytes != nullptr || Size == 0; }
  /// True when stores must trap: the view was built over const bytes.
  bool readOnly() const { return Mut == nullptr && Bytes != nullptr; }
  unsigned sizeInBytes() const { return Size; }
  const unsigned char *data() const { return Bytes; }
  /// Store-side base pointer; null on read-only views.
  unsigned char *mutableData() const { return Mut; }

  /// True iff a slot of \p Kind at byte \p Offset lies inside the buffer.
  /// Always judged against the logical stride, never the physical
  /// arrangement, so every layout traps identically.
  bool inBounds(unsigned Offset, TypeKind Kind) const {
    unsigned Width = Type(Kind).sizeInBytes();
    return Offset + Width <= Size && Width != 0;
  }

  /// Reads the slot of \p Kind at logical byte \p Offset. The caller must
  /// have bounds-checked via inBounds.
  Value load(unsigned Offset, TypeKind Kind) const {
    return loadRaw(Bytes + displacement(Offset), Kind);
  }

  /// Writes \p V into the slot at logical \p Offset. \p V's runtime kind
  /// selects the byte width; the caller must have bounds-checked via
  /// inBounds, verified the kind matches the layout's slot type, and
  /// rejected read-only views (readOnly()) with its tier's trap.
  void store(unsigned Offset, const Value &V) {
    if (!Mut)
      return; // defense in depth: the tiers trap before reaching here
    storeRaw(Mut + displacement(Offset), V);
  }

private:
  /// Builds a Value of \p Kind from the raw slot bytes at \p Slot.
  static Value loadRaw(const unsigned char *Slot, TypeKind Kind) {
    Value Out;
    Out.Kind = Kind;
    switch (Kind) {
    case TypeKind::TK_Bool:
    case TypeKind::TK_Int:
      std::memcpy(&Out.I, Slot, sizeof(int32_t));
      break;
    case TypeKind::TK_Float:
      std::memcpy(&Out.F[0], Slot, sizeof(float));
      break;
    case TypeKind::TK_Vec2:
      std::memcpy(Out.F, Slot, 2 * sizeof(float));
      break;
    case TypeKind::TK_Vec3:
      std::memcpy(Out.F, Slot, 3 * sizeof(float));
      break;
    case TypeKind::TK_Vec4:
      std::memcpy(Out.F, Slot, 4 * sizeof(float));
      break;
    case TypeKind::TK_Void:
      break;
    }
    return Out;
  }

  /// Writes \p V's payload bytes to \p Slot (the store-side counterpart
  /// of loadRaw).
  static void storeRaw(unsigned char *Slot, const Value &V) {
    switch (V.Kind) {
    case TypeKind::TK_Bool:
    case TypeKind::TK_Int:
      std::memcpy(Slot, &V.I, sizeof(int32_t));
      break;
    case TypeKind::TK_Float:
      std::memcpy(Slot, &V.F[0], sizeof(float));
      break;
    case TypeKind::TK_Vec2:
      std::memcpy(Slot, V.F, 2 * sizeof(float));
      break;
    case TypeKind::TK_Vec3:
      std::memcpy(Slot, V.F, 3 * sizeof(float));
      break;
    case TypeKind::TK_Vec4:
      std::memcpy(Slot, V.F, 4 * sizeof(float));
      break;
    case TypeKind::TK_Void:
      break;
    }
  }

  /// Physical byte displacement of logical \p Offset from the view base.
  size_t displacement(unsigned Offset) const {
    if (!Map)
      return Offset;
    const ArenaSlotAddr &E = Map[Offset >> 2];
    return static_cast<size_t>(E.Base) +
           static_cast<size_t>(BlockIdx) * E.Block +
           static_cast<size_t>(Lane) * E.LaneW + (Offset & 3u);
  }

  const unsigned char *Bytes = nullptr; ///< load base
  unsigned char *Mut = nullptr;         ///< store base; null = read-only
  const ArenaSlotAddr *Map = nullptr;   ///< null = dense (identity) layout
  unsigned Size = 0;                    ///< logical stride in bytes
  unsigned BlockIdx = 0;
  unsigned Lane = 0;
};

} // namespace dspec

#endif // DATASPEC_VM_CACHEVIEW_H
