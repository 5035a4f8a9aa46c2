//===- engine/RenderContext.cpp - Per-pixel fixed inputs ------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/RenderContext.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

using namespace dspec;

/// One image size's interned pixel data.
struct RenderGrid::Data {
  size_t Count = 0;
  /// NumColumns columns of Count floats, back to back.
  std::vector<float> Columns;
  /// The Value form, built on the first pixels() call.
  mutable std::once_flag PixelsOnce;
  mutable std::vector<PixelInput> Pixels;
};

namespace {

using GridData = RenderGrid::Data;

/// The fixed inputs of every pixel of a W x H grid, as columns.
GridData *buildGridData(unsigned W, unsigned H) {
  auto *Out = new GridData;
  Out->Count = static_cast<size_t>(W) * H;
  Out->Columns.resize(RenderGrid::NumColumns * Out->Count);
  auto Col = [&](unsigned C) { return Out->Columns.data() + C * Out->Count; };
  const float EyeX = 0.0f, EyeY = 0.0f, EyeZ = 4.0f;
  size_t Index = 0;
  for (unsigned PY = 0; PY < H; ++PY) {
    for (unsigned PX = 0; PX < W; ++PX, ++Index) {
      float U = W > 1 ? static_cast<float>(PX) / (W - 1) : 0.0f;
      float V = H > 1 ? static_cast<float>(PY) / (H - 1) : 0.0f;
      float X = U * 2.0f - 1.0f;
      float Y = V * 2.0f - 1.0f;
      // Height field z = 0.25 sin(3x) cos(2y) with analytic gradient.
      float Z = 0.25f * std::sin(3.0f * X) * std::cos(2.0f * Y);
      float DZDX = 0.75f * std::cos(3.0f * X) * std::cos(2.0f * Y);
      float DZDY = -0.5f * std::sin(3.0f * X) * std::sin(2.0f * Y);

      float NX = -DZDX, NY = -DZDY, NZ = 1.0f;
      float NLen = std::sqrt(NX * NX + NY * NY + NZ * NZ);
      NX /= NLen;
      NY /= NLen;
      NZ /= NLen;

      float IX = EyeX - X, IY = EyeY - Y, IZ = EyeZ - Z;
      float ILen = std::sqrt(IX * IX + IY * IY + IZ * IZ);
      IX /= ILen;
      IY /= ILen;
      IZ /= ILen;

      const float Fields[RenderGrid::NumColumns] = {U,  V,  X,  Y,  Z, NX,
                                                    NY, NZ, IX, IY, IZ};
      for (unsigned C = 0; C < RenderGrid::NumColumns; ++C)
        Col(C)[Index] = Fields[C];
    }
  }
  return Out;
}

/// The per-size intern table. Deliberately never destroyed: a grid held
/// by a static object may outlive every other static, and its deleter
/// still needs the table.
struct GridTable {
  std::mutex Mutex;
  std::map<std::pair<unsigned, unsigned>, std::weak_ptr<const GridData>>
      Entries;
};

GridTable &gridTable() {
  static GridTable *Table = new GridTable;
  return *Table;
}

} // namespace

RenderGrid::RenderGrid(unsigned Width, unsigned Height) : W(Width), H(Height) {
  GridTable &Table = gridTable();
  const std::pair<unsigned, unsigned> Key(W, H);
  // Built under the lock, so racing constructions of one size share one
  // entry; the cost is paid once per size while any grid of it lives.
  std::lock_guard<std::mutex> Lock(Table.Mutex);
  std::weak_ptr<const GridData> &Slot = Table.Entries[Key];
  Shared = Slot.lock();
  if (Shared)
    return;
  // The last handle's deleter frees the data and drops the table entry,
  // unless a newer entry of the same size has replaced it meanwhile.
  Shared = std::shared_ptr<const GridData>(
      buildGridData(W, H), [Key](const GridData *Data) {
        delete Data;
        GridTable &Table = gridTable();
        std::lock_guard<std::mutex> Lock(Table.Mutex);
        auto It = Table.Entries.find(Key);
        if (It != Table.Entries.end() && It->second.expired())
          Table.Entries.erase(It);
      });
  Slot = Shared;
}

const float *RenderGrid::column(unsigned C) const {
  return Shared->Columns.data() + C * Shared->Count;
}

PixelInput RenderGrid::pixel(size_t Index) const {
  auto At = [&](unsigned C) { return column(C)[Index]; };
  PixelInput In;
  In.UV = Value::makeVec2(At(UVX), At(UVY));
  In.P = Value::makeVec3(At(PX), At(PY), At(PZ));
  In.N = Value::makeVec3(At(NX), At(NY), At(NZ));
  In.I = Value::makeVec3(At(IX), At(IY), At(IZ));
  return In;
}

const std::vector<PixelInput> &RenderGrid::pixels() const {
  std::call_once(Shared->PixelsOnce, [this] {
    std::vector<PixelInput> &Out = Shared->Pixels;
    Out.reserve(Shared->Count);
    for (size_t I = 0; I < Shared->Count; ++I)
      Out.push_back(pixel(I));
  });
  return Shared->Pixels;
}

size_t RenderGrid::internedSizes() {
  GridTable &Table = gridTable();
  std::lock_guard<std::mutex> Lock(Table.Mutex);
  return Table.Entries.size();
}

std::string Framebuffer::asciiArt() const {
  static const char Ramp[] = " .:-=+*#%@";
  std::string Out;
  Out.reserve((W + 1) * H);
  for (unsigned Y = 0; Y < H; ++Y) {
    for (unsigned X = 0; X < W; ++X) {
      const Value &C = at(X, Y);
      float Lum = 0.299f * C.F[0] + 0.587f * C.F[1] + 0.114f * C.F[2];
      Lum = Lum < 0.0f ? 0.0f : (Lum > 1.0f ? 1.0f : Lum);
      Out += Ramp[static_cast<int>(Lum * 9.0f + 0.5f)];
    }
    Out += '\n';
  }
  return Out;
}

bool Framebuffer::writePPM(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  std::fprintf(File, "P6\n%u %u\n255\n", W, H);
  for (const Value &C : Pixels) {
    for (int Channel = 0; Channel < 3; ++Channel) {
      float Component = C.F[Channel];
      Component = Component < 0.0f ? 0.0f : (Component > 1.0f ? 1.0f : Component);
      unsigned char Byte = static_cast<unsigned char>(Component * 255.0f + 0.5f);
      std::fputc(Byte, File);
    }
  }
  std::fclose(File);
  return true;
}
