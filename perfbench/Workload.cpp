//===- perfbench/Workload.cpp - Seeded request streams ----------------------===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using dspec::ShaderInfo;
using dspec::shaderGallery;

namespace {

/// Frames per shader block in drag.
constexpr unsigned DragBlockFrames = 2;
/// Explore's set-up fills the UnitCache with this many small units (twice
/// the default 64-unit capacity, so every shard is full w.h.p.).
constexpr unsigned ExploreFillUnits = 128;
constexpr unsigned ExploreFillWidth = 16;
constexpr unsigned ExploreFillHeight = 12;
/// Studio: simulated users, partition universe (about 3x the default
/// 64-unit UnitCache), Zipf exponent of scene popularity within a shader,
/// mean frames per drag before a user switches partition.
constexpr unsigned StudioUsers = 16;
constexpr unsigned StudioPartitions = 190;
constexpr double StudioZipfExponent = 1.0;
constexpr double StudioMeanDragFrames = 8.0;
/// Studio's arrival schedule, against a measured capacity of about 75-80
/// requests/s with the default ServiceConfig on a 4-core host: every
/// period, a burst at ~3x capacity, then calm at ~40% of it.
constexpr double StudioCalmRps = 30.0;
constexpr double StudioBurstRps = 240.0;
constexpr double StudioPeriodSeconds = 4.0;
constexpr double StudioBurstSeconds = 0.5;

/// Seeds the workloads' catalogues: drag's dragged control per shader,
/// explore's order of partitions, studio's scenes and their popularity.
/// They are part of the workload's definition, not of a run: which slider
/// is dragged sets most of a frame's cost, so a per-run choice would make
/// runs incomparable.
constexpr uint64_t CatalogueSeed = 0xda7a5bec1996ull;

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(static_cast<unsigned>(I))]);
}

std::vector<float> defaults(const ShaderInfo &Info) {
  std::vector<float> Out;
  for (const dspec::ControlParam &C : Info.Controls)
    Out.push_back(C.Default);
  return Out;
}

std::vector<float> drawControls(const ShaderInfo &Info, Rng &R) {
  std::vector<float> Out;
  for (const dspec::ControlParam &C : Info.Controls)
    Out.push_back(R.between(C.SweepMin, C.SweepMax));
  return Out;
}

/// All (shader, control) pairs of the gallery: the paper's 131 partitions.
std::vector<std::pair<unsigned, unsigned>> allPartitions() {
  std::vector<std::pair<unsigned, unsigned>> Out;
  const auto &Gallery = shaderGallery();
  for (unsigned S = 0; S < Gallery.size(); ++S)
    for (unsigned C = 0; C < Gallery[S].Controls.size(); ++C)
      Out.push_back({S, C});
  return Out;
}

/// The \p U-quantile (U in [0, 1)) of the geometric distribution on
/// {1, 2, ...} with the given mean.
unsigned geometricQuantile(double U, double Mean) {
  if (Mean <= 1.0)
    return 1;
  return 1 + static_cast<unsigned>(std::floor(std::log1p(-U) /
                                              std::log(1.0 - 1.0 / Mean)));
}

} // namespace

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

unsigned Rng::below(unsigned N) {
  return static_cast<unsigned>(uniform() * N);
}

float Rng::between(float Lo, float Hi) {
  return Lo + static_cast<float>(uniform()) * (Hi - Lo);
}

bool perfbench::parseKind(const std::string &Name, Kind &Out) {
  for (Kind K : {Kind::Drag, Kind::Explore, Kind::Studio})
    if (Name == kindName(K)) {
      Out = K;
      return true;
    }
  return false;
}

const char *perfbench::kindName(Kind K) {
  switch (K) {
  case Kind::Drag:
    return "drag";
  case Kind::Explore:
    return "explore";
  case Kind::Studio:
    return "studio";
  }
  return "?";
}

WorkloadShape perfbench::shapeOf(Kind K) {
  switch (K) {
  case Kind::Drag:
  case Kind::Explore:
    return {640, 480, 0, 1, false};
  case Kind::Studio:
    return {160, 120, 250, 4, true};
  }
  return {};
}

Stream::Stream(Kind InK, uint64_t Seed)
    : K(InK), Shape(shapeOf(InK)),
      Random(Seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(InK)),
      WarmupSeed(~Seed * 0x9e3779b97f4a7c15ull) {
  const auto &Gallery = shaderGallery();
  const unsigned NumShaders = static_cast<unsigned>(Gallery.size());
  Rng Catalogue(CatalogueSeed + static_cast<uint64_t>(InK));
  switch (K) {
  case Kind::Drag:
    for (unsigned S = 0; S < NumShaders; ++S)
      DragParts.push_back(
          {S,
           Catalogue.below(static_cast<unsigned>(Gallery[S].Controls.size())),
           defaults(Gallery[S])});
    DragOffset = Random.below(NumShaders);
    break;
  case Kind::Explore: {
    // Smooth weighted round robin with weights = control counts, and per
    // shader its controls in catalogue order: over a cycle of 131 requests
    // every partition appears once, shaders spread evenly. Every run walks
    // the same cycle, so runs differ in the values of every control (each
    // request is a new scene), not in their mix of partitions.
    std::vector<int> Weight, Current(NumShaders, 0);
    int Total = 0;
    for (const ShaderInfo &Info : Gallery) {
      Weight.push_back(static_cast<int>(Info.Controls.size()));
      Total += Weight.back();
    }
    for (int Step = 0; Step < Total; ++Step) {
      unsigned Best = 0;
      for (unsigned S = 0; S < NumShaders; ++S) {
        Current[S] += Weight[S];
        if (Current[S] > Current[Best])
          Best = S;
      }
      Current[Best] -= Total;
      ExploreShaders.push_back(Best);
    }
    for (unsigned S = 0; S < NumShaders; ++S) {
      std::vector<unsigned> Perm(Gallery[S].Controls.size());
      for (unsigned C = 0; C < Perm.size(); ++C)
        Perm[C] = C;
      shuffle(Perm, Catalogue);
      ExploreControls.push_back(std::move(Perm));
    }
    ExploreNextControl.assign(NumShaders, 0);
    break;
  }
  case Kind::Studio: {
    // Per shader: one dragged control (from the catalogue) and scenes that
    // differ in the fixed controls: the defaults first, then drawn ones, in
    // the catalogue's popularity order.
    const unsigned PerShader = StudioPartitions / NumShaders;
    for (unsigned S = 0; S < NumShaders; ++S) {
      const ShaderInfo &Info = Gallery[S];
      unsigned Dragged =
          Catalogue.below(static_cast<unsigned>(Info.Controls.size()));
      std::vector<Partition> Scenes = {{S, Dragged, defaults(Info)}};
      while (Scenes.size() < PerShader)
        Scenes.push_back({S, Dragged, drawControls(Info, Catalogue)});
      shuffle(Scenes, Catalogue);
      StudioScenes.push_back(std::move(Scenes));
    }
    double Sum = 0.0;
    for (unsigned R = 1; R <= PerShader; ++R) {
      Sum += 1.0 / std::pow(static_cast<double>(R), StudioZipfExponent);
      ZipfCdf.push_back(Sum);
    }
    for (double &C : ZipfCdf)
      C /= Sum;
    Users.resize(StudioUsers);
    RankOffset = Random.uniform();
    LengthOffset = Random.uniform();
    break;
  }
  }
}

Planned Stream::make(const Partition &P, float VaryingValue, unsigned W,
                     unsigned H) const {
  const ShaderInfo &Info = shaderGallery()[P.Shader];
  Planned Out;
  Out.Shader = P.Shader;
  Out.Request.Shader = Info.Name;
  Out.Request.Width = W;
  Out.Request.Height = H;
  Out.Request.Varying = {Info.Controls[P.Varying].Name};
  Out.Request.Controls = P.Controls;
  Out.Request.Controls[P.Varying] = VaryingValue;
  Out.Request.DeadlineMillis = Shape.DeadlineMillis;
  return Out;
}

std::vector<Planned> Stream::warmup() const {
  const auto &Gallery = shaderGallery();
  std::vector<Planned> Out;
  Rng R(WarmupSeed);
  switch (K) {
  case Kind::Drag:
    // Build every unit.
    for (const Partition &P : DragParts) {
      const auto &C = Gallery[P.Shader].Controls[P.Varying];
      Out.push_back(make(P, R.between(C.SweepMin, C.SweepMax), Shape.Width,
                         Shape.Height));
    }
    break;
  case Kind::Explore: {
    auto Pairs = allPartitions();
    for (unsigned I = 0; I < ExploreFillUnits; ++I) {
      auto [S, C] = Pairs[R.below(static_cast<unsigned>(Pairs.size()))];
      Partition P{S, C, drawControls(Gallery[S], R)};
      Out.push_back(make(P, P.Controls[C], ExploreFillWidth,
                         ExploreFillHeight));
    }
    // Two full-size builds of fixed partitions warm the large allocations.
    Rng Catalogue(CatalogueSeed + static_cast<uint64_t>(K));
    for (unsigned I = 0; I < 2; ++I) {
      auto [S, C] = Pairs[Catalogue.below(static_cast<unsigned>(Pairs.size()))];
      Partition P{S, C, drawControls(Gallery[S], R)};
      Out.push_back(make(P, P.Controls[C], Shape.Width, Shape.Height));
    }
    break;
  }
  case Kind::Studio:
    for (unsigned S = 0; S < Gallery.size(); ++S) {
      Partition P{S, 0, defaults(Gallery[S])};
      Out.push_back(make(P, P.Controls[0], Shape.Width, Shape.Height));
    }
    break;
  }
  return Out;
}

unsigned Stream::cycleLength() const {
  return K == Kind::Drag
             ? DragBlockFrames * static_cast<unsigned>(DragParts.size())
             : 0;
}

unsigned Stream::pickZipf(double U) const {
  auto It = std::lower_bound(ZipfCdf.begin(), ZipfCdf.end(), U);
  return static_cast<unsigned>(
      std::min<size_t>(It - ZipfCdf.begin(), ZipfCdf.size() - 1));
}

Planned Stream::next() {
  const auto &Gallery = shaderGallery();
  uint64_t I = Count++;
  switch (K) {
  case Kind::Drag: {
    const Partition &P =
        DragParts[(DragOffset + I / DragBlockFrames) % DragParts.size()];
    const auto &C = Gallery[P.Shader].Controls[P.Varying];
    return make(P, Random.between(C.SweepMin, C.SweepMax), Shape.Width,
                Shape.Height);
  }
  case Kind::Explore: {
    unsigned S = ExploreShaders[I % ExploreShaders.size()];
    const std::vector<unsigned> &Perm = ExploreControls[S];
    unsigned C = Perm[ExploreNextControl[S]++ % Perm.size()];
    Partition P{S, C, drawControls(Gallery[S], Random)};
    return make(P, P.Controls[C], Shape.Width, Shape.Height);
  }
  case Kind::Studio: {
    // Poisson arrivals conditioned on their count: each calm or burst
    // segment gets exactly rate x length arrivals at uniformly drawn times,
    // so runs differ in when requests come, not in how many.
    while (NextArrival == Arrivals.size()) {
      bool Burst = Segment % 2 == 0;
      double Start = static_cast<double>(Segment / 2) * StudioPeriodSeconds +
                     (Burst ? 0.0 : StudioBurstSeconds);
      double Length = Burst ? StudioBurstSeconds
                            : StudioPeriodSeconds - StudioBurstSeconds;
      double Rate = Burst ? StudioBurstRps : StudioCalmRps;
      ++Segment;
      Arrivals.clear();
      NextArrival = 0;
      for (long N = std::lround(Rate * Length); N > 0; --N)
        Arrivals.push_back(Start + Random.uniform() * Length);
      std::sort(Arrivals.begin(), Arrivals.end());
    }
    double Due = Arrivals[NextArrival++];
    unsigned UserIndex = Random.below(static_cast<unsigned>(Users.size()));
    User &U = Users[UserIndex];
    if (U.FramesLeft == 0) {
      // Sessions come in rounds, one per shader in turn, and every session
      // of a round drags the same popularity rank for the same number of
      // frames, both drawn from a seeded low-discrepancy sequence. So every
      // shader gets the same traffic in every run, and the Zipf and
      // geometric draws cover their distributions evenly instead of
      // clumping differently from run to run.
      uint64_t Round = Sessions / StudioScenes.size();
      U.Shader = static_cast<unsigned>(Sessions++ % StudioScenes.size());
      double Golden = 0.6180339887498949, Silver = 0.4142135623730951;
      double RankDraw = RankOffset + static_cast<double>(Round) * Golden;
      double LengthDraw = LengthOffset + static_cast<double>(Round) * Silver;
      U.Scene = pickZipf(RankDraw - std::floor(RankDraw));
      U.FramesLeft = geometricQuantile(LengthDraw - std::floor(LengthDraw),
                                       StudioMeanDragFrames);
    }
    --U.FramesLeft;
    const Partition &P = StudioScenes[U.Shader][U.Scene];
    const auto &C = Gallery[P.Shader].Controls[P.Varying];
    Planned Out = make(P, Random.between(C.SweepMin, C.SweepMax), Shape.Width,
                       Shape.Height);
    Out.DueSeconds = Due;
    Out.User = UserIndex;
    return Out;
  }
  }
  return {};
}
