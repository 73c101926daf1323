#include "opt/genome.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace sm {
namespace {

int ClampInt(int v, int lo, int hi) { return std::max(lo, std::min(hi, v)); }

}  // namespace

void ValidateSearchSpace(const OptSearchSpace& space) {
  SM_REQUIRE(!space.guard_palette.empty(), "guard palette must be non-empty");
  for (std::size_t i = 0; i < space.guard_palette.size(); ++i) {
    const double g = space.guard_palette[i];
    SM_REQUIRE(std::isfinite(g) && g > 0 && g < 1,
               "guard palette entry " << i << " must be in (0, 1), got " << g);
    SM_REQUIRE(i == 0 || space.guard_palette[i - 1] < g,
               "guard palette must be strictly ascending");
  }
  SM_REQUIRE(space.critical_per_guard.size() == space.guard_palette.size(),
             "need one critical-output set per palette guard, got "
                 << space.critical_per_guard.size() << " sets for "
                 << space.guard_palette.size() << " guards");
  for (const auto& crit : space.critical_per_guard) {
    for (std::size_t i = 0; i < crit.size(); ++i) {
      SM_REQUIRE(crit[i] < space.num_outputs,
                 "critical output " << crit[i] << " out of range for "
                                    << space.num_outputs << " outputs");
      SM_REQUIRE(i == 0 || crit[i - 1] < crit[i],
                 "critical-output sets must be strictly ascending");
    }
  }
}

void RepairGenome(OptGenome& genome, const OptSearchSpace& space) {
  genome.guard_index = ClampInt(
      genome.guard_index, 0, static_cast<int>(space.guard_palette.size()) - 1);
  genome.effort = ClampInt(genome.effort, 0, kNumSynthEffortLevels - 1);
  if (genome.protect_all) {
    genome.scope.clear();
    return;
  }
  const auto& crit = space.critical_per_guard[genome.guard_index];
  std::sort(genome.scope.begin(), genome.scope.end());
  genome.scope.erase(std::unique(genome.scope.begin(), genome.scope.end()),
                     genome.scope.end());
  std::vector<std::size_t> kept;
  for (const std::size_t o : genome.scope) {
    if (std::binary_search(crit.begin(), crit.end(), o)) kept.push_back(o);
  }
  // Both degenerate subsets collapse to protect-all: the full critical set
  // because it IS protect-all, the empty set because "mask nothing" is not
  // a masking flow (ValidateMaskingSynthOptions rejects it).
  if (kept.empty() || kept.size() == crit.size()) {
    genome.protect_all = true;
    genome.scope.clear();
  } else {
    genome.scope = std::move(kept);
  }
}

std::string CanonicalGenomeKey(const OptGenome& genome) {
  std::ostringstream out;
  out << 'g' << genome.guard_index << "|e" << genome.effort << '|';
  if (genome.protect_all) {
    out << "all";
  } else {
    out << 's';
    for (std::size_t i = 0; i < genome.scope.size(); ++i) {
      if (i) out << ',';
      out << genome.scope[i];
    }
  }
  return out.str();
}

OptGenome BaselineGenome(const OptSearchSpace& space) {
  OptGenome g;
  g.effort = 2;
  g.protect_all = true;
  int best = 0;
  for (std::size_t i = 1; i < space.guard_palette.size(); ++i) {
    if (std::abs(space.guard_palette[i] - 0.1) <
        std::abs(space.guard_palette[best] - 0.1)) {
      best = static_cast<int>(i);
    }
  }
  g.guard_index = best;
  RepairGenome(g, space);
  return g;
}

OptGenome RandomGenome(Rng& rng, const OptSearchSpace& space) {
  OptGenome g;
  g.guard_index = static_cast<int>(rng.Below(space.guard_palette.size()));
  g.effort = static_cast<int>(rng.Below(kNumSynthEffortLevels));
  const auto& crit = space.critical_per_guard[g.guard_index];
  if (crit.size() > 1 && rng.Chance(0.6)) {
    // Random non-empty strict subset of the critical set.
    const std::size_t k = 1 + rng.Below(crit.size() - 1);
    std::vector<std::size_t> picks = rng.Sample(crit.size(), k);
    g.protect_all = false;
    for (const std::size_t i : picks) g.scope.push_back(crit[i]);
  }
  RepairGenome(g, space);
  return g;
}

void MutateGenome(Rng& rng, OptGenome& genome, const OptSearchSpace& space) {
  if (space.guard_palette.size() > 1 && rng.Chance(0.3)) {
    genome.guard_index += rng.Chance(0.5) ? 1 : -1;
  }
  if (rng.Chance(0.3)) genome.effort += rng.Chance(0.5) ? 1 : -1;
  // Clamp before indexing the per-guard critical set.
  genome.guard_index = ClampInt(
      genome.guard_index, 0, static_cast<int>(space.guard_palette.size()) - 1);
  const auto& crit = space.critical_per_guard[genome.guard_index];
  if (crit.size() > 1) {
    if (genome.protect_all) {
      if (rng.Chance(0.5)) {
        // Carve out a subset: drop a few random criticals from full scope.
        const std::size_t drop = 1 + rng.Below(std::max<std::size_t>(
                                         1, (crit.size() + 1) / 2));
        std::vector<std::size_t> dropped =
            rng.Sample(crit.size(), std::min(drop, crit.size()));
        std::sort(dropped.begin(), dropped.end());
        genome.protect_all = false;
        genome.scope.clear();
        for (std::size_t i = 0; i < crit.size(); ++i) {
          if (!std::binary_search(dropped.begin(), dropped.end(), i)) {
            genome.scope.push_back(crit[i]);
          }
        }
      }
    } else if (rng.Chance(0.15)) {
      genome.protect_all = true;
      genome.scope.clear();
    } else {
      // Toggle each critical output's membership with a rate tuned for a
      // couple of flips per mutation whatever the circuit width.
      const double p =
          std::min(0.5, 2.0 / static_cast<double>(crit.size()));
      std::vector<std::size_t> next;
      for (const std::size_t o : crit) {
        bool in = std::binary_search(genome.scope.begin(), genome.scope.end(), o);
        if (rng.Chance(p)) in = !in;
        if (in) next.push_back(o);
      }
      genome.scope = std::move(next);
    }
  }
  RepairGenome(genome, space);
}

OptGenome CrossoverGenomes(Rng& rng, const OptGenome& a, const OptGenome& b,
                           const OptSearchSpace& space) {
  OptGenome c;
  c.guard_index = rng.Chance(0.5) ? a.guard_index : b.guard_index;
  c.effort = rng.Chance(0.5) ? a.effort : b.effort;
  c.guard_index = ClampInt(
      c.guard_index, 0, static_cast<int>(space.guard_palette.size()) - 1);
  if (a.protect_all && b.protect_all) {
    c.protect_all = true;
  } else {
    const auto in_scope = [](const OptGenome& g, std::size_t o) {
      return g.protect_all ||
             std::binary_search(g.scope.begin(), g.scope.end(), o);
    };
    c.protect_all = false;
    // Membership inherited per critical output of the child's guard — the
    // scope analogue of uniform crossover.
    for (const std::size_t o : space.critical_per_guard[c.guard_index]) {
      if (rng.Chance(0.5) ? in_scope(a, o) : in_scope(b, o)) {
        c.scope.push_back(o);
      }
    }
  }
  RepairGenome(c, space);
  return c;
}

CandidateConfig ResolveGenome(const OptGenome& genome,
                              const OptSearchSpace& space) {
  SM_REQUIRE(genome.guard_index >= 0 &&
                 genome.guard_index <
                     static_cast<int>(space.guard_palette.size()),
             "genome guard_index " << genome.guard_index
                                   << " outside the palette");
  CandidateConfig c;
  c.guard = space.guard_palette[genome.guard_index];
  c.effort = genome.effort;
  c.protect_all = genome.protect_all;
  c.scope = genome.scope;
  return c;
}

}  // namespace sm
