// Genome and search-space codec for the closed-loop masking optimizer.
//
// A candidate masking configuration is three coupled decisions:
//
//   * guard_index — which guard-band fraction from a discrete palette the
//     SPCF targets (Δ_y = (1 − guard)·Δ); larger guards cover more paths
//     but cost more masking logic;
//   * effort — the C̃ synthesis-aggressiveness level fed through
//     SynthOptionsForEffort (masking/synth.h);
//   * protection scope — which outputs receive a prediction/indicator pair
//     and a mux: everything SPCF-critical (protect_all, the paper's
//     operating point) or an explicit subset.
//
// Genomes live in index space so variation operators stay cheap; the
// search space pins them to a circuit by recording, for every palette
// guard, the critical-output set the SPCF reports there. RepairGenome
// canonicalizes any raw genome against that set — after repair two genomes
// describe the same masking flow iff their CanonicalGenomeKey strings are
// equal, which is what the optimizer's evaluation archive keys on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "masking/synth.h"
#include "util/rng.h"

namespace sm {

// Per-circuit search space: the guard palette plus the critical-output set
// at each palette entry (ascending output indices, as reported by
// ComputeSpcf over the same mapped netlist the evaluator flows through).
struct OptSearchSpace {
  std::vector<double> guard_palette;
  std::size_t num_outputs = 0;
  // critical_per_guard[i] = critical outputs at guard_palette[i].
  std::vector<std::vector<std::size_t>> critical_per_guard;
};

// Palette non-empty, strictly ascending, each guard in (0, 1); one sorted
// in-range critical set per palette entry. Throws std::invalid_argument.
void ValidateSearchSpace(const OptSearchSpace& space);

struct OptGenome {
  int guard_index = 0;
  int effort = 2;  // 0 .. kNumSynthEffortLevels-1
  // protect_all masks every critical output at the genome's guard; else
  // `scope` lists the protected original-output indices (ascending).
  bool protect_all = true;
  std::vector<std::size_t> scope;
};

// Canonicalizes a genome in place: clamps guard_index/effort, sorts and
// dedupes the scope, intersects it with the critical set at the genome's
// guard, and collapses the two degenerate subsets (empty intersection,
// full critical set) to the protect_all representation. Every genome the
// optimizer evaluates has passed through here, so distinct keys really are
// distinct masking flows.
void RepairGenome(OptGenome& genome, const OptSearchSpace& space);

// Stable archive key, e.g. "g1|e2|all" or "g0|e3|s2,5,11". Only meaningful
// after RepairGenome.
std::string CanonicalGenomeKey(const OptGenome& genome);

// The paper's operating point: protect-all at the palette guard closest to
// 0.10, effort 2 (the paper's synthesis defaults). Seeded into generation 0
// so the search always knows the protect-all baseline it must beat.
OptGenome BaselineGenome(const OptSearchSpace& space);

// Uniform-ish random genome (random guard/effort; protect-all or a random
// non-empty critical subset), repaired.
OptGenome RandomGenome(Rng& rng, const OptSearchSpace& space);

// In-place mutation: ±1 palette/effort steps, protect-all <-> subset
// flips, and per-output scope toggles, followed by repair.
void MutateGenome(Rng& rng, OptGenome& genome, const OptSearchSpace& space);

// Uniform crossover: guard/effort picked per-gene; scope membership picked
// per critical output of the child's guard. Repaired.
OptGenome CrossoverGenomes(Rng& rng, const OptGenome& a, const OptGenome& b,
                           const OptSearchSpace& space);

// A genome resolved against its search space: everything an evaluator
// needs, decoupled from palette indices.
struct CandidateConfig {
  double guard = 0.1;
  int effort = 2;
  bool protect_all = true;
  std::vector<std::size_t> scope;
};

CandidateConfig ResolveGenome(const OptGenome& genome,
                              const OptSearchSpace& space);

}  // namespace sm
