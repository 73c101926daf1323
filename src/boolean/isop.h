// Minato–Morreale irredundant sum-of-products.
//
// Isop(on, dc) returns a cover F with on ⊆ F ⊆ on ∪ dc in which no cube and
// no literal is redundant. This is the exact two-level engine used for the
// on-set and off-set covers that Sec. 4's masking synthesis prunes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "boolean/sop.h"
#include "boolean/truth_table.h"

namespace sm {

// Requires on & dc == 0 is NOT required (dc may overlap on); the effective
// bounds are L = on & ~dc, U = on | dc.
Sop Isop(const TruthTable& on, const TruthTable& dc);

// Convenience: exact cover of the complement, Isop(~f, dc).
Sop IsopComplement(const TruthTable& f, const TruthTable& dc);

// Memoized exact cover Isop(f, 0). The cover depends only on f, so for
// functions of <= kWordVars variables it is computed once per (variable
// count, truth word) and copied out on later calls; wider functions are
// computed on every call. Synthesis, Sweep and decomposition meet the same
// few hundred node functions thousands of times. Not thread-safe: use one
// memo per single-threaded pass.
class IsopMemo {
 public:
  Sop Cover(const TruthTable& f);
  // The same for the k-variable function whose truth word is `word`
  // (k <= kWordVars; bits beyond 2^k are ignored).
  Sop Cover(int k, std::uint64_t word);

 private:
  struct KeyHash {
    std::size_t operator()(const std::pair<int, std::uint64_t>& key) const;
  };
  std::unordered_map<std::pair<int, std::uint64_t>, Sop, KeyHash> covers_;
};

// All prime implicants of f, by exhaustive cube enumeration — exponential in
// the variable count, intended for library-cell functions (<= ~8 inputs).
// The exact SPCF recursion (Eqn. 1 of the paper) quantifies over *all*
// primes of each gate's on-set and off-set, so an irredundant cover is not
// enough there.
Sop AllPrimes(const TruthTable& f);

}  // namespace sm
