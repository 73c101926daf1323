#include "boolean/isop.h"

#include "util/check.h"

namespace sm {
namespace {

// Core recursion: returns a cover F with L ⊆ F ⊆ U, and writes the truth
// table of F to *cover_tt. Requires L ⊆ U. `max_var` bounds the possible
// support (cofactoring only removes variables), avoiding repeated
// support scans over high variables.
Sop IsopRec(const TruthTable& lower, const TruthTable& upper, int num_vars,
            int max_var, TruthTable* cover_tt) {
  if (lower.IsConst0()) {
    *cover_tt = TruthTable::Const0(num_vars);
    return Sop::Const0(num_vars);
  }
  if (upper.IsConst1()) {
    *cover_tt = TruthTable::Const1(num_vars);
    return Sop::Const1(num_vars);
  }

  // Split on the highest variable in the support of either bound.
  int var = -1;
  for (int v = max_var; v >= 0; --v) {
    if (lower.DependsOn(v) || upper.DependsOn(v)) {
      var = v;
      break;
    }
  }
  SM_CHECK(var >= 0, "non-constant bounds must have a support variable");

  const TruthTable l0 = lower.Cofactor(var, false);
  const TruthTable l1 = lower.Cofactor(var, true);
  const TruthTable u0 = upper.Cofactor(var, false);
  const TruthTable u1 = upper.Cofactor(var, true);

  // Minterms that must be covered by cubes containing the literal var' / var.
  TruthTable f0_tt(num_vars);
  TruthTable f1_tt(num_vars);
  const Sop c0 = IsopRec(l0 & ~u1, u0, num_vars, var - 1, &f0_tt);
  const Sop c1 = IsopRec(l1 & ~u0, u1, num_vars, var - 1, &f1_tt);

  // Remainder: minterms of L not yet covered; coverable without `var`.
  const TruthTable l_star = (l0 & ~f0_tt) | (l1 & ~f1_tt);
  TruthTable fs_tt(num_vars);
  const Sop cs = IsopRec(l_star, u0 & u1, num_vars, var - 1, &fs_tt);

  Sop out(num_vars);
  for (const Cube& c : c0.cubes()) out.AddCube(c.WithLiteral(var, false));
  for (const Cube& c : c1.cubes()) out.AddCube(c.WithLiteral(var, true));
  for (const Cube& c : cs.cubes()) out.AddCube(c);

  const TruthTable x = TruthTable::Var(var, num_vars);
  *cover_tt = (f0_tt & ~x) | (f1_tt & x) | fs_tt;
  return out;
}

}  // namespace

Sop Isop(const TruthTable& on, const TruthTable& dc) {
  SM_REQUIRE(on.num_vars() == dc.num_vars(),
             "Isop bounds must have the same variable count");
  SM_REQUIRE(on.num_vars() <= kMaxCubeVars, "Isop input too wide");
  const TruthTable lower = on & ~dc;
  const TruthTable upper = on | dc;
  TruthTable cover_tt(on.num_vars());
  Sop result =
      IsopRec(lower, upper, on.num_vars(), on.num_vars() - 1, &cover_tt);
  SM_CHECK(lower.Implies(cover_tt) && cover_tt.Implies(upper),
           "ISOP cover violates its bounds");
  return result;
}

Sop IsopComplement(const TruthTable& f, const TruthTable& dc) {
  return Isop(~f & ~dc, dc);
}

std::size_t IsopMemo::KeyHash::operator()(
    const std::pair<int, std::uint64_t>& key) const {
  std::uint64_t h = key.second ^ (static_cast<std::uint64_t>(key.first) << 58);
  h *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

Sop IsopMemo::Cover(const TruthTable& f) {
  if (f.num_vars() <= kWordVars) return Cover(f.num_vars(), f.ToWord());
  return Isop(f, TruthTable::Const0(f.num_vars()));
}

Sop IsopMemo::Cover(int k, std::uint64_t word) {
  SM_REQUIRE(k >= 0 && k <= kWordVars, "memoized covers take at most "
                                           << kWordVars << " variables");
  word &= MintermMask(k);
  const auto it = covers_.find({k, word});
  if (it != covers_.end()) return it->second;
  Sop cover = Isop(TruthTable::FromWord(word, k), TruthTable::Const0(k));
  covers_.emplace(std::make_pair(k, word), cover);
  return cover;
}

Sop AllPrimes(const TruthTable& f) {
  const int n = f.num_vars();
  SM_REQUIRE(n <= 10, "AllPrimes is exhaustive; function too wide: " << n);
  Sop primes(n);
  if (f.IsConst0()) return primes;
  if (f.IsConst1()) return Sop::Const1(n);

  // Enumerate all 3^n cubes via a ternary counter (0 = absent, 1 = positive,
  // 2 = negative).
  std::vector<int> digit(static_cast<std::size_t>(n), 0);
  for (;;) {
    Cube c;
    for (int v = 0; v < n; ++v) {
      if (digit[static_cast<std::size_t>(v)] == 1) c = c.WithLiteral(v, true);
      if (digit[static_cast<std::size_t>(v)] == 2) c = c.WithLiteral(v, false);
    }
    if (!c.IsUniverse()) {  // universe can't be an implicant here (f != 1)
      const TruthTable ct = TruthTable::FromCube(c, n);
      if (ct.Implies(f)) {
        bool prime = true;
        for (int v = 0; v < n && prime; ++v) {
          if (!c.HasVar(v)) continue;
          if (TruthTable::FromCube(c.WithoutVar(v), n).Implies(f)) {
            prime = false;
          }
        }
        if (prime) primes.AddCube(c);
      }
    }
    // Advance the ternary counter.
    int pos = 0;
    while (pos < n && digit[static_cast<std::size_t>(pos)] == 2) {
      digit[static_cast<std::size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == n) break;
    ++digit[static_cast<std::size_t>(pos)];
  }
  return primes;
}

}  // namespace sm
