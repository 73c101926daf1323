#include <gtest/gtest.h>

#include "boolean/cube.h"
#include "boolean/isop.h"
#include "boolean/sop.h"
#include "boolean/truth_table.h"
#include "boolean/two_level.h"
#include "util/rng.h"

namespace sm {
namespace {

// ---------------------------------------------------------------- Cube

TEST(Cube, UniverseCoversEverything) {
  const Cube u = Cube::Universe();
  EXPECT_TRUE(u.IsUniverse());
  EXPECT_EQ(u.NumLiterals(), 0);
  for (std::uint32_t m = 0; m < 16; ++m) EXPECT_TRUE(u.CoversMinterm(m));
}

TEST(Cube, LiteralPhases) {
  const Cube a = Cube::Literal(0, true);
  const Cube na = Cube::Literal(0, false);
  EXPECT_TRUE(a.CoversMinterm(0b1));
  EXPECT_FALSE(a.CoversMinterm(0b0));
  EXPECT_TRUE(na.CoversMinterm(0b0));
  EXPECT_FALSE(na.CoversMinterm(0b1));
}

TEST(Cube, MintermCube) {
  const Cube c = Cube::Minterm(0b101, 3);
  EXPECT_EQ(c.NumLiterals(), 3);
  EXPECT_TRUE(c.CoversMinterm(0b101));
  for (std::uint32_t m = 0; m < 8; ++m) {
    if (m != 0b101) {
      EXPECT_FALSE(c.CoversMinterm(m));
    }
  }
}

TEST(Cube, IntersectAndContradiction) {
  const Cube a = Cube::Literal(1, true);
  const Cube na = Cube::Literal(1, false);
  EXPECT_TRUE(a.Intersect(na).IsContradictory());
  EXPECT_TRUE(a.DisjointFrom(na));
  const Cube ab = a.Intersect(Cube::Literal(2, true));
  EXPECT_EQ(ab.NumLiterals(), 2);
  EXPECT_FALSE(a.DisjointFrom(ab));
}

TEST(Cube, Containment) {
  const Cube a = Cube::Literal(0, true);
  const Cube ab = a.Intersect(Cube::Literal(1, true));
  EXPECT_TRUE(a.Contains(ab));
  EXPECT_FALSE(ab.Contains(a));
  EXPECT_TRUE(Cube::Universe().Contains(a));
  // The contradictory cube is contained in everything.
  const Cube empty = a.Intersect(Cube::Literal(0, false));
  EXPECT_TRUE(ab.Contains(empty));
  EXPECT_FALSE(empty.Contains(ab));
}

TEST(Cube, WithWithoutLiteral) {
  Cube c = Cube::Universe().WithLiteral(3, true);
  EXPECT_TRUE(c.HasVar(3));
  EXPECT_TRUE(c.VarPhase(3));
  c = c.WithLiteral(3, false);  // replace, not contradict
  EXPECT_FALSE(c.IsContradictory());
  EXPECT_FALSE(c.VarPhase(3));
  c = c.WithoutVar(3);
  EXPECT_FALSE(c.HasVar(3));
  EXPECT_TRUE(c.IsUniverse());
}

TEST(Cube, ToString) {
  const Cube c =
      Cube::Literal(0, true).Intersect(Cube::Literal(1, false));
  EXPECT_EQ(c.ToString(4), "ab'");
  EXPECT_EQ(Cube::Universe().ToString(4), "1");
}

// ---------------------------------------------------------------- TruthTable

TEST(TruthTable, Constants) {
  for (int n : {0, 1, 3, 6, 7, 10}) {
    EXPECT_TRUE(TruthTable::Const0(n).IsConst0());
    EXPECT_TRUE(TruthTable::Const1(n).IsConst1());
    EXPECT_EQ(TruthTable::Const1(n).CountOnes(), 1ull << n);
  }
}

TEST(TruthTable, VarProjection) {
  for (int n : {3, 6, 8}) {
    for (int v = 0; v < n; ++v) {
      const TruthTable t = TruthTable::Var(v, n);
      EXPECT_EQ(t.CountOnes(), 1ull << (n - 1));
      for (std::uint64_t m = 0; m < t.num_minterms_space(); ++m) {
        EXPECT_EQ(t.Get(m), ((m >> v) & 1) != 0);
      }
    }
  }
}

TEST(TruthTable, BooleanOps) {
  const int n = 7;
  const TruthTable a = TruthTable::Var(2, n);
  const TruthTable b = TruthTable::Var(6, n);
  EXPECT_EQ((a & b).CountOnes(), 1ull << (n - 2));
  EXPECT_EQ((a | b).CountOnes(), 3ull << (n - 2));
  EXPECT_EQ((a ^ b).CountOnes(), 1ull << (n - 1));
  EXPECT_TRUE((a & ~a).IsConst0());
  EXPECT_TRUE((a | ~a).IsConst1());
}

TEST(TruthTable, CofactorBothSides) {
  const int n = 8;
  Rng rng(42);
  TruthTable f(n);
  for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
    f.Set(m, rng.Chance(0.5));
  }
  for (int v = 0; v < n; ++v) {
    const TruthTable f0 = f.Cofactor(v, false);
    const TruthTable f1 = f.Cofactor(v, true);
    EXPECT_FALSE(f0.DependsOn(v));
    EXPECT_FALSE(f1.DependsOn(v));
    const TruthTable x = TruthTable::Var(v, n);
    EXPECT_EQ(f, (x & f1) | (~x & f0)) << "Shannon identity failed on " << v;
  }
}

TEST(TruthTable, SupportDetection) {
  const int n = 9;
  const TruthTable f =
      TruthTable::Var(1, n) & ~TruthTable::Var(7, n);
  EXPECT_EQ(f.Support(), (std::vector<int>{1, 7}));
  EXPECT_TRUE(f.DependsOn(1));
  EXPECT_FALSE(f.DependsOn(0));
}

TEST(TruthTable, FromBitsRoundTrip) {
  const TruthTable t = TruthTable::FromBits("0110", 2);
  EXPECT_EQ(t.ToBits(), "0110");
  EXPECT_TRUE(t.Get(1));
  EXPECT_FALSE(t.Get(3));
  EXPECT_THROW(TruthTable::FromBits("011", 2), std::invalid_argument);
}

TEST(TruthTable, FromCube) {
  const Cube c = Cube::Literal(0, true).Intersect(Cube::Literal(2, false));
  const TruthTable t = TruthTable::FromCube(c, 3);
  for (std::uint32_t m = 0; m < 8; ++m) {
    EXPECT_EQ(t.Get(m), c.CoversMinterm(m));
  }
}

TEST(TruthTable, RemapPermutation) {
  // f(a, b) = a & ~b remapped with a->1, b->0 gives g(x0, x1) = x1 & ~x0.
  const TruthTable f =
      TruthTable::Var(0, 2) & ~TruthTable::Var(1, 2);
  const TruthTable g = f.Remap({1, 0}, 2);
  EXPECT_EQ(g, TruthTable::Var(1, 2) & ~TruthTable::Var(0, 2));
}

TEST(TruthTable, RemapWiden) {
  const TruthTable f = TruthTable::Var(0, 1);
  const TruthTable g = f.Remap({2}, 3);
  EXPECT_EQ(g, TruthTable::Var(2, 3));
}

TEST(TruthTable, ImpliesAndHash) {
  const TruthTable a = TruthTable::Var(0, 4) & TruthTable::Var(1, 4);
  const TruthTable b = TruthTable::Var(0, 4);
  EXPECT_TRUE(a.Implies(b));
  EXPECT_FALSE(b.Implies(a));
  EXPECT_NE(a.Hash(), b.Hash());
}

// ---------------------------------------------------------------- Sop

TEST(Sop, EvalMatchesTruthTable) {
  // f = ab' + c
  Sop f(3, {Cube::Literal(0, true).Intersect(Cube::Literal(1, false)),
            Cube::Literal(2, true)});
  const TruthTable t = f.ToTruthTable();
  for (std::uint32_t m = 0; m < 8; ++m) {
    EXPECT_EQ(f.EvalMinterm(m), t.Get(m));
  }
}

TEST(Sop, EvalParallelMatchesScalar) {
  Rng rng(5);
  Sop f(4, {Cube::Literal(0, true).Intersect(Cube::Literal(3, false)),
            Cube::Literal(1, false).Intersect(Cube::Literal(2, true))});
  std::vector<std::uint64_t> in(4);
  for (auto& w : in) w = rng.Next();
  const std::uint64_t out = f.EvalParallel(in);
  for (int bit = 0; bit < 64; ++bit) {
    std::uint32_t m = 0;
    for (int v = 0; v < 4; ++v) m |= ((in[v] >> bit) & 1u) << v;
    EXPECT_EQ((out >> bit) & 1u, f.EvalMinterm(m) ? 1u : 0u);
  }
}

TEST(Sop, TruthWordMatchesTruthTable) {
  Rng rng(11);
  for (int nv = 0; nv <= kWordVars; ++nv) {
    for (int trial = 0; trial < 20; ++trial) {
      Sop f(nv);
      for (int c = static_cast<int>(rng.Range(0, 3)); c > 0; --c) {
        Cube cube;
        for (int v = 0; v < nv; ++v) {
          if (rng.Chance(0.5)) cube = cube.WithLiteral(v, rng.Chance(0.5));
        }
        f.AddCube(cube);
      }
      const TruthTable t = f.ToTruthTable();
      const std::uint64_t word = f.ToTruthWord();
      EXPECT_EQ(word & ~MintermMask(nv), 0u);
      for (std::uint64_t m = 0; m < t.num_minterms_space(); ++m) {
        EXPECT_EQ((word >> m) & 1u, t.Get(m) ? 1u : 0u) << f.ToString();
      }
    }
  }
}

TEST(Sop, Constants) {
  EXPECT_TRUE(Sop::Const0(3).IsConst0());
  EXPECT_TRUE(Sop::Const1(3).IsConst1());
  EXPECT_FALSE(Sop::Const1(3).IsConst0());
}

TEST(Sop, SortByLiteralCount) {
  Sop f(3);
  f.AddCube(Cube::Minterm(0b111, 3));
  f.AddCube(Cube::Literal(0, true));
  f.AddCube(Cube::Literal(1, true).Intersect(Cube::Literal(2, true)));
  f.SortByLiteralCount();
  EXPECT_EQ(f.cubes()[0].NumLiterals(), 1);
  EXPECT_EQ(f.cubes()[1].NumLiterals(), 2);
  EXPECT_EQ(f.cubes()[2].NumLiterals(), 3);
}

TEST(Sop, RemoveContainedCubes) {
  Sop f(3);
  f.AddCube(Cube::Literal(0, true));
  f.AddCube(Cube::Literal(0, true).Intersect(Cube::Literal(1, true)));
  f.AddCube(Cube::Literal(2, false));
  f.AddCube(Cube::Literal(2, false));  // duplicate
  const TruthTable before = f.ToTruthTable();
  f.RemoveContainedCubes();
  EXPECT_EQ(f.NumCubes(), 2u);
  EXPECT_EQ(f.ToTruthTable(), before);
}

TEST(Sop, RejectsEmptyCube) {
  Sop f(2);
  EXPECT_THROW(
      f.AddCube(Cube::Literal(0, true).Intersect(Cube::Literal(0, false))),
      std::invalid_argument);
}

// ---------------------------------------------------------------- ISOP

class IsopRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IsopRandomTest, CoverEqualsFunction) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  for (int iter = 0; iter < 50; ++iter) {
    TruthTable f(n);
    for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
      f.Set(m, rng.Chance(0.4));
    }
    const Sop cover = Isop(f, TruthTable::Const0(n));
    EXPECT_EQ(cover.ToTruthTable(), f);
  }
}

TEST_P(IsopRandomTest, RespectsDontCares) {
  const int n = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(n));
  for (int iter = 0; iter < 50; ++iter) {
    TruthTable on(n);
    TruthTable dc(n);
    for (std::uint64_t m = 0; m < on.num_minterms_space(); ++m) {
      const double u = rng.Uniform();
      if (u < 0.3) {
        on.Set(m, true);
      } else if (u < 0.6) {
        dc.Set(m, true);
      }
    }
    const Sop cover = Isop(on, dc);
    const TruthTable result = cover.ToTruthTable();
    EXPECT_TRUE((on & ~dc).Implies(result));
    EXPECT_TRUE(result.Implies(on | dc));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IsopRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10));

TEST(Isop, ConstantsAndCorners) {
  EXPECT_TRUE(Isop(TruthTable::Const0(4), TruthTable::Const0(4)).IsConst0());
  EXPECT_TRUE(Isop(TruthTable::Const1(4), TruthTable::Const0(4)).IsConst1());
  // Fully don't-care: the minimal cover is constant 0 (empty).
  EXPECT_TRUE(Isop(TruthTable::Const0(4), TruthTable::Const1(4)).IsConst0());
}

TEST(Isop, XorNeedsAllMinterms) {
  const TruthTable f =
      TruthTable::Var(0, 2) ^ TruthTable::Var(1, 2);
  const Sop cover = Isop(f, TruthTable::Const0(2));
  EXPECT_EQ(cover.NumCubes(), 2u);
  EXPECT_EQ(cover.ToTruthTable(), f);
}

void ExpectSameCover(const Sop& got, const Sop& want, const char* what) {
  EXPECT_EQ(got.num_vars(), want.num_vars()) << what;
  EXPECT_EQ(got.cubes(), want.cubes()) << what;
}

// The memo must hand back exactly Isop(f, 0), on a miss and on a hit. All
// functions of 0-4 variables share one memo, so a key that dropped the
// variable count would confuse, e.g., x0 over one variable with x0·x1' over
// two (both word 0b10).
TEST(IsopMemo, MatchesIsopOnEveryFunctionUpToFourVariables) {
  IsopMemo memo;
  for (int k = 0; k <= 4; ++k) {
    const std::uint64_t count = 1ull << (1u << k);
    for (std::uint64_t word = 0; word < count; ++word) {
      const TruthTable f = TruthTable::FromWord(word, k);
      EXPECT_EQ(f.ToWord(), word);
      const Sop want = Isop(f, TruthTable::Const0(k));
      ExpectSameCover(memo.Cover(f), want, "miss");
      ExpectSameCover(memo.Cover(k, word), want, "hit");
    }
  }
}

TEST(IsopMemo, MatchesIsopOnRandomFiveAndSixVariableFunctions) {
  IsopMemo memo;
  Rng rng(4242);
  for (int k = 5; k <= 6; ++k) {
    for (int iter = 0; iter < 400; ++iter) {
      std::uint64_t word = rng.Next() & MintermMask(k);
      // Every fourth function has only its low 16 bits set, the word of
      // some 4-variable function.
      if (iter % 4 == 0) word &= 0xffff;
      const TruthTable f = TruthTable::FromWord(word, k);
      const Sop want = Isop(f, TruthTable::Const0(k));
      ExpectSameCover(memo.Cover(f), want, "miss");
      ExpectSameCover(memo.Cover(k, word | ~MintermMask(k)), want,
                      "hit, bits above the minterm space ignored");
      // The same word read as a 4-variable function keeps its own cover.
      if (iter % 4 == 0) {
        ExpectSameCover(memo.Cover(4, word),
                        Isop(TruthTable::FromWord(word, 4),
                             TruthTable::Const0(4)),
                        "4-variable reading");
      }
    }
  }
  // Wider functions are computed directly.
  for (int iter = 0; iter < 20; ++iter) {
    TruthTable f(8);
    for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
      f.Set(m, rng.Chance(0.5));
    }
    ExpectSameCover(memo.Cover(f), Isop(f, TruthTable::Const0(8)), "wide");
  }
  EXPECT_THROW(memo.Cover(7, 0), std::invalid_argument);
}

// ------------------------------------------------------------- AllPrimes

TEST(AllPrimes, KnownFunction) {
  // f = ab + a'c has primes: ab, a'c, bc (the consensus term).
  const TruthTable a = TruthTable::Var(0, 3);
  const TruthTable b = TruthTable::Var(1, 3);
  const TruthTable c = TruthTable::Var(2, 3);
  const Sop primes = AllPrimes((a & b) | (~a & c));
  EXPECT_EQ(primes.NumCubes(), 3u);
  EXPECT_EQ(primes.ToTruthTable(), (a & b) | (~a & c));
}

TEST(AllPrimes, EveryPrimeIsMaximal) {
  Rng rng(77);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 4;
    TruthTable f(n);
    for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
      f.Set(m, rng.Chance(0.5));
    }
    if (f.IsConst0() || f.IsConst1()) continue;
    const Sop primes = AllPrimes(f);
    EXPECT_EQ(primes.ToTruthTable(), f);
    for (const Cube& p : primes.cubes()) {
      EXPECT_TRUE(TruthTable::FromCube(p, n).Implies(f));
      for (int v = 0; v < n; ++v) {
        if (!p.HasVar(v)) continue;
        EXPECT_FALSE(TruthTable::FromCube(p.WithoutVar(v), n).Implies(f))
            << "cube " << p.ToString(n) << " is not prime";
      }
    }
  }
}

TEST(AllPrimes, ConstantCases) {
  EXPECT_TRUE(AllPrimes(TruthTable::Const0(3)).IsConst0());
  EXPECT_TRUE(AllPrimes(TruthTable::Const1(3)).IsConst1());
}

// ------------------------------------------------------------- Two-level

class TwoLevelRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoLevelRandomTest, PreservesBoundsAndShrinks) {
  const int n = GetParam();
  Rng rng(3000 + static_cast<std::uint64_t>(n));
  for (int iter = 0; iter < 30; ++iter) {
    TruthTable on(n);
    TruthTable dc(n);
    for (std::uint64_t m = 0; m < on.num_minterms_space(); ++m) {
      const double u = rng.Uniform();
      if (u < 0.35) {
        on.Set(m, true);
      } else if (u < 0.55) {
        dc.Set(m, true);
      }
    }
    const Sop initial = Isop(on, TruthTable::Const0(n));  // ignores dc
    const Sop minimized = MinimizeTwoLevel(initial, on, dc);
    const TruthTable result = minimized.ToTruthTable();
    EXPECT_TRUE((on & ~dc).Implies(result));
    EXPECT_TRUE(result.Implies(on | dc));
    EXPECT_LE(minimized.NumCubes(), initial.NumCubes());
    EXPECT_LE(minimized.NumLiterals(), initial.NumLiterals());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, TwoLevelRandomTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(TwoLevel, UsesDontCaresToSimplify) {
  // on = ab, dc = ab' — minimal result is the single literal a.
  const TruthTable a = TruthTable::Var(0, 2);
  const TruthTable b = TruthTable::Var(1, 2);
  const Sop minimized = MinimizeTwoLevel(
      Isop(a & b, TruthTable::Const0(2)), a & b, a & ~b);
  EXPECT_EQ(minimized.NumCubes(), 1u);
  EXPECT_EQ(minimized.NumLiterals(), 1);
  EXPECT_EQ(minimized.ToTruthTable(), a);
}

TEST(TwoLevel, MinimizeFunctionIsExactOnSmallKnownCase) {
  // Majority of three: minimal SOP has 3 cubes of 2 literals.
  const TruthTable a = TruthTable::Var(0, 3);
  const TruthTable b = TruthTable::Var(1, 3);
  const TruthTable c = TruthTable::Var(2, 3);
  const TruthTable maj = (a & b) | (a & c) | (b & c);
  const Sop m = MinimizeFunction(maj);
  EXPECT_EQ(m.NumCubes(), 3u);
  EXPECT_EQ(m.NumLiterals(), 6);
  EXPECT_EQ(m.ToTruthTable(), maj);
}

TEST(TwoLevel, RejectsCoverOutsideBounds) {
  const TruthTable a = TruthTable::Var(0, 2);
  const Sop wrong = Sop::Const1(2);
  EXPECT_THROW(MinimizeTwoLevel(wrong, a, TruthTable::Const0(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sm
