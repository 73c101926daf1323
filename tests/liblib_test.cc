#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "boolean/isop.h"

#include "liblib/library.h"
#include "liblib/lsi10k.h"
#include "util/check.h"
#include "util/rng.h"

namespace sm {
namespace {

TEST(Cell, ValidatesConstruction) {
  EXPECT_THROW(Cell("", TruthTable::Var(0, 1), 1, {1}, 1),
               std::invalid_argument);  // unnamed
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 1), 1, {}, 1),
               std::invalid_argument);  // delay count mismatch
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 1), 1, {0.0}, 1),
               std::invalid_argument);  // non-positive delay
  EXPECT_THROW(Cell("X", TruthTable::Const1(2), 1, {1, 1}, 1),
               std::invalid_argument);  // constant with pins
  EXPECT_THROW(Cell("X", TruthTable::Var(0, 2), 1, {1, 1}, 1),
               std::invalid_argument);  // vacuous pin 1
}

TEST(Cell, Classification) {
  const Cell inv("INV", ~TruthTable::Var(0, 1), 1, {1}, 1);
  const Cell buf("BUF", TruthTable::Var(0, 1), 1, {1}, 1);
  const Cell tie("TIE1", TruthTable::Const1(0), 1, {}, 0);
  EXPECT_TRUE(inv.IsInverter());
  EXPECT_FALSE(inv.IsBuffer());
  EXPECT_TRUE(buf.IsBuffer());
  EXPECT_TRUE(tie.IsConstant());
  EXPECT_EQ(tie.num_pins(), 0);
}

TEST(Cell, PrimeCovers) {
  // AOI21 = ~((a & b) | c): off-set primes {ab, c}, on-set primes {a'c', b'c'}.
  const Library lib = Lsi10kLike();
  const Cell* aoi = lib.ByNameOrThrow("AOI21");
  EXPECT_EQ(aoi->OffSetPrimes().NumCubes(), 2u);
  EXPECT_EQ(aoi->OnSetPrimes().NumCubes(), 2u);
  EXPECT_EQ(aoi->OnSetPrimes().ToTruthTable(), aoi->function());
  EXPECT_EQ(aoi->OffSetPrimes().ToTruthTable(), ~aoi->function());
}

// Regression for a data race: two threads making the first prime-cover
// query on a fresh library's cells (as daemon workers and parallel SPCF
// runs sharing one Library do). ThreadSanitizer flags any write here.
TEST(Cell, PrimeCoversReadFromTwoThreadsOnFirstUse) {
  const Library lib = Lsi10kLike();
  std::vector<std::size_t> cubes[2];
  auto query = [&lib](std::vector<std::size_t>& out) {
    for (const Cell* cell : lib.AllCells()) {
      out.push_back(cell->OnSetPrimes().NumCubes());
      out.push_back(cell->OffSetPrimes().NumCubes());
    }
  };
  std::thread other(query, std::ref(cubes[1]));
  query(cubes[0]);
  other.join();
  EXPECT_EQ(cubes[0], cubes[1]);
  std::size_t i = 0;
  for (const Cell* cell : lib.AllCells()) {
    EXPECT_EQ(cubes[0][i++], AllPrimes(cell->function()).NumCubes());
    EXPECT_EQ(cubes[0][i++], AllPrimes(~cell->function()).NumCubes());
  }
}

// Cell::EvalParallel (OR over on-set primes of the AND of their literals)
// against minterm expansion of the truth table, for every cell of both
// libraries on random pin words, with distinct and with shared fanins.
TEST(Cell, EvalParallelMatchesMintermExpansion) {
  Rng rng(77);
  for (const Library& lib : {Lsi10kLike(), UnitLibrary()}) {
    for (const Cell* cell : lib.AllCells()) {
      const int k = cell->num_pins();
      const TruthTable& f = cell->function();
      for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::uint64_t> values(8);
        for (auto& w : values) w = rng.Next();
        std::vector<std::uint32_t> fanins(static_cast<std::size_t>(k));
        for (int p = 0; p < k; ++p) {
          fanins[static_cast<std::size_t>(p)] =
              iter % 2 == 0 ? static_cast<std::uint32_t>(p)
                            : static_cast<std::uint32_t>(rng.Below(3));
        }
        std::uint64_t want = 0;
        for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
          if (!f.Get(m)) continue;
          std::uint64_t term = ~0ull;
          for (int p = 0; p < k; ++p) {
            const std::uint64_t w =
                values[fanins[static_cast<std::size_t>(p)]];
            term &= ((m >> p) & 1u) ? w : ~w;
          }
          want |= term;
        }
        EXPECT_EQ(cell->EvalParallel(values.data(), fanins.data()), want)
            << lib.name() << " " << cell->name() << " iteration " << iter;
      }
    }
  }
}

TEST(Library, Lsi10kLikeSanity) {
  const Library lib = Lsi10kLike();
  EXPECT_GE(lib.NumCells(), 20u);
  EXPECT_NE(lib.ByName("NAND2"), nullptr);
  EXPECT_EQ(lib.ByName("NOPE"), nullptr);
  EXPECT_THROW(lib.ByNameOrThrow("NOPE"), std::invalid_argument);
  EXPECT_TRUE(lib.SmallestInverter()->IsInverter());
  EXPECT_TRUE(lib.SmallestConstant(true)->function().Get(0));
  EXPECT_FALSE(lib.SmallestConstant(false)->function().Get(0));
  EXPECT_EQ(lib.MaxPins(), 4);
  // Spot-check functions.
  const Cell* mux = lib.ByNameOrThrow("MUX2");
  // MUX2: p0 ? p2 : p1 — minterm (s=1, d0=0, d1=1) = 0b101 -> 1.
  EXPECT_TRUE(mux->function().Get(0b101));
  EXPECT_FALSE(mux->function().Get(0b001));
  EXPECT_TRUE(mux->function().Get(0b010));
  const Cell* aoi22 = lib.ByNameOrThrow("AOI22");
  for (std::uint64_t m = 0; m < 16; ++m) {
    const bool ab = (m & 3) == 3;
    const bool cd = (m & 12) == 12;
    EXPECT_EQ(aoi22->function().Get(m), !(ab || cd)) << m;
  }
}

TEST(Library, UnitLibraryDelaysMatchPaperModel) {
  const Library lib = UnitLibrary();
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("INV")->pin_delay(0), 1.0);
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("AND2")->pin_delay(0), 2.0);
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("OR2")->pin_delay(1), 2.0);
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("NAND2")->pin_delay(0), 2.0);
}

TEST(Library, CellsWithPins) {
  const Library lib = Lsi10kLike();
  for (const Cell* c : lib.CellsWithPins(2)) EXPECT_EQ(c->num_pins(), 2);
  EXPECT_FALSE(lib.CellsWithPins(2).empty());
  EXPECT_FALSE(lib.CellsWithPins(4).empty());
}

// The match index is permutation-complete: every pin permutation of every
// cell of 1..6 pins finds the cell, once, in a bucket that lists cells in
// library order, with the lexicographically first permutation that yields
// the bucket's function.
TEST(Library, MatchIndexIsPermutationCompleteInLibraryOrder) {
  for (const Library& lib : {Lsi10kLike(), UnitLibrary()}) {
    const std::vector<const Cell*> cells = lib.AllCells();
    std::size_t indexed = 0;
    for (std::size_t pos = 0; pos < cells.size(); ++pos) {
      const Cell* cell = cells[pos];
      const int k = cell->num_pins();
      if (k < 1 || k > kWordVars) continue;
      ++indexed;
      std::vector<int> perm(static_cast<std::size_t>(k));
      std::iota(perm.begin(), perm.end(), 0);
      std::vector<std::uint64_t> seen;  // functions of earlier permutations
      do {
        const std::uint64_t word = cell->function().Remap(perm, k).ToWord();
        const std::vector<CellMatch>* bucket = lib.Matches(k, word);
        ASSERT_NE(bucket, nullptr) << cell->name();
        std::size_t hits = 0;
        std::size_t last = 0;
        for (const CellMatch& m : *bucket) {
          const auto at = std::find(cells.begin(), cells.end(), m.cell);
          ASSERT_NE(at, cells.end());
          const std::size_t p = static_cast<std::size_t>(at - cells.begin());
          if (&m != &bucket->front()) {
            EXPECT_LT(last, p) << cell->name();
          }
          last = p;
          EXPECT_EQ(m.cell->num_pins(), k);
          if (m.cell != cell) continue;
          ++hits;
          const std::vector<int> stored(m.perm.begin(), m.perm.begin() + k);
          EXPECT_EQ(cell->function().Remap(stored, k).ToWord(), word);
          const bool first = std::find(seen.begin(), seen.end(), word) ==
                             seen.end();
          if (first) {
            EXPECT_EQ(stored, perm) << cell->name();
          }
        }
        EXPECT_EQ(hits, 1u) << cell->name();
        seen.push_back(word);
      } while (std::next_permutation(perm.begin(), perm.end()));
    }
    EXPECT_GE(indexed, 20u);
    // No 2-pin cell passes its first pin through.
    EXPECT_EQ(lib.Matches(2, kVarWord[0] & MintermMask(2)), nullptr);
  }
}

TEST(Library, RejectsDuplicates) {
  Library lib("dup");
  lib.Add(Cell("A", TruthTable::Var(0, 1), 1, {1}, 1));
  EXPECT_THROW(lib.Add(Cell("A", TruthTable::Var(0, 1), 1, {1}, 1)),
               std::invalid_argument);
}

TEST(ParseLibrary, RoundTripSmallLibrary) {
  const Library lib = ParseLibrary("custom", R"(
# tiny test library
cell INV  area=1 energy=0.7 delays=1 func=10
cell ND2  area=2 energy=1.4 delays=1.4,1.4 func=1110
cell TIE1 area=1 energy=0 delays=none func=1
)");
  EXPECT_EQ(lib.NumCells(), 3u);
  EXPECT_TRUE(lib.ByNameOrThrow("INV")->IsInverter());
  EXPECT_EQ(lib.ByNameOrThrow("ND2")->function().ToBits(), "1110");
  EXPECT_DOUBLE_EQ(lib.ByNameOrThrow("ND2")->pin_delay(1), 1.4);
  EXPECT_TRUE(lib.ByNameOrThrow("TIE1")->IsConstant());
}

TEST(ParseLibrary, Errors) {
  EXPECT_THROW(ParseLibrary("b", "gate X area=1"), ParseError);
  EXPECT_THROW(ParseLibrary("b", "cell X area=1 energy=1 delays=1 func=101"),
               ParseError);  // func width
  EXPECT_THROW(ParseLibrary("b", "cell X area=z energy=1 delays=1 func=10"),
               ParseError);  // bad number
  EXPECT_THROW(ParseLibrary("b", "cell X energy=1 delays=1 func=10"),
               ParseError);  // missing area
}

}  // namespace
}  // namespace sm
