#include "boolean/truth_table.h"

#include <bit>

#include "boolean/cube.h"
#include "util/check.h"

namespace sm {
namespace {

std::size_t WordsFor(int num_vars) {
  return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  SM_REQUIRE(num_vars >= 0 && num_vars <= kMaxTruthVars,
             "truth table variable count out of range: " << num_vars);
  words_.assign(WordsFor(num_vars), 0);
}

TruthTable TruthTable::Const0(int num_vars) { return TruthTable(num_vars); }

TruthTable TruthTable::Const1(int num_vars) {
  TruthTable t(num_vars);
  for (auto& w : t.words_) w = ~0ull;
  t.MaskTail();
  return t;
}

TruthTable TruthTable::Var(int var, int num_vars) {
  SM_REQUIRE(var >= 0 && var < num_vars, "truth table variable out of range");
  TruthTable t(num_vars);
  if (var < 6) {
    for (auto& w : t.words_) w = kVarWord[var];
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      if (i & stride) t.words_[i] = ~0ull;
    }
  }
  t.MaskTail();
  return t;
}

TruthTable TruthTable::FromCube(const Cube& cube, int num_vars) {
  if (cube.IsContradictory()) return Const0(num_vars);
  TruthTable t = Const1(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    if (!cube.HasVar(v)) continue;
    const TruthTable lit = Var(v, num_vars);
    t = cube.VarPhase(v) ? (t & lit) : (t & ~lit);
  }
  return t;
}

TruthTable TruthTable::FromBits(const std::string& bits, int num_vars) {
  TruthTable t(num_vars);
  SM_REQUIRE(bits.size() == t.num_minterms_space(),
             "bit string length must be 2^num_vars");
  for (std::uint64_t i = 0; i < bits.size(); ++i) {
    SM_REQUIRE(bits[i] == '0' || bits[i] == '1', "bit string must be binary");
    t.Set(i, bits[i] == '1');
  }
  return t;
}

std::uint64_t TruthTable::ToWord() const {
  SM_REQUIRE(num_vars_ <= kWordVars,
             "truth table too wide for one word: " << num_vars_);
  return words_[0];
}

TruthTable TruthTable::FromWord(std::uint64_t word, int num_vars) {
  SM_REQUIRE(num_vars >= 0 && num_vars <= kWordVars,
             "a truth word holds at most " << kWordVars
                                           << " variables, got " << num_vars);
  TruthTable t(num_vars);
  t.words_[0] = word & MintermMask(num_vars);
  return t;
}

bool TruthTable::Get(std::uint64_t minterm) const {
  SM_REQUIRE(minterm < num_minterms_space(), "minterm out of range");
  return (words_[minterm >> 6] >> (minterm & 63)) & 1u;
}

void TruthTable::Set(std::uint64_t minterm, bool value) {
  SM_REQUIRE(minterm < num_minterms_space(), "minterm out of range");
  const std::uint64_t bit = 1ull << (minterm & 63);
  if (value) {
    words_[minterm >> 6] |= bit;
  } else {
    words_[minterm >> 6] &= ~bit;
  }
}

bool TruthTable::IsConst0() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool TruthTable::IsConst1() const { return *this == Const1(num_vars_); }

std::uint64_t TruthTable::CountOnes() const {
  std::uint64_t n = 0;
  for (auto w : words_) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

bool TruthTable::DependsOn(int var) const {
  return Cofactor(var, false) != Cofactor(var, true);
}

std::vector<int> TruthTable::Support() const {
  std::vector<int> out;
  for (int v = 0; v < num_vars_; ++v) {
    if (DependsOn(v)) out.push_back(v);
  }
  return out;
}

TruthTable TruthTable::operator~() const {
  TruthTable t = *this;
  for (auto& w : t.words_) w = ~w;
  t.MaskTail();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  CheckCompatible(o);
  TruthTable t = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] &= o.words_[i];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  CheckCompatible(o);
  TruthTable t = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] |= o.words_[i];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  CheckCompatible(o);
  TruthTable t = *this;
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] ^= o.words_[i];
  return t;
}

TruthTable TruthTable::Cofactor(int var, bool value) const {
  SM_REQUIRE(var >= 0 && var < num_vars_, "cofactor variable out of range");
  TruthTable t = *this;
  if (var < 6) {
    const std::uint64_t mask = kVarWord[var];
    const int shift = 1 << var;
    for (auto& w : t.words_) {
      if (value) {
        const std::uint64_t hi = w & mask;
        w = hi | (hi >> shift);
      } else {
        const std::uint64_t lo = w & ~mask;
        w = lo | (lo << shift);
      }
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i) {
      const bool high_half = (i & stride) != 0;
      if (value && !high_half) t.words_[i] = t.words_[i | stride];
      if (!value && high_half) t.words_[i] = t.words_[i & ~stride];
    }
  }
  t.MaskTail();
  return t;
}

TruthTable TruthTable::Remap(const std::vector<int>& perm,
                             int new_num_vars) const {
  SM_REQUIRE(static_cast<int>(perm.size()) == num_vars_,
             "Remap permutation size mismatch");
  for (int v = 0; v < num_vars_; ++v) {
    SM_REQUIRE(perm[v] >= 0 && perm[v] < new_num_vars,
               "Remap target variable out of range");
  }
  // new_f(y) = f(x) with x_v = y_{perm[v]}; variables outside the image of
  // perm are free. Only feasible for modest sizes; remapping is used on
  // node-local tables.
  TruthTable out(new_num_vars);
  for (std::uint64_t nm = 0; nm < out.num_minterms_space(); ++nm) {
    std::uint64_t m = 0;
    for (int v = 0; v < num_vars_; ++v) {
      if ((nm >> perm[v]) & 1u) m |= 1ull << v;
    }
    out.Set(nm, Get(m));
  }
  return out;
}

bool TruthTable::Implies(const TruthTable& other) const {
  CheckCompatible(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

std::uint64_t TruthTable::Hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<unsigned>(num_vars_);
  for (auto w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::string TruthTable::ToBits() const {
  std::string out;
  out.reserve(num_minterms_space());
  for (std::uint64_t m = 0; m < num_minterms_space(); ++m) {
    out.push_back(Get(m) ? '1' : '0');
  }
  return out;
}

void TruthTable::CheckCompatible(const TruthTable& o) const {
  SM_REQUIRE(num_vars_ == o.num_vars_,
             "truth table variable counts differ: " << num_vars_ << " vs "
                                                    << o.num_vars_);
}

void TruthTable::MaskTail() {
  if (num_vars_ < 6) {
    words_[0] &= (1ull << (1u << num_vars_)) - 1ull;
  }
}

}  // namespace sm
