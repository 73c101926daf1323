#include "boolean/sop.h"

#include <algorithm>

#include "boolean/isop.h"
#include "util/check.h"

namespace sm {

Sop::Sop(int num_vars) : num_vars_(num_vars) {
  SM_REQUIRE(num_vars >= 0 && num_vars <= kMaxCubeVars,
             "SOP variable count out of range: " << num_vars);
}

Sop::Sop(int num_vars, std::vector<Cube> cubes)
    : Sop(num_vars) {
  cubes_ = std::move(cubes);
  for (const Cube& c : cubes_) {
    SM_REQUIRE(!c.IsContradictory(), "SOP must not contain empty cubes");
  }
}

Sop::Sop(int num_vars, std::initializer_list<Cube> cubes)
    : Sop(num_vars, std::vector<Cube>(cubes)) {}

Sop Sop::FromTruthTable(const TruthTable& tt) {
  SM_REQUIRE(tt.num_vars() <= kMaxCubeVars,
             "truth table too wide for an SOP");
  return Isop(tt, TruthTable::Const0(tt.num_vars()));
}

int Sop::NumLiterals() const {
  int n = 0;
  for (const Cube& c : cubes_) n += c.NumLiterals();
  return n;
}

void Sop::AddCube(const Cube& cube) {
  SM_REQUIRE(!cube.IsContradictory(), "cannot add an empty cube");
  cubes_.push_back(cube);
}

void Sop::RemoveCube(std::size_t index) {
  SM_REQUIRE(index < cubes_.size(), "cube index out of range");
  cubes_.erase(cubes_.begin() + static_cast<std::ptrdiff_t>(index));
}

bool Sop::EvalMinterm(std::uint32_t minterm) const {
  for (const Cube& c : cubes_) {
    if (c.CoversMinterm(minterm)) return true;
  }
  return false;
}

std::uint64_t Sop::EvalParallel(
    const std::vector<std::uint64_t>& inputs) const {
  SM_REQUIRE(static_cast<int>(inputs.size()) >= num_vars_,
             "EvalParallel needs one word per variable");
  std::uint64_t out = 0;
  for (const Cube& c : cubes_) {
    std::uint64_t term = ~0ull;
    for (int v = 0; v < num_vars_ && term != 0; ++v) {
      if (!c.HasVar(v)) continue;
      term &= c.VarPhase(v) ? inputs[v] : ~inputs[v];
    }
    out |= term;
    if (out == ~0ull) break;
  }
  return out;
}

TruthTable Sop::ToTruthTable() const {
  SM_REQUIRE(num_vars_ <= kMaxTruthVars, "SOP too wide for a truth table");
  if (num_vars_ <= kWordVars) {
    return TruthTable::FromWord(ToTruthWord(), num_vars_);
  }
  TruthTable t = TruthTable::Const0(num_vars_);
  for (const Cube& c : cubes_) t = t | TruthTable::FromCube(c, num_vars_);
  return t;
}

std::uint64_t Sop::ToTruthWord() const {
  SM_REQUIRE(num_vars_ <= kWordVars, "SOP too wide for a truth word");
  static const std::vector<std::uint64_t> kVars(kVarWord,
                                                kVarWord + kWordVars);
  return EvalParallel(kVars) & MintermMask(num_vars_);
}

void Sop::SortByLiteralCount() {
  std::stable_sort(cubes_.begin(), cubes_.end(),
                   [](const Cube& a, const Cube& b) {
                     return a.NumLiterals() < b.NumLiterals();
                   });
}

void Sop::RemoveContainedCubes() {
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    bool contained = false;
    for (std::size_t j = 0; j < cubes_.size() && !contained; ++j) {
      if (i == j) continue;
      // Break ties (equal cubes) by index so exactly one copy survives.
      if (cubes_[j].Contains(cubes_[i]) &&
          !(cubes_[i].Contains(cubes_[j]) && j > i)) {
        contained = true;
      }
    }
    if (!contained) kept.push_back(cubes_[i]);
  }
  cubes_ = std::move(kept);
}

bool Sop::IsConst0() const { return cubes_.empty(); }

bool Sop::IsConst1() const {
  for (const Cube& c : cubes_) {
    if (c.IsUniverse()) return true;
  }
  if (num_vars_ > kMaxTruthVars) return false;  // conservative
  return ToTruthTable().IsConst1();
}

std::string Sop::ToString() const {
  if (cubes_.empty()) return "0";
  std::string out;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (i > 0) out += " + ";
    out += cubes_[i].ToString(num_vars_);
  }
  return out;
}

}  // namespace sm
