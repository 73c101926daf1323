// Dynamically sized truth table over up to kMaxTruthVars variables.
//
// Node-local Boolean reasoning in speedmask (ISOP, two-level minimization,
// care-set induction) is exact and truth-table based: nodes are bounded to
// 10-15 fanins by construction, where a truth table of 2^n bits is both the
// fastest and the simplest exact representation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sm {

class Cube;

inline constexpr int kMaxTruthVars = 20;

// A function of up to kWordVars variables fits one 64-bit word in the layout
// of a TruthTable's first word: bit m of kVarWord[i] is bit i of minterm m.
inline constexpr int kWordVars = 6;
inline constexpr std::uint64_t kVarWord[kWordVars] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

// The 2^k valid minterm bits of a k-variable word (k <= kWordVars).
constexpr std::uint64_t MintermMask(int k) {
  return k == kWordVars ? ~0ull : (1ull << (1u << k)) - 1ull;
}

class TruthTable {
 public:
  TruthTable() : TruthTable(0) {}  // constant-0 over zero variables
  explicit TruthTable(int num_vars);

  static TruthTable Const0(int num_vars);
  static TruthTable Const1(int num_vars);
  static TruthTable Var(int var, int num_vars);
  static TruthTable FromCube(const Cube& cube, int num_vars);

  // Builds a table from a bit string like "0110" (bit i = value at minterm i,
  // leftmost character is minterm 0). Length must be 2^num_vars.
  static TruthTable FromBits(const std::string& bits, int num_vars);

  // The table of a function of <= kWordVars variables as one word in the
  // kVarWord layout (bit m = Get(m), bits from 2^num_vars up clear), and
  // back; FromWord ignores bits beyond the minterm space.
  std::uint64_t ToWord() const;
  static TruthTable FromWord(std::uint64_t word, int num_vars);

  int num_vars() const { return num_vars_; }
  std::uint64_t num_minterms_space() const { return 1ull << num_vars_; }

  bool Get(std::uint64_t minterm) const;
  void Set(std::uint64_t minterm, bool value);

  bool IsConst0() const;
  bool IsConst1() const;

  // Number of satisfying minterms.
  std::uint64_t CountOnes() const;

  // True if `var` affects the function.
  bool DependsOn(int var) const;
  // Indices of all variables the function depends on.
  std::vector<int> Support() const;

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  bool operator==(const TruthTable& o) const = default;

  // Shannon cofactors with respect to `var` (result keeps the same variable
  // count; the cofactored variable becomes vacuous).
  TruthTable Cofactor(int var, bool value) const;

  // f with inputs remapped: new_f(x_{perm[0]}, ..). perm[i] gives, for old
  // variable i, its index in the new variable space of `new_num_vars`.
  TruthTable Remap(const std::vector<int>& perm, int new_num_vars) const;

  // True iff this ⊆ other (implication).
  bool Implies(const TruthTable& other) const;

  std::uint64_t Hash() const;

  // "2^n-bit" render, minterm 0 first; debugging aid.
  std::string ToBits() const;

 private:
  void CheckCompatible(const TruthTable& o) const;
  void MaskTail();

  int num_vars_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace sm
