// Sum-of-products cover over up to kMaxCubeVars local variables.
//
// The technology-independent network stores one Sop per node; the masking
// synthesis of Sec. 4 manipulates these covers directly (cube ordering,
// essential-weight pruning).
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "boolean/cube.h"
#include "boolean/truth_table.h"

namespace sm {

class Sop {
 public:
  Sop() : Sop(0) {}  // empty cover over zero variables: constant 0
  explicit Sop(int num_vars);
  Sop(int num_vars, std::vector<Cube> cubes);
  Sop(int num_vars, std::initializer_list<Cube> cubes);

  static Sop Const0(int num_vars) { return Sop(num_vars); }
  static Sop Const1(int num_vars) {
    return Sop(num_vars, {Cube::Universe()});
  }
  static Sop FromTruthTable(const TruthTable& tt);  // via ISOP

  int num_vars() const { return num_vars_; }
  const std::vector<Cube>& cubes() const { return cubes_; }
  std::size_t NumCubes() const { return cubes_.size(); }
  int NumLiterals() const;
  bool Empty() const { return cubes_.empty(); }

  void AddCube(const Cube& cube);
  void RemoveCube(std::size_t index);

  bool EvalMinterm(std::uint32_t minterm) const;

  // 64-way bit-parallel evaluation: inputs[v] carries 64 independent values
  // of variable v; the result carries the 64 function values.
  std::uint64_t EvalParallel(const std::vector<std::uint64_t>& inputs) const;

  TruthTable ToTruthTable() const;
  // The same table as one word, for covers of <= kWordVars variables.
  std::uint64_t ToTruthWord() const;

  // Stable sort by ascending literal count — the cube order prescribed by the
  // paper's essential-weight selection.
  void SortByLiteralCount();

  // Drops cubes fully contained in another cube of the cover (single-cube
  // containment); cheap cleanup after cube surgery.
  void RemoveContainedCubes();

  bool IsConst0() const;
  bool IsConst1() const;

  std::string ToString() const;

 private:
  int num_vars_;
  std::vector<Cube> cubes_;
};

}  // namespace sm
