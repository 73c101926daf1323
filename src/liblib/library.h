// Cell library: an immutable, owning collection of cells with name lookup
// and a small text format for custom libraries.
//
// Text format (one cell per line, '#' comments):
//   cell <name> area=<a> energy=<e> delays=<d0,d1,...> func=<bits>
// where <bits> is the 2^k truth-table bit string (minterm 0 first) over the
// k pins implied by the delay list. Example 2-input NAND:
//   cell ND2 area=2 energy=1.4 delays=1.4,1.4 func=1110
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "liblib/cell.h"

namespace sm {

// One way to realize a k-input function with a cell: pin p of `cell` reads
// input perm[p] of the function.
struct CellMatch {
  const Cell* cell;
  std::array<std::uint8_t, kWordVars> perm;
};

class Library {
 public:
  explicit Library(std::string name);

  // Cells are stored at stable addresses; pointers remain valid for the
  // library's lifetime.
  const Cell* Add(Cell cell);

  const std::string& name() const { return name_; }
  std::size_t NumCells() const { return cells_.size(); }
  const Cell* ByName(const std::string& name) const;  // nullptr when absent
  const Cell* ByNameOrThrow(const std::string& name) const;

  std::vector<const Cell*> AllCells() const;
  // All cells with exactly `pins` pins.
  std::vector<const Cell*> CellsWithPins(int pins) const;

  // Smallest-area cell computing the requested 1/0 constant, or the smallest
  // inverter/buffer; nullptr when the library lacks one.
  const Cell* SmallestConstant(bool value) const;
  const Cell* SmallestInverter() const;

  int MaxPins() const;

  // The permutation-complete match index: the ways a cell of `k` pins
  // realizes the k-input function `truth` (a word in the kVarWord layout,
  // bits from 2^k up clear), or nullptr when no cell does. Only cells of
  // 1..kWordVars pins are indexed. A bucket lists cells in library order,
  // each once, with the first pin permutation (in lexicographic order) that
  // realizes the function. Add extends the index; lookups only read it, so
  // threads sharing a Library may look up concurrently. Entries point at
  // this library's cells and live as long as it does; never cache them by
  // the library's address, which a later Library may reuse.
  const std::vector<CellMatch>* Matches(int k, std::uint64_t truth) const {
    if (k < 1 || k > kWordVars) return nullptr;
    const auto& by_truth = index_[static_cast<std::size_t>(k)];
    const auto it = by_truth.find(truth);
    return it == by_truth.end() ? nullptr : &it->second;
  }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::array<std::unordered_map<std::uint64_t, std::vector<CellMatch>>,
             kWordVars + 1>
      index_;
};

// Parses the text format described above.
Library ParseLibrary(const std::string& name, const std::string& text);

}  // namespace sm
