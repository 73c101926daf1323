#include "liblib/library.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/strings.h"

namespace sm {

Library::Library(std::string name) : name_(std::move(name)) {}

const Cell* Library::Add(Cell cell) {
  SM_REQUIRE(ByName(cell.name()) == nullptr,
             "duplicate cell name: " << cell.name());
  cells_.push_back(std::make_unique<Cell>(std::move(cell)));
  const Cell* added = cells_.back().get();
  const int k = added->num_pins();
  if (k < 1 || k > kWordVars) return added;
  std::vector<int> perm(static_cast<std::size_t>(k));
  std::iota(perm.begin(), perm.end(), 0);
  do {
    auto& bucket = index_[static_cast<std::size_t>(k)]
                         [added->function().Remap(perm, k).ToWord()];
    // One permutation per (cell, function) suffices: pin delays are
    // per-pin, so keep the first one found. The cell is the newest, so a
    // bucket that holds it ends with it.
    if (!bucket.empty() && bucket.back().cell == added) continue;
    CellMatch m{added, {}};
    for (std::size_t pin = 0; pin < perm.size() && pin < m.perm.size(); ++pin) {
      m.perm[pin] = static_cast<std::uint8_t>(perm[pin]);
    }
    bucket.push_back(m);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return added;
}

const Cell* Library::ByName(const std::string& name) const {
  for (const auto& c : cells_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

const Cell* Library::ByNameOrThrow(const std::string& name) const {
  const Cell* c = ByName(name);
  SM_REQUIRE(c != nullptr, "no such cell: " << name << " in " << name_);
  return c;
}

std::vector<const Cell*> Library::AllCells() const {
  std::vector<const Cell*> out;
  out.reserve(cells_.size());
  for (const auto& c : cells_) out.push_back(c.get());
  return out;
}

std::vector<const Cell*> Library::CellsWithPins(int pins) const {
  std::vector<const Cell*> out;
  for (const auto& c : cells_) {
    if (c->num_pins() == pins) out.push_back(c.get());
  }
  return out;
}

const Cell* Library::SmallestConstant(bool value) const {
  const Cell* best = nullptr;
  for (const auto& c : cells_) {
    if (!c->IsConstant()) continue;
    if (c->function().Get(0) != value) continue;
    if (best == nullptr || c->area() < best->area()) best = c.get();
  }
  return best;
}

const Cell* Library::SmallestInverter() const {
  const Cell* best = nullptr;
  for (const auto& c : cells_) {
    if (!c->IsInverter()) continue;
    if (best == nullptr || c->area() < best->area()) best = c.get();
  }
  return best;
}

int Library::MaxPins() const {
  int m = 0;
  for (const auto& c : cells_) m = std::max(m, c->num_pins());
  return m;
}

Library ParseLibrary(const std::string& name, const std::string& text) {
  Library lib(name);
  std::size_t line_no = 0;
  for (const std::string& raw : SplitChar(text, '\n')) {
    ++line_no;
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;
    if (tokens[0] != "cell") {
      throw ParseError("library line " + std::to_string(line_no) +
                       ": expected 'cell'");
    }
    if (tokens.size() < 2) {
      throw ParseError("library line " + std::to_string(line_no) +
                       ": missing cell name");
    }
    double area = -1;
    double energy = -1;
    std::vector<double> delays;
    std::string func_bits;
    bool constant = false;
    bool const_value = false;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const auto kv = SplitChar(tokens[i], '=');
      if (kv.size() != 2) {
        throw ParseError("library line " + std::to_string(line_no) +
                         ": bad attribute " + tokens[i]);
      }
      try {
        if (kv[0] == "area") {
          area = std::stod(kv[1]);
        } else if (kv[0] == "energy") {
          energy = std::stod(kv[1]);
        } else if (kv[0] == "delays") {
          if (kv[1] == "none") {
            constant = true;
          } else {
            for (const auto& d : SplitChar(kv[1], ',')) {
              delays.push_back(std::stod(d));
            }
          }
        } else if (kv[0] == "func") {
          func_bits = kv[1];
        } else {
          throw ParseError("library line " + std::to_string(line_no) +
                           ": unknown attribute " + kv[0]);
        }
      } catch (const std::invalid_argument&) {
        throw ParseError("library line " + std::to_string(line_no) +
                         ": bad number in " + tokens[i]);
      }
    }
    if (area < 0 || energy < 0 || func_bits.empty()) {
      throw ParseError("library line " + std::to_string(line_no) +
                       ": area/energy/func are required");
    }
    int pins = static_cast<int>(delays.size());
    TruthTable tt(0);
    if (constant || pins == 0) {
      if (func_bits != "0" && func_bits != "1") {
        throw ParseError("library line " + std::to_string(line_no) +
                         ": constant func must be 0 or 1");
      }
      const_value = func_bits == "1";
      tt = const_value ? TruthTable::Const1(0) : TruthTable::Const0(0);
    } else {
      if (func_bits.size() != (std::size_t{1} << pins)) {
        throw ParseError("library line " + std::to_string(line_no) +
                         ": func width must be 2^pins");
      }
      tt = TruthTable::FromBits(func_bits, pins);
    }
    lib.Add(Cell(tokens[1], std::move(tt), area, std::move(delays), energy));
  }
  return lib;
}

}  // namespace sm
