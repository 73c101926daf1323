#include "map/mapped_netlist.h"

#include "util/check.h"
#include "util/strings.h"

namespace sm {

MappedNetlist::MappedNetlist(std::string name) : name_(std::move(name)) {}

GateId MappedNetlist::AddInput(std::string name) {
  SM_REQUIRE(!name.empty(), "inputs must be named");
  SM_REQUIRE(by_name_.find(name) == by_name_.end(),
             "duplicate element name: " << name);
  const GateId id = static_cast<GateId>(elements_.size());
  by_name_.emplace(name, id);
  elements_.push_back(Element{nullptr, std::move(name), {}});
  input_ids_.push_back(id);
  ++num_inputs_;
  fanouts_.emplace_back();
  return id;
}

GateId MappedNetlist::AddGate(const Cell* cell, std::vector<GateId> fanins,
                              std::string name) {
  SM_REQUIRE(cell != nullptr, "gate needs a cell");
  SM_REQUIRE(static_cast<int>(fanins.size()) == cell->num_pins(),
             "gate " << name << ": fanin count must equal pin count of "
                     << cell->name());
  const GateId id = static_cast<GateId>(elements_.size());
  for (GateId f : fanins) {
    SM_REQUIRE(f < id, "fanins must be previously created elements (acyclic)");
  }
  if (name.empty()) name = IndexedName("g", id);
  SM_REQUIRE(by_name_.find(name) == by_name_.end(),
             "duplicate element name: " << name);
  by_name_.emplace(name, id);
  for (GateId f : fanins) fanouts_[f].push_back(id);
  elements_.push_back(Element{cell, std::move(name), std::move(fanins)});
  fanouts_.emplace_back();
  return id;
}

void MappedNetlist::AddOutput(std::string name, GateId driver) {
  SM_REQUIRE(driver < elements_.size(), "output driver does not exist");
  outputs_.push_back(Output{std::move(name), driver});
}

const MappedNetlist::Element& MappedNetlist::element(GateId id) const {
  SM_REQUIRE(id < elements_.size(), "element id out of range: " << id);
  return elements_[id];
}

const Cell& MappedNetlist::cell(GateId id) const {
  const Element& e = element(id);
  SM_REQUIRE(e.cell != nullptr, "primary inputs have no cell");
  return *e.cell;
}

const MappedNetlist::Output& MappedNetlist::output(std::size_t i) const {
  SM_REQUIRE(i < outputs_.size(), "output index out of range");
  return outputs_[i];
}

int MappedNetlist::InputIndex(GateId id) const {
  // Inputs are created first and contiguously in practice, but AddGate and
  // AddInput may interleave; search the input list.
  for (std::size_t i = 0; i < input_ids_.size(); ++i) {
    if (input_ids_[i] == id) return static_cast<int>(i);
  }
  return -1;
}

GateId MappedNetlist::FindByName(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidGate : it->second;
}

double MappedNetlist::TotalArea() const {
  double area = 0;
  for (const Element& e : elements_) {
    if (e.cell != nullptr) area += e.cell->area();
  }
  return area;
}

std::size_t MappedNetlist::NumLogicGates() const {
  std::size_t n = 0;
  for (const Element& e : elements_) {
    if (e.cell != nullptr && !e.cell->IsConstant()) ++n;
  }
  return n;
}

std::vector<std::uint64_t> MappedNetlist::EvalParallel(
    const std::vector<std::uint64_t>& input_words) const {
  SM_REQUIRE(input_words.size() == num_inputs_,
             "EvalParallel needs one word per primary input");
  std::vector<std::uint64_t> value(elements_.size(), 0);
  std::size_t next_input = 0;
  for (GateId id = 0; id < elements_.size(); ++id) {
    const Element& e = elements_[id];
    if (e.cell == nullptr) {
      value[id] = input_words[next_input++];
      continue;
    }
    if (e.cell->IsConstant()) {
      value[id] = e.cell->function().Get(0) ? ~0ull : 0ull;
      continue;
    }
    // Evaluate the cell truth table bit-parallel over its pins.
    const TruthTable& f = e.cell->function();
    std::uint64_t out = 0;
    for (std::uint64_t m = 0; m < f.num_minterms_space(); ++m) {
      if (!f.Get(m)) continue;
      std::uint64_t term = ~0ull;
      for (int p = 0; p < f.num_vars() && term != 0; ++p) {
        const std::uint64_t w = value[e.fanins[static_cast<std::size_t>(p)]];
        term &= ((m >> p) & 1u) ? w : ~w;
      }
      out |= term;
    }
    value[id] = out;
  }
  return value;
}

void MappedNetlist::CheckInvariants() const {
  for (GateId id = 0; id < elements_.size(); ++id) {
    const Element& e = elements_[id];
    if (e.cell == nullptr) {
      SM_CHECK(e.fanins.empty(), "input " << e.name << " has fanins");
    } else {
      SM_CHECK(static_cast<int>(e.fanins.size()) == e.cell->num_pins(),
               "gate " << e.name << " fanin/pin mismatch");
      for (GateId f : e.fanins) {
        SM_CHECK(f < id, "gate " << e.name << " has a forward fanin");
      }
    }
  }
  for (const Output& o : outputs_) {
    SM_CHECK(o.driver < elements_.size(),
             "output " << o.name << " driver out of range");
  }
}

}  // namespace sm
