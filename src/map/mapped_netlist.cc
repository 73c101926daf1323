#include "map/mapped_netlist.h"

#include <algorithm>

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
  // AddGate and AddInput may interleave, but input ids still ascend: each
  // is the next element id.
  const auto it = std::lower_bound(input_ids_.begin(), input_ids_.end(), id);
  return it != input_ids_.end() && *it == id
             ? static_cast<int>(it - input_ids_.begin())
             : -1;
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
  EvalParallel(input_words.data(), value.data());
  return value;
}

void MappedNetlist::EvalParallel(const std::uint64_t* input_words,
                                 std::uint64_t* values) const {
  std::size_t next_input = 0;
  for (GateId id = 0; id < elements_.size(); ++id) {
    const Element& e = elements_[id];
    values[id] = e.cell == nullptr
                     ? input_words[next_input++]
                     : e.cell->EvalParallel(values, e.fanins.data());
  }
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
