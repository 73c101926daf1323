// Technology-mapped (gate-level) netlist: a DAG of library-cell instances.
// This is the "circuit C" of the paper — STA, SPCF computation, timing
// simulation and the overhead accounting all operate on this form.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "liblib/library.h"

namespace sm {

using GateId = std::uint32_t;
inline constexpr GateId kInvalidGate = ~GateId{0};

class MappedNetlist {
 public:
  struct Element {
    const Cell* cell;  // nullptr for primary inputs
    std::string name;
    std::vector<GateId> fanins;  // fanins[p] drives cell pin p
  };

  struct Output {
    std::string name;
    GateId driver;
  };

  explicit MappedNetlist(std::string name);

  const std::string& name() const { return name_; }

  GateId AddInput(std::string name);
  GateId AddGate(const Cell* cell, std::vector<GateId> fanins,
                 std::string name = "");
  void AddOutput(std::string name, GateId driver);

  std::size_t NumElements() const { return elements_.size(); }
  std::size_t NumInputs() const { return num_inputs_; }
  std::size_t NumGates() const { return elements_.size() - num_inputs_; }
  std::size_t NumOutputs() const { return outputs_.size(); }

  bool IsInput(GateId id) const { return element(id).cell == nullptr; }
  const Element& element(GateId id) const;
  const Cell& cell(GateId id) const;
  const std::vector<GateId>& fanins(GateId id) const {
    return element(id).fanins;
  }
  const std::vector<Output>& outputs() const { return outputs_; }
  const Output& output(std::size_t i) const;
  const std::vector<GateId>& inputs() const { return input_ids_; }
  // Position of `id` in inputs(), or -1; a binary search (O(log n)).
  int InputIndex(GateId id) const;

  GateId FindByName(const std::string& name) const;  // kInvalidGate if absent

  // Fanout lists, indexed by GateId, each in ascending GateId order. Built
  // as gates are added, so concurrent readers need no synchronization.
  const std::vector<std::vector<GateId>>& Fanouts() const { return fanouts_; }

  double TotalArea() const;

  // Gate count excluding tie cells (the paper's "No. gates" column counts
  // logic gates).
  std::size_t NumLogicGates() const;

  // 64-way bit-parallel evaluation: one word per primary input, returns one
  // word per element (indexable by GateId). Each gate is evaluated by
  // Cell::EvalParallel over its on-set primes.
  std::vector<std::uint64_t> EvalParallel(
      const std::vector<std::uint64_t>& input_words) const;
  // The same into caller storage: `input_words` holds NumInputs() words in
  // inputs() order, `values` receives NumElements() words. Allocates nothing.
  void EvalParallel(const std::uint64_t* input_words,
                    std::uint64_t* values) const;

  void CheckInvariants() const;

 private:
  std::string name_;
  std::vector<Element> elements_;
  std::vector<GateId> input_ids_;
  std::size_t num_inputs_ = 0;
  std::vector<Output> outputs_;
  std::unordered_map<std::string, GateId> by_name_;
  std::vector<std::vector<GateId>> fanouts_;
};

}  // namespace sm
