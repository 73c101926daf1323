// Standard-cell model.
//
// The paper's flow maps circuits with Synopsys DC onto the lsi_10k library;
// we model the properties the experiments consume: a cell's Boolean function,
// area, per-pin pin-to-output delay, and switching energy (for the dynamic
// power overhead columns of Table 2). Delays are load-independent — the same
// fixed-delay abstraction the paper's worked example uses (inverter 1 unit,
// 2-input gates 2 units).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "boolean/sop.h"
#include "boolean/truth_table.h"

namespace sm {

class Cell {
 public:
  Cell(std::string name, TruthTable function, double area,
       std::vector<double> pin_delays, double switch_energy);

  const std::string& name() const { return name_; }
  int num_pins() const { return function_.num_vars(); }
  const TruthTable& function() const { return function_; }
  double area() const { return area_; }
  double pin_delay(int pin) const;
  double max_delay() const;
  double switch_energy() const { return switch_energy_; }

  // Prime-implicant covers of the on-set and off-set — the P set of Eqn. 1.
  // Computed at construction, so threads sharing a Library only read them.
  const Sop& OnSetPrimes() const { return on_primes_; }
  const Sop& OffSetPrimes() const { return off_primes_; }

  // 64-way bit-parallel evaluation, the one gate kernel of the mapped-netlist
  // simulators (zero-delay settling, power, batched timing simulation): pin
  // p of the cell reads values[fanins[p]], and the result is the OR over the
  // on-set primes of the AND of their literals. Equal to the truth table on
  // every pattern, for any pin count; a tie cell has no pins and yields its
  // constant (one universal prime, or none).
  std::uint64_t EvalParallel(const std::uint64_t* values,
                             const std::uint32_t* fanins) const {
    std::uint64_t out = 0;
    for (const Cube& c : on_primes_.cubes()) {
      std::uint64_t term = ~0ull;
      for (std::uint32_t m = c.pos(); m != 0; m &= m - 1) {
        term &= values[fanins[std::countr_zero(m)]];
      }
      for (std::uint32_t m = c.neg(); m != 0; m &= m - 1) {
        term &= ~values[fanins[std::countr_zero(m)]];
      }
      out |= term;
    }
    return out;
  }

  bool IsConstant() const { return num_pins() == 0; }
  bool IsInverter() const;
  bool IsBuffer() const;

 private:
  std::string name_;
  TruthTable function_;
  double area_;
  std::vector<double> pin_delays_;
  double switch_energy_;
  Sop on_primes_;
  Sop off_primes_;
};

}  // namespace sm
