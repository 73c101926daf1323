#include "liblib/cell.h"

#include <algorithm>

#include "boolean/isop.h"
#include "util/check.h"

namespace sm {

Cell::Cell(std::string name, TruthTable function, double area,
           std::vector<double> pin_delays, double switch_energy)
    : name_(std::move(name)),
      function_(std::move(function)),
      area_(area),
      pin_delays_(std::move(pin_delays)),
      switch_energy_(switch_energy) {
  SM_REQUIRE(!name_.empty(), "cells must be named");
  SM_REQUIRE(static_cast<int>(pin_delays_.size()) == function_.num_vars(),
             "cell " << name_ << ": one delay per pin required");
  SM_REQUIRE(area_ >= 0 && switch_energy_ >= 0,
             "cell " << name_ << ": area/energy must be non-negative");
  for (double d : pin_delays_) {
    SM_REQUIRE(d > 0, "cell " << name_ << ": pin delays must be positive");
  }
  if (function_.num_vars() > 0) {
    SM_REQUIRE(!function_.IsConst0() && !function_.IsConst1(),
               "cell " << name_
                       << ": constant function must have zero pins");
    for (int v = 0; v < function_.num_vars(); ++v) {
      SM_REQUIRE(function_.DependsOn(v),
                 "cell " << name_ << ": vacuous pin " << v);
    }
  }
  on_primes_ = AllPrimes(function_);
  off_primes_ = AllPrimes(~function_);
}

double Cell::pin_delay(int pin) const {
  SM_REQUIRE(pin >= 0 && pin < num_pins(), "pin index out of range");
  return pin_delays_[static_cast<std::size_t>(pin)];
}

double Cell::max_delay() const {
  double d = 0;
  for (double p : pin_delays_) d = std::max(d, p);
  return d;
}

bool Cell::IsInverter() const {
  return num_pins() == 1 && function_ == ~TruthTable::Var(0, 1);
}

bool Cell::IsBuffer() const {
  return num_pins() == 1 && function_ == TruthTable::Var(0, 1);
}

}  // namespace sm
