#include "boolean/cube.h"

#include <bit>

#include "util/check.h"

namespace sm {

Cube::Cube(std::uint32_t pos, std::uint32_t neg) : pos_(pos), neg_(neg) {}

Cube Cube::Literal(int var, bool phase) {
  SM_REQUIRE(var >= 0 && var < kMaxCubeVars, "cube variable out of range");
  const std::uint32_t bit = 1u << var;
  return phase ? Cube(bit, 0) : Cube(0, bit);
}

Cube Cube::Minterm(std::uint32_t minterm, int num_vars) {
  SM_REQUIRE(num_vars >= 0 && num_vars <= kMaxCubeVars,
             "minterm width out of range");
  const std::uint32_t mask =
      num_vars == 32 ? 0xffffffffu : ((1u << num_vars) - 1u);
  return Cube(minterm & mask, ~minterm & mask);
}

int Cube::NumLiterals() const {
  return std::popcount(pos_) + std::popcount(neg_);
}

bool Cube::HasVar(int var) const {
  const std::uint32_t bit = 1u << var;
  return ((pos_ | neg_) & bit) != 0;
}

bool Cube::VarPhase(int var) const {
  SM_REQUIRE(HasVar(var), "VarPhase on absent variable");
  return (pos_ & (1u << var)) != 0;
}

Cube Cube::WithLiteral(int var, bool phase) const {
  SM_REQUIRE(var >= 0 && var < kMaxCubeVars, "cube variable out of range");
  const std::uint32_t bit = 1u << var;
  Cube c = *this;
  c.pos_ &= ~bit;
  c.neg_ &= ~bit;
  (phase ? c.pos_ : c.neg_) |= bit;
  return c;
}

Cube Cube::WithoutVar(int var) const {
  SM_REQUIRE(var >= 0 && var < kMaxCubeVars, "cube variable out of range");
  const std::uint32_t bit = 1u << var;
  Cube c = *this;
  c.pos_ &= ~bit;
  c.neg_ &= ~bit;
  return c;
}

bool Cube::CoversMinterm(std::uint32_t minterm) const {
  return (pos_ & ~minterm) == 0 && (neg_ & minterm) == 0;
}

bool Cube::Contains(const Cube& other) const {
  if (other.IsContradictory()) return true;
  if (IsContradictory()) return false;
  // Every literal of `this` must appear (same phase) in `other`.
  return (pos_ & ~other.pos_) == 0 && (neg_ & ~other.neg_) == 0;
}

Cube Cube::Intersect(const Cube& other) const {
  return Cube(pos_ | other.pos_, neg_ | other.neg_);
}

bool Cube::DisjointFrom(const Cube& other) const {
  return Intersect(other).IsContradictory();
}

std::string Cube::ToString(int num_vars) const {
  if (IsContradictory()) return "<empty>";
  if (IsUniverse()) return "1";
  std::string out;
  for (int v = 0; v < num_vars; ++v) {
    if (!HasVar(v)) continue;
    if (num_vars <= 26) {
      out.push_back(static_cast<char>('a' + v));
    } else {
      out += 'x';
      out += std::to_string(v);
    }
    if (!VarPhase(v)) out.push_back('\'');
  }
  return out;
}

}  // namespace sm
