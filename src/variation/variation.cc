#include "variation/variation.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace sm {
namespace {

// Shared-component basis over the unit square: low spatial frequencies
// first, amplitude-normalized to [-1, 1]. With c_k = 1/sqrt(K) the summed
// component variance is bounded by the independent part's, which is what
// correlation_fraction splits.
double Basis(int k, double x, double y) {
  constexpr double kPi = 3.14159265358979323846;
  switch (k % 4) {
    case 0:
      return std::cos(kPi * (1 + k / 4) * x);
    case 1:
      return std::cos(kPi * (1 + k / 4) * y);
    case 2:
      return std::cos(kPi * (1 + k / 4) * x) * std::cos(kPi * (1 + k / 4) * y);
    default:
      return std::sin(kPi * (1 + k / 4) * (x + y));
  }
}

}  // namespace

const char* ToString(VariationModelKind kind) {
  switch (kind) {
    case VariationModelKind::kIndependentGaussian:
      return "gauss";
    case VariationModelKind::kSpatiallyCorrelated:
      return "spatial";
    case VariationModelKind::kAgingDrift:
      return "aging";
  }
  return "?";
}

DelayScaleSampler::DelayScaleSampler(const MappedNetlist& net,
                                     const VariationModel& model)
    : model_(model) {
  SM_REQUIRE(model.sigma >= 0, "variation sigma must be non-negative");
  SM_REQUIRE(model.correlation_fraction >= 0 &&
                 model.correlation_fraction <= 1,
             "correlation_fraction must be in [0, 1]");
  SM_REQUIRE(model.num_components > 0, "need at least one shared component");
  SM_REQUIRE(model.min_scale > 0, "min_scale must be positive");

  const std::size_t n = net.NumElements();
  levels_.assign(n, 0);
  is_input_.assign(n, false);
  for (GateId id = 0; id < n; ++id) {
    if (net.IsInput(id)) {
      is_input_[id] = true;
      continue;
    }
    int lvl = 0;
    for (GateId f : net.fanins(id)) lvl = std::max(lvl, levels_[f] + 1);
    levels_[id] = lvl;
    max_level_ = std::max(max_level_, lvl);
  }

  if (model_.kind != VariationModelKind::kSpatiallyCorrelated) return;

  // Synthetic placement: x = normalized level (logic depth ≈ horizontal
  // position in a standard-cell row layout), y = rank among the elements of
  // the same level. Deterministic, and close gates in the DAG land close on
  // the square. Only the basis values at each placement are kept.
  const auto k_count = static_cast<std::size_t>(model_.num_components);
  basis_.assign(n * k_count, 0.0);
  std::vector<int> level_size(static_cast<std::size_t>(max_level_) + 1, 0);
  std::vector<int> level_rank(static_cast<std::size_t>(max_level_) + 1, 0);
  for (GateId id = 0; id < n; ++id) {
    ++level_size[static_cast<std::size_t>(levels_[id])];
  }
  for (GateId id = 0; id < n; ++id) {
    const auto lvl = static_cast<std::size_t>(levels_[id]);
    const double x = max_level_ == 0
                         ? 0.5
                         : static_cast<double>(levels_[id]) / max_level_;
    const double y =
        level_size[lvl] <= 1
            ? 0.5
            : static_cast<double>(level_rank[lvl]) / (level_size[lvl] - 1);
    ++level_rank[lvl];
    for (std::size_t k = 0; k < k_count; ++k) {
      basis_[id * k_count + k] = Basis(static_cast<int>(k), x, y);
    }
  }
}

std::vector<double> DelayScaleSampler::Sample(std::uint64_t seed,
                                              std::uint64_t trial) const {
  return SampleShifted(seed, trial, {}).scale;
}

ShiftedSample DelayScaleSampler::SampleShifted(
    std::uint64_t seed, std::uint64_t trial,
    const std::vector<double>& shift_sigmas) const {
  ShiftedSample out;
  out.scale.resize(levels_.size());
  out.log_weight =
      SampleShiftedInto(seed, trial, shift_sigmas, out.scale.data());
  return out;
}

double DelayScaleSampler::SampleShiftedInto(
    std::uint64_t seed, std::uint64_t trial,
    const std::vector<double>& shift_sigmas, double* scale) const {
  SM_REQUIRE(shift_sigmas.empty() || shift_sigmas.size() == levels_.size(),
             "shift vector must be empty or per-element");
  Rng rng = Rng::ForStream(seed, trial);
  const std::size_t n = levels_.size();
  const bool spatial = model_.kind == VariationModelKind::kSpatiallyCorrelated;
  const auto k_count = static_cast<std::size_t>(model_.num_components);

  // Shared components are drawn first with a fixed count, so the per-gate
  // draws that follow stay aligned across model kinds and shift choices.
  // Only the spatial model keeps them; the others skip the two draws each
  // rng.Normal() would consume instead of computing a normal to discard.
  double inline_components[kInlineComponents] = {};
  std::vector<double> heap_components;
  double* components = inline_components;
  if (spatial && k_count > kInlineComponents) {
    heap_components.resize(k_count);
    components = heap_components.data();
  }
  for (std::size_t k = 0; k < k_count; ++k) {
    if (spatial) {
      components[k] = rng.Normal();
    } else {
      rng.Next();
      rng.Next();
    }
  }

  const double rho = spatial ? model_.correlation_fraction : 0.0;
  const double shared_amp = std::sqrt(rho / static_cast<double>(k_count));
  const double indep_amp = std::sqrt(1.0 - rho);

  double log_weight = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_input_[i]) {
      scale[i] = 1.0;  // PIs carry no gate delay
      continue;
    }
    const double mu = shift_sigmas.empty() ? 0.0 : shift_sigmas[i];
    const double g = rng.Normal() + mu;
    if (mu != 0.0) {
      // log p(g)/q(g) for q = N(mu, 1): -mu·g + mu²/2.
      log_weight += -mu * g + 0.5 * mu * mu;
    }
    double shared = 0.0;
    if (spatial) {
      const double* basis = &basis_[i * k_count];
      for (std::size_t k = 0; k < k_count; ++k) {
        shared += components[k] * basis[k];
      }
    }
    double s = 1.0 + model_.sigma * (indep_amp * g + shared_amp * shared);
    if (model_.kind == VariationModelKind::kAgingDrift && max_level_ > 0) {
      // Deterministic drift profile: the deepest gates (the wearout hot
      // spots sitting on speed-paths) age hardest.
      s += model_.aging_level * (static_cast<double>(levels_[i]) /
                                 static_cast<double>(max_level_));
    }
    scale[i] = std::max(model_.min_scale, s);
  }
  return log_weight;
}

}  // namespace sm
