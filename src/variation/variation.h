// Per-gate delay variation models for Monte-Carlo timing-yield estimation.
//
// A trial draws one delay_scale vector (the multiplier STA's AnalyzeTiming
// and the event simulator both accept) per netlist element. Three models:
//
//  * kIndependentGaussian — scale_i = 1 + σ·g_i with i.i.d. g_i ~ N(0,1);
//    the classic random-dopant / local-mismatch model.
//  * kSpatiallyCorrelated — a few shared principal components over a
//    synthetic unit-square placement (topological level × rank within
//    level) carry a configurable fraction of the variance, the rest stays
//    independent; neighbouring gates slow down together, the way die-level
//    process gradients act.
//  * kAgingDrift — a deterministic mean slowdown that grows with a gate's
//    topological depth (deep gates on speed-paths are the paper's wearout
//    hot spots) plus an independent Gaussian residual; `aging_level` plays
//    the role of the wearout ablation's injected extra delay, expressed as
//    a relative drift.
//
// Sampling is counter-based: Sample(seed, trial) uses Rng::ForStream, so
// trial t's vector is one fixed function of (seed, t) — any thread may
// evaluate any trial and the results are bit-identical.
//
// Importance sampling support: SampleShifted biases the *independent*
// Gaussian component of selected gates toward slowdown (mean shift μ_i in
// σ units) and returns the log likelihood ratio log(p/q) of the drawn
// point, to be used as the trial's weight in an unbiased rare-event
// estimator (ISLE-style).
#pragma once

#include <cstdint>
#include <vector>

#include "map/mapped_netlist.h"
#include "util/rng.h"

namespace sm {

enum class VariationModelKind {
  kIndependentGaussian,
  kSpatiallyCorrelated,
  kAgingDrift,
};

const char* ToString(VariationModelKind kind);

struct VariationModel {
  VariationModelKind kind = VariationModelKind::kIndependentGaussian;
  // Standard deviation of a gate's delay scale (fraction of nominal).
  double sigma = 0.05;
  // kSpatiallyCorrelated: fraction of the variance carried by the shared
  // components, and how many components to use.
  double correlation_fraction = 0.5;
  int num_components = 4;
  // kAgingDrift: mean relative slowdown of the deepest gates (linearly
  // tapering to 0 at the inputs).
  double aging_level = 0.0;
  // Scales are clamped below at this value so sampled delays stay positive.
  double min_scale = 0.25;
};

struct ShiftedSample {
  std::vector<double> scale;  // per element; primary inputs get 1.0
  // log(p(x)/q(x)) of the drawn point under the shift; 0 when unshifted.
  double log_weight = 0;
};

class DelayScaleSampler {
 public:
  DelayScaleSampler(const MappedNetlist& net, const VariationModel& model);

  const VariationModel& model() const { return model_; }
  std::size_t num_elements() const { return levels_.size(); }

  // The trial-t delay-scale vector; a pure function of (seed, trial).
  std::vector<double> Sample(std::uint64_t seed, std::uint64_t trial) const;

  // As Sample, but gate i's independent Gaussian is drawn from
  // N(shift_sigmas[i], 1) instead of N(0, 1); the log likelihood ratio of
  // the draw is accumulated over every shifted coordinate. shift_sigmas
  // must be empty (no shift) or per-element.
  ShiftedSample SampleShifted(std::uint64_t seed, std::uint64_t trial,
                              const std::vector<double>& shift_sigmas) const;

  // SampleShifted into a caller buffer of num_elements() entries (every
  // entry is overwritten); returns the log likelihood ratio. Allocates
  // nothing unless the spatial model has more than 16 shared components —
  // the per-trial form the Monte-Carlo engine uses.
  double SampleShiftedInto(std::uint64_t seed, std::uint64_t trial,
                           const std::vector<double>& shift_sigmas,
                           double* scale) const;

 private:
  static constexpr std::size_t kInlineComponents = 16;

  VariationModel model_;
  std::vector<int> levels_;  // topological level per element (PIs = 0)
  // kSpatiallyCorrelated only: Basis(k, x_i, y_i) at element i's synthetic
  // placement, at [i * num_components + k].
  std::vector<double> basis_;
  std::vector<bool> is_input_;
  int max_level_ = 0;
};

}  // namespace sm
