// mc_validate: runtime validation of finished flows. The flows for three
// circuits are built in set-up; the timed part runs EstimateTimingYield
// (threads = 1, shipped clock Δ, σ = 0.05) and RunFaultInjectionCampaign on
// each. It isolates the STA, variation sampler, escape scan and batched
// simulation layers: no mapping or masking synthesis is timed.
#include <algorithm>
#include <sstream>

#include "harness/flow.h"
#include "harness/inject.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "speedbench.h"
#include "suite/paper_suite.h"
#include "variation/variation.h"

namespace speedbench {
namespace {

// C2670 and sparc_ifu_dec from Table 1 and the larger sparc_exu_ecl from
// Table 2: the STA share of MC wall differs between them.
const char* const kCircuits[] = {"C2670", "sparc_ifu_dec", "sparc_exu_ecl"};
// Sized so a pass takes about a second: a 20 s run then has ~20 passes, and
// the tail (the highest percentile with ten passes beyond it) stays a
// percentile of passes rather than their maximum.
constexpr std::size_t kMcTrials = 500;
constexpr double kSigma = 0.05;
// Exhaustive speed-path sites; with sparc_exu_ecl's ~700 sites, 10 vectors a
// site make injection about a third of the engine time.
constexpr std::size_t kVectorsPerSite = 10;

struct Plan {
  std::vector<std::uint64_t> mc_seed, inject_seed;
};

Plan MakePlan(std::uint64_t seed) {
  Plan plan;
  for (std::uint64_t i = 0; i < std::size(kCircuits); ++i) {
    plan.mc_seed.push_back(DeriveSeed(seed, 2 * i));
    plan.inject_seed.push_back(DeriveSeed(seed, 2 * i + 1));
  }
  return plan;
}

sm::YieldMcOptions YieldOptions(std::uint64_t seed) {
  sm::YieldMcOptions o;
  o.trials = kMcTrials;
  o.threads = 1;
  o.seed = seed;
  o.model.sigma = kSigma;
  return o;
}

sm::InjectOptions InjectOptionsFor(std::uint64_t seed) {
  sm::InjectOptions o;
  o.vectors_per_site = kVectorsPerSite;
  o.seed = seed;
  o.threads = 1;
  return o;
}

struct Flows {
  sm::Library lib = sm::Lsi10kLike();
  std::vector<sm::Network> nets;
  std::vector<std::unique_ptr<sm::FlowResult>> flows;
  double generate_s = 0;
};

// The semantic counts of one validation; must repeat exactly on every pass.
struct Counts {
  std::vector<std::uint64_t> values;
  bool operator==(const Counts&) const = default;
};

Counts CountsOf(const sm::YieldMcResult& y, const sm::InjectionCampaignResult& c) {
  return {{y.violations_original, y.violations_protected, y.masked_trials,
           y.residual_trials, y.unexcited_trials, y.scan_truncations,
           y.masked_events, y.residual_events, y.words_simulated,
           y.lanes_simulated, c.sites, c.trials, c.benign, c.masked, c.escapes,
           c.masked_events, c.words_simulated, c.lanes_simulated}};
}

struct PassTotals {
  std::uint64_t mc_trials = 0, violating = 0, inject_sites = 0,
                inject_trials = 0, words = 0, lanes = 0;
};

// Replays the engine's per-trial STA: the same sampled scales on C and on
// C ∪ C̃ at the same clocks, with spans around sampling and STA. Returns the
// number of trials whose protected netlist violates, which must equal the
// engine's own count.
std::size_t ReplayMcSta(Tracer& tr, const sm::FlowResult& flow,
                        const sm::YieldMcOptions& options) {
  const auto replay = tr.Open("mc.replay");
  const sm::MappedNetlist& original = flow.original;
  const sm::MappedNetlist& prot = flow.protected_circuit.netlist;
  const double clock = flow.timing.critical_delay;
  double mux_compensation = 0;
  for (const auto& tap : flow.protected_circuit.taps) {
    mux_compensation = std::max(mux_compensation, prot.cell(tap.mux).max_delay());
  }
  const double prot_clock = clock + mux_compensation;
  std::vector<sm::GateId> orig_in_prot(original.NumElements());
  for (sm::GateId id = 0; id < original.NumElements(); ++id) {
    orig_in_prot[id] = prot.FindByName(original.element(id).name);
  }
  const sm::DelayScaleSampler sampler(prot, options.model);
  const std::vector<double> no_shift;
  const auto late = [](const sm::MappedNetlist& net, const sm::TimingInfo& t,
                       double deadline) {
    for (const auto& o : net.outputs()) {
      if (t.max_arrival[o.driver] > deadline + 1e-9) return true;
    }
    return false;
  };
  std::size_t violating = 0;
  for (std::size_t t = 0; t < options.trials; ++t) {
    sm::ShiftedSample sample;
    {
      const auto s = tr.Open("variation.sample");
      sample = sampler.SampleShifted(options.seed, t, no_shift);
    }
    const auto s = tr.Open("sta.mc");
    std::vector<double> orig_scale(original.NumElements(), 1.0);
    for (sm::GateId id = 0; id < original.NumElements(); ++id) {
      if (orig_in_prot[id] != sm::kInvalidGate) {
        orig_scale[id] = sample.scale[orig_in_prot[id]];
      }
    }
    const sm::TimingInfo t_orig = sm::AnalyzeTiming(original, clock, &orig_scale);
    (void)late(original, t_orig, clock);
    const sm::TimingInfo t_prot = sm::AnalyzeTiming(prot, prot_clock, &sample.scale);
    if (late(prot, t_prot, prot_clock)) ++violating;
  }
  return violating;
}

// One validation of every circuit, the timed operation. Returns the seconds
// the engines took (replay excluded).
double Pass(const Flows& flows, const Plan& plan, Tracer* tracer, Outcome& out,
            std::vector<Counts>& counts, PassTotals& totals) {
  counts.assign(flows.flows.size(), Counts{});
  totals = PassTotals{};
  double seconds = 0;
  for (std::size_t i = 0; i < flows.flows.size(); ++i) {
    const sm::FlowResult& flow = *flows.flows[i];
    const std::string name = kCircuits[i];
    ++out.attempted;
    try {
      const sm::YieldMcOptions yopts = YieldOptions(plan.mc_seed[i]);
      sm::YieldMcResult y;
      sm::InjectionCampaignResult c;
      sm::WallTimer timer;
      {
        const auto s = Tracer::OpenOn(tracer, "mc");
        y = sm::EstimateTimingYield(flow, yopts);
      }
      {
        const auto s = Tracer::OpenOn(tracer, "inject.campaign");
        c = sm::RunFaultInjectionCampaign(flow, InjectOptionsFor(plan.inject_seed[i]));
      }
      seconds += timer.Seconds();
      counts[i] = CountsOf(y, c);
      const bool ok = c.escapes == 0 && y.residual_trials == 0;
      if (!ok) ++out.failed;
      out.Check(ok, name + ": escapes under injection or residual MC trials");
      totals.mc_trials += y.trials;
      totals.violating += y.violations_protected;
      totals.inject_sites += c.sites;
      totals.inject_trials += c.trials;
      totals.words += y.words_simulated + c.words_simulated;
      totals.lanes += y.lanes_simulated + c.lanes_simulated;
      if (tracer != nullptr) {
        const std::size_t replayed = ReplayMcSta(*tracer, flow, yopts);
        out.Check(replayed == y.violations_protected,
                  name + ": STA replay disagrees with the engine's violations");
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.Check(false, name + ": validation threw: " + e.what());
    }
  }
  out.op_ms.push_back(seconds * 1e3);
  return seconds;
}

}  // namespace

std::string McPlanText(std::uint64_t seed) {
  const Plan plan = MakePlan(seed);
  std::ostringstream text;
  for (std::size_t i = 0; i < plan.mc_seed.size(); ++i) {
    text << kCircuits[i] << " mc_seed=" << plan.mc_seed[i]
         << " trials=" << kMcTrials << " sigma=" << kSigma
         << " inject_seed=" << plan.inject_seed[i]
         << " vectors=" << kVectorsPerSite << "\n";
  }
  return text.str();
}

Outcome RunMcValidate(const RunConfig& config) {
  Outcome out;
  const Plan plan = MakePlan(config.seed);
  const auto flows = RepeatedSetup(5, &out.setup_s, [] {
    auto f = std::make_unique<Flows>();
    sm::WallTimer timer;
    for (const char* name : kCircuits) {
      f->nets.push_back(sm::GenerateCircuit(sm::PaperCircuitByName(name).spec));
    }
    f->generate_s = timer.Seconds();
    for (const sm::Network& net : f->nets) {
      f->flows.push_back(
          std::make_unique<sm::FlowResult>(sm::RunMaskingFlow(net, f->lib)));
    }
    return f;
  });
  out.Layer("suite.generate_s", flows->generate_s, "s");
  for (std::size_t i = 0; i < flows->flows.size(); ++i) {
    const sm::FlowResult& flow = *flows->flows[i];
    out.Check(flow.verification.safety && flow.overheads.coverage_100,
              std::string(kCircuits[i]) + ": set-up flow not verified");
  }

  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<Counts> first, counts;
  PassTotals totals;
  std::vector<double> pass_s;
  double untraced_s = 0;
  std::size_t passes = 0;
  do {
    pass_s.push_back(
        Pass(*flows, plan, nullptr, out, passes == 0 ? first : counts, totals));
    untraced_s += pass_s.back();
    if (passes > 0) out.Check(counts == first, "MC/injection counts differ between passes");
    ++passes;
  } while (untraced_s < untraced_budget);
  // The median pass, so a few passes slowed by a busy machine do not move it.
  const double trials = static_cast<double>(totals.mc_trials + totals.inject_trials);
  out.work_per_s = trials / Median(pass_s);
  out.Info("mc_validate.passes", static_cast<double>(passes), "count");
  // Per-pass work counters; the engine runs STA twice a trial (C, C ∪ C̃).
  out.Layer("mc.trials", static_cast<double>(totals.mc_trials), "count");
  out.Layer("sta.mc_calls", static_cast<double>(2 * totals.mc_trials), "count");
  out.Layer("mc.violating_trials", static_cast<double>(totals.violating), "count");
  out.Layer("inject.sites", static_cast<double>(totals.inject_sites), "count");
  out.Layer("inject.trials", static_cast<double>(totals.inject_trials), "count");
  out.Layer("sim.words", static_cast<double>(totals.words), "count");
  out.Layer("sim.lanes", static_cast<double>(totals.lanes), "count");
  out.Layer("sim.lane_utilization",
            totals.words == 0 ? 0.0
                              : static_cast<double>(totals.lanes) /
                                    (64.0 * static_cast<double>(totals.words)),
            "ratio");
  if (!config.trace) return out;

  Tracer tracer(true);
  double traced_s = 0;
  std::size_t traced_passes = 0;
  do {
    traced_s += Pass(*flows, plan, &tracer, out, counts, totals);
    out.Check(counts == first, "traced MC/injection counts differ from untraced");
    ++traced_passes;
  } while (traced_s < config.seconds / 2);

  const double mc_s = tracer.Total("mc");
  const double inject_s = tracer.Total("inject.campaign");
  const double sample_s = tracer.Total("variation.sample");
  const double sta_s = tracer.Total("sta.mc");
  const double mc_trials = static_cast<double>(totals.mc_trials * traced_passes);
  const double inject_trials = static_cast<double>(totals.inject_trials * traced_passes);
  out.Info("sta.mc_s", sta_s, "s");
  out.Info("variation.sample_s", sample_s, "s");
  out.Info("mc.rest_s", mc_s - sample_s - sta_s, "s");
  out.Info("inject.campaign_s", inject_s, "s");
  out.Layer("mc.trials_per_s", mc_trials / mc_s, "1/s");
  out.Layer("inject.trials_per_s", inject_trials / inject_s, "1/s");
  out.Layer("sta.mc_pct", 100.0 * sta_s / mc_s, "%");
  out.Layer("variation.sample_pct", 100.0 * sample_s / mc_s, "%");
  out.Layer("mc.rest_pct", 100.0 * (mc_s - sample_s - sta_s) / mc_s, "%");
  out.Layer("inject.campaign_pct", 100.0 * inject_s / (mc_s + inject_s), "%");
  const double per_untraced = untraced_s / static_cast<double>(passes);
  const double per_traced = traced_s / static_cast<double>(traced_passes);
  out.Layer("trace.overhead_pct", 100.0 * (per_traced / per_untraced - 1), "%");
  return out;
}

}  // namespace speedbench
