// flow_table2: the paper's own experiment. RunMaskingFlow over the 20
// Table-2 circuits, single-threaded, looped in whole passes. It exercises
// mapping, STA, SPCF/BDD, masking synthesis, integration, verification and
// the power simulation, and no Monte-Carlo, event simulation or service code.
#include <algorithm>

#include "harness/flow.h"
#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "network/global_bdd.h"
#include "service/protocol.h"
#include "speedbench.h"
#include "suite/paper_suite.h"

namespace speedbench {
namespace {

struct Table2Suite {
  sm::Library lib = sm::Lsi10kLike();
  std::vector<sm::PaperCircuitInfo> infos = sm::Table2Circuits();
  std::vector<sm::Network> nets;
  double generate_s = 0;
};

// Deterministic work of one flow; must repeat exactly on every pass.
struct FlowCounters {
  std::size_t gates = 0;
  std::size_t cubes = 0;
  std::size_t ite_recursions = 0;
  std::size_t peak_live_nodes = 0;
  std::size_t gc_reclaimed = 0;
  bool operator==(const FlowCounters&) const = default;
};

FlowCounters CountersOf(const sm::FlowResult& r) {
  return {r.original.NumGates(),
          r.masking.cubes_after + r.masking.indicator_cubes,
          r.bdd.ite_recursions, r.bdd.peak_live_nodes, r.bdd.gc_reclaimed};
}

bool Verified(const sm::FlowResult& r) {
  return r.verification.safety && r.verification.coverage &&
         r.overheads.coverage_100;
}

// RunMaskingFlow recomposed from the same public calls, with a span around
// each phase. Mirrors harness/flow.cc step by step; the run checks that its
// EncodeFlowResult bytes equal RunMaskingFlow's on every circuit.
sm::FlowResult TracedFlow(Tracer& tr, const sm::Network& ti,
                          const sm::Library& lib) {
  const sm::FlowOptions options;
  const auto flow_span = tr.Open("flow");
  sm::TechMapResult mapped = [&] {
    const auto s = tr.Open("map");
    return sm::DecomposeAndMap(ti, lib, options.original_map);
  }();
  sm::ValidateFlowOptions(options, ti.NumOutputs());
  sm::BddManagerOptions mgr_options = options.bdd_options;
  mgr_options.node_limit = options.bdd_node_limit;
  auto owned = std::make_unique<sm::BddManager>(
      static_cast<int>(ti.NumInputs()), mgr_options);
  sm::BddManager* mgr = owned.get();
  sm::FlowResult r{std::move(owned),
                   std::move(mapped.netlist),
                   sm::TimingInfo{},
                   sm::SpcfResult{},
                   sm::MaskingCircuit{sm::Network(""), {}, 0, 0, 0, 0, 0},
                   sm::ProtectedCircuit{sm::MappedNetlist(""), {}, 0, 0, 0, 0},
                   sm::MaskingVerification{},
                   sm::OverheadReport{},
                   sm::BddStats{}};
  {
    const auto s = tr.Open("sta.flow");
    r.timing = sm::AnalyzeTiming(r.original);
  }
  {
    std::vector<sm::GateId> groots;
    for (const auto& o : r.original.outputs()) groots.push_back(o.driver);
    std::vector<sm::BddManager::Ref> mapped_globals;
    {
      const auto s = tr.Open("spcf.globals");
      mapped_globals = sm::BuildMappedGlobalBdds(*mgr, r.original, groots,
                                                 /*checkpoint=*/true);
    }
    const auto s = tr.Open("spcf.compute");
    sm::TimedFunctionEngine engine(*mgr, r.original, mapped_globals);
    r.spcf = sm::ComputeSpcf(engine, r.original, r.timing, options.spcf);
  }
  std::vector<sm::BddManager::Ref> spcf_roots = r.spcf.sigma;
  spcf_roots.push_back(r.spcf.sigma_union);
  const sm::BddRootScope spcf_scope(*mgr, &spcf_roots);
  {
    const auto s = tr.Open("bdd.gc");
    mgr->GarbageCollect();
  }
  std::vector<sm::NodeId> troots;
  for (const auto& o : ti.outputs()) troots.push_back(o.driver);
  std::vector<sm::BddManager::Ref> ti_globals;
  {
    const auto s = tr.Open("masking.globals");
    ti_globals = sm::BuildGlobalBdds(*mgr, ti, troots);
  }
  {
    const auto s = tr.Open("masking.synth");
    r.masking = sm::SynthesizeMaskingNetwork(*mgr, ti, ti_globals, r.spcf,
                                             options.synth);
  }
  {
    const auto s = tr.Open("masking.integrate");
    r.protected_circuit =
        sm::IntegrateMasking(r.original, r.masking, lib, options.integrate);
  }
  {
    const auto s = tr.Open("masking.verify");
    r.verification = sm::VerifyMasking(*mgr, ti, ti_globals, r.masking, r.spcf);
  }
  {
    const auto s = tr.Open("sim.power");
    r.overheads = sm::ComputeOverheads(r.original, r.protected_circuit,
                                       options.power_seed, options.power_words);
  }
  r.overheads.critical_outputs = r.spcf.critical_outputs.size();
  r.overheads.critical_minterms = r.spcf.critical_minterms;
  r.overheads.log2_critical_minterms = r.spcf.log2_critical_minterms;
  r.overheads.coverage_100 =
      r.verification.coverage && r.verification.coverage_fraction >= 1.0;
  r.overheads.safety = r.verification.safety;
  r.bdd = mgr->Stats();
  return r;
}

// One flow on every circuit; returns the seconds the flows took. `encoded`,
// when non-null, receives each circuit's EncodeFlowResult bytes.
double Pass(const Table2Suite& suite, Tracer* tracer, Outcome& out,
            std::vector<FlowCounters>& counters,
            std::vector<std::string>* encoded) {
  double seconds = 0;
  counters.assign(suite.nets.size(), FlowCounters{});
  if (encoded != nullptr) encoded->assign(suite.nets.size(), "");
  for (std::size_t i = 0; i < suite.nets.size(); ++i) {
    const std::string& name = suite.infos[i].spec.name;
    ++out.attempted;
    try {
      sm::WallTimer timer;
      const sm::FlowResult r = tracer != nullptr
                                   ? TracedFlow(*tracer, suite.nets[i], suite.lib)
                                   : sm::RunMaskingFlow(suite.nets[i], suite.lib);
      const double s = timer.Seconds();
      seconds += s;
      out.op_ms.push_back(s * 1e3);
      counters[i] = CountersOf(r);
      const bool ok = Verified(r);
      if (!ok) ++out.failed;
      out.Check(ok, name + ": flow not verified (coverage/safety)");
      if (encoded != nullptr) (*encoded)[i] = sm::EncodeFlowResult(r);
    } catch (const std::exception& e) {
      ++out.failed;
      out.Check(false, name + ": flow threw: " + e.what());
    }
  }
  return seconds;
}

}  // namespace

Outcome RunFlowTable2(const RunConfig& config) {
  Outcome out;
  const auto suite = RepeatedSetup(11, &out.setup_s, [] {
    auto s = std::make_unique<Table2Suite>();
    sm::WallTimer timer;
    s->nets = sm::GenerateCircuits(s->infos, 1);
    s->generate_s = timer.Seconds();
    return s;
  });
  out.Layer("suite.generate_s", suite->generate_s, "s");

  // Untraced passes fill the whole run, or half of it when traced passes
  // follow; either way whole passes only, so every circuit weighs the same.
  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<FlowCounters> first, counters;
  std::vector<std::string> reference;
  std::vector<double> pass_s;
  double untraced_s = 0;
  std::size_t untraced_passes = 0;
  do {
    const bool is_first = untraced_passes == 0;
    pass_s.push_back(Pass(*suite, nullptr, out, is_first ? first : counters,
                          is_first && config.trace ? &reference : nullptr));
    untraced_s += pass_s.back();
    if (!is_first) out.Check(counters == first, "work counters differ between passes");
    ++untraced_passes;
  } while (untraced_s < untraced_budget);
  // The median pass, so a few passes slowed by a busy machine do not move it.
  out.work_per_s = static_cast<double>(suite->nets.size()) / Median(pass_s);
  out.Info("flow.circuits_per_s", out.work_per_s, "1/s");
  out.Info("flow.passes", static_cast<double>(untraced_passes), "count");

  FlowCounters total;
  for (const FlowCounters& c : first) {
    total.gates += c.gates;
    total.cubes += c.cubes;
    total.ite_recursions += c.ite_recursions;
    total.peak_live_nodes = std::max(total.peak_live_nodes, c.peak_live_nodes);
    total.gc_reclaimed += c.gc_reclaimed;
  }
  out.Layer("map.gates", static_cast<double>(total.gates), "count");
  out.Layer("masking.cubes", static_cast<double>(total.cubes), "count");
  out.Layer("bdd.ite_recursions", static_cast<double>(total.ite_recursions), "count");
  out.Layer("bdd.peak_live_nodes", static_cast<double>(total.peak_live_nodes), "count");
  out.Layer("bdd.gc_reclaimed", static_cast<double>(total.gc_reclaimed), "count");
  if (!config.trace) return out;

  Tracer tracer(true);
  double traced_s = 0;
  std::size_t traced_passes = 0;
  std::vector<std::string> encoded;
  do {
    traced_s += Pass(*suite, &tracer, out, counters,
                     traced_passes == 0 ? &encoded : nullptr);
    out.Check(counters == first, "traced work counters differ from RunMaskingFlow");
    ++traced_passes;
  } while (traced_s < config.seconds / 2);
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    out.Check(encoded[i] == reference[i],
              suite->infos[i].spec.name +
                  ": traced recomposition bytes differ from RunMaskingFlow");
  }

  const double flow_s = tracer.Total("flow");
  const double coverage = tracer.ChildTotal("flow") / flow_s;
  out.Check(coverage >= 0.95, "flow phase spans cover less than 95% of the flow");
  const auto pct = [&](const char* span) { return 100.0 * tracer.Self(span) / flow_s; };
  out.Layer("map.self_pct", pct("map"), "%");
  out.Layer("sta.flow_pct", pct("sta.flow"), "%");
  out.Layer("spcf.globals_pct", pct("spcf.globals"), "%");
  out.Layer("spcf.compute_pct", pct("spcf.compute"), "%");
  out.Layer("bdd.gc_pct", pct("bdd.gc"), "%");
  out.Layer("masking.globals_pct", pct("masking.globals"), "%");
  out.Layer("masking.synth_pct", pct("masking.synth"), "%");
  out.Layer("masking.integrate_pct", pct("masking.integrate"), "%");
  out.Layer("masking.verify_pct", pct("masking.verify"), "%");
  out.Layer("sim.power_pct", pct("sim.power"), "%");
  out.Layer("flow.span_coverage_pct", 100.0 * coverage, "%");
  for (const char* span : {"map", "sta.flow", "spcf.globals", "spcf.compute", "bdd.gc",
                           "masking.globals", "masking.synth", "masking.integrate",
                           "masking.verify", "sim.power"}) {
    out.Info(std::string(span) + ".self_s", tracer.Self(span), "s");
  }
  const double per_untraced = untraced_s / static_cast<double>(untraced_passes);
  const double per_traced = traced_s / static_cast<double>(traced_passes);
  out.Layer("trace.overhead_pct", 100.0 * (per_traced / per_untraced - 1), "%");
  return out;
}

}  // namespace speedbench
