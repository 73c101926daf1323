// Micro benchmarks (google-benchmark) for the substrate hot paths: BDD
// operations, ISOP extraction, technology mapping, STA, the SPCF engine,
// and the MC trial engine with its pattern draws.
#include <benchmark/benchmark.h>

#include "boolean/isop.h"
#include "harness/flow.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "map/mapped_bdd.h"
#include "map/tech_map.h"
#include "network/decompose.h"
#include "sim/batch_sim.h"
#include "sim/lane_patterns.h"
#include "spcf/spcf.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "util/rng.h"

namespace sm {
namespace {

void BM_BddAndOrChain(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BddManager mgr(vars);
    BddManager::Ref acc = mgr.True();
    for (int v = 0; v + 1 < vars; v += 2) {
      acc = mgr.And(acc, mgr.Or(mgr.Var(v), mgr.NotVar(v + 1)));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_BddAndOrChain)->Arg(32)->Arg(128)->Arg(512);

void BM_BddSatCount(benchmark::State& state) {
  const int vars = 64;
  BddManager mgr(vars);
  Rng rng(1);
  BddManager::Ref f = mgr.False();
  for (int i = 0; i < 24; ++i) {
    BddManager::Ref cube = mgr.True();
    for (int j = 0; j < 8; ++j) {
      const int v = static_cast<int>(rng.Below(vars));
      cube = mgr.And(cube, rng.Chance(0.5) ? mgr.Var(v) : mgr.NotVar(v));
    }
    f = mgr.Or(f, cube);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.SatCount(f));
  }
}
BENCHMARK(BM_BddSatCount);

void BM_IsopRandom(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  Rng rng(7);
  TruthTable tt(vars);
  for (std::uint64_t m = 0; m < tt.num_minterms_space(); ++m) {
    tt.Set(m, rng.Chance(0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Isop(tt, TruthTable::Const0(vars)));
  }
}
BENCHMARK(BM_IsopRandom)->Arg(6)->Arg(10)->Arg(14);

void BM_TechMapC432(benchmark::State& state) {
  const Library lib = Lsi10kLike();
  const Network ti = GenerateCircuit(PaperCircuitByName("C432").spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposeAndMap(ti, lib));
  }
}
BENCHMARK(BM_TechMapC432);

// TechMap alone on the largest Table-2 subject graph (13 922 nodes);
// argument 0 is area mode, 1 delay mode.
void BM_TechMapLargestTable2(benchmark::State& state) {
  const Library lib = Lsi10kLike();
  const Network subject =
      DecomposeToAndInv(
          GenerateCircuit(PaperCircuitByName("sparc_ifu_ifqdp").spec))
          .network;
  TechMapOptions opts;
  if (state.range(0) != 0) opts.mode = TechMapOptions::Mode::kDelay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TechMap(subject, lib, opts));
  }
}
BENCHMARK(BM_TechMapLargestTable2)->Arg(0)->Arg(1);

void BM_StaC2670(benchmark::State& state) {
  const Library lib = Lsi10kLike();
  const Network ti = GenerateCircuit(PaperCircuitByName("C2670").spec);
  const TechMapResult mapped = DecomposeAndMap(ti, lib);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeTiming(mapped.netlist));
  }
}
BENCHMARK(BM_StaC2670);

void BM_SpcfShortPathC432(benchmark::State& state) {
  const Library lib = Lsi10kLike();
  const Network ti = GenerateCircuit(PaperCircuitByName("C432").spec);
  const TechMapResult mapped = DecomposeAndMap(ti, lib);
  const TimingInfo timing = AnalyzeTiming(mapped.netlist);
  for (auto _ : state) {
    BddManager mgr(static_cast<int>(mapped.netlist.NumInputs()));
    SpcfOptions options;
    benchmark::DoNotOptimize(
        ComputeSpcf(mgr, mapped.netlist, timing, options));
  }
}
BENCHMARK(BM_SpcfShortPathC432);

// One 64-lane word of random next+previous pattern pairs at sparc_ifu_dec's
// input count, the classification draws of MC yield and fault injection.
void BM_LanePatternsDraw(benchmark::State& state) {
  const std::size_t inputs =
      GenerateCircuit(PaperCircuitByName("sparc_ifu_dec").spec).NumInputs();
  LanePatterns patterns(inputs);
  Rng rng(1);
  for (auto _ : state) {
    patterns.Start(0);
    for (int lane = 0; lane < kBatchLanes; ++lane) {
      patterns.DrawNext(rng, 0, lane);
      patterns.DrawPrevious(rng, 0, lane);
    }
    patterns.Finish(0);
    benchmark::DoNotOptimize(patterns.next(0).data());
    benchmark::DoNotOptimize(patterns.previous(0).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatchLanes);
}
BENCHMARK(BM_LanePatternsDraw);

// The MC yield engine end to end on C432's masking flow: 500 trials on one
// thread (sampling, max-arrival STA, escape scan, pattern draws, batched
// classification simulation). The engine runs on a pool thread, so the
// benchmark reports wall time.
void BM_TimingYieldMcC432(benchmark::State& state) {
  const Library lib = Lsi10kLike();
  const FlowResult flow =
      RunMaskingFlow(GenerateCircuit(PaperCircuitByName("C432").spec), lib);
  YieldMcOptions options;
  options.trials = 500;
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateTimingYield(flow, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(options.trials));
}
BENCHMARK(BM_TimingYieldMcC432)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace sm

BENCHMARK_MAIN();
