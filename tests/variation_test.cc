#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/flow.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "suite/paper_suite.h"
#include "suite/structured.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "variation/variation.h"

namespace sm {
namespace {

TEST(ThreadPool, CompletesAllSubmittedWork) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ParallelForCoversTheExactRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(7, 1000, 13, [&hits](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i >= 7 ? 1 : 0) << "index " << i;
  }
}

TEST(ThreadPool, ExceptionsPropagateThroughSubmit) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a failed task.
  auto ok = pool.Submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST(ThreadPool, ExceptionsPropagateThroughParallelFor) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 64, 1,
                       [&completed](std::size_t lo, std::size_t) {
                         if (lo == 13) throw std::invalid_argument("13");
                         ++completed;
                       }),
      std::invalid_argument);
  // Every other chunk still ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ScratchPoolLendsEachObjectToOneChunkAtATime) {
  ThreadPool pool(4);
  ScratchPool<std::atomic<int>> scratch;
  std::atomic<int> built{0};
  std::atomic<bool> shared{false};
  pool.ParallelFor(0, 256, 1, [&](std::size_t, std::size_t) {
    auto lease = scratch.Acquire([&] {
      ++built;
      return std::make_unique<std::atomic<int>>(0);
    });
    if (lease->fetch_add(1) != 0) shared = true;  // another chunk holds it
    std::this_thread::yield();
    lease->fetch_sub(1);
  });
  EXPECT_FALSE(shared.load());
  EXPECT_GE(built.load(), 1);
  EXPECT_LE(built.load(), pool.num_threads());
}

TEST(RngStreams, ForStreamIsAPureFunctionOfSeedAndIndex) {
  Rng a = Rng::ForStream(42, 7);
  Rng b = Rng::ForStream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());

  // Adjacent streams and different seeds decorrelate.
  Rng c = Rng::ForStream(42, 8);
  Rng d = Rng::ForStream(43, 7);
  Rng e = Rng::ForStream(42, 7);
  bool c_differs = false, d_differs = false;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t ref = e.Next();
    c_differs = c_differs || c.Next() != ref;
    d_differs = d_differs || d.Next() != ref;
  }
  EXPECT_TRUE(c_differs);
  EXPECT_TRUE(d_differs);
}

TEST(RngStreams, NormalHasPlausibleMoments) {
  Rng rng(123);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

class VariationEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = new Library(Lsi10kLike());
    flow_ = new FlowResult(
        RunMaskingFlow(RippleComparatorNetwork(6), *lib_));
    ASSERT_TRUE(flow_->verification.ok());
  }
  static void TearDownTestSuite() {
    delete flow_;
    delete lib_;
    flow_ = nullptr;
    lib_ = nullptr;
  }

  static Library* lib_;
  static FlowResult* flow_;
};

Library* VariationEngineTest::lib_ = nullptr;
FlowResult* VariationEngineTest::flow_ = nullptr;

TEST_F(VariationEngineTest, SamplerIsDeterministicAndLeavesInputsAlone) {
  const MappedNetlist& net = flow_->protected_circuit.netlist;
  VariationModel model;
  model.sigma = 0.1;
  const DelayScaleSampler sampler(net, model);
  const auto a = sampler.Sample(99, 5);
  const auto b = sampler.Sample(99, 5);
  EXPECT_EQ(a, b);  // bit-identical resampling
  const auto c = sampler.Sample(99, 6);
  EXPECT_NE(a, c);

  ASSERT_EQ(a.size(), net.NumElements());
  double mean = 0;
  std::size_t gates = 0;
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (net.IsInput(id)) {
      EXPECT_EQ(a[id], 1.0);
    } else {
      EXPECT_GE(a[id], model.min_scale);
      mean += a[id];
      ++gates;
    }
  }
  EXPECT_NEAR(mean / static_cast<double>(gates), 1.0, 0.05);
}

TEST_F(VariationEngineTest, ShiftedSamplingReportsLikelihoodRatios) {
  const MappedNetlist& net = flow_->protected_circuit.netlist;
  VariationModel model;
  model.sigma = 0.05;
  const DelayScaleSampler sampler(net, model);

  const ShiftedSample plain = sampler.SampleShifted(7, 3, {});
  EXPECT_EQ(plain.log_weight, 0.0);

  std::vector<double> shift(net.NumElements(), 0.0);
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (!net.IsInput(id)) shift[id] = 1.0;
  }
  const ShiftedSample biased = sampler.SampleShifted(7, 3, shift);
  EXPECT_NE(biased.log_weight, 0.0);
  // A slowdown shift makes the mean scale larger than the unshifted draw's.
  double sum_plain = 0, sum_biased = 0;
  for (std::size_t i = 0; i < plain.scale.size(); ++i) {
    sum_plain += plain.scale[i];
    sum_biased += biased.scale[i];
  }
  EXPECT_GT(sum_biased, sum_plain);
}

// Digests of sampled delay planes and likelihood ratios for every model kind,
// unshifted and shifted, recorded from a sampler that computed and discarded
// the shared-component normals in the non-spatial models. The 20-component
// spatial model takes the heap component buffer. A change to the draws that
// moves one bit of one scale or log weight fails the comparison.
TEST_F(VariationEngineTest, SampledPlanesMatchThePins) {
  const MappedNetlist& net = flow_->protected_circuit.netlist;
  std::vector<double> shift(net.NumElements(), 0.0);
  for (GateId id = 0; id < net.NumElements(); ++id) {
    if (!net.IsInput(id) && id % 3 != 0) shift[id] = 0.25;
  }
  VariationModel gauss;
  gauss.sigma = 0.1;
  VariationModel spatial = gauss;
  spatial.kind = VariationModelKind::kSpatiallyCorrelated;
  VariationModel wide = spatial;
  wide.num_components = 20;
  VariationModel aging = gauss;
  aging.kind = VariationModelKind::kAgingDrift;
  aging.aging_level = 0.15;
  const std::pair<const char*, VariationModel> models[] = {
      {"gauss", gauss}, {"spatial", spatial}, {"spatial20", wide},
      {"aging", aging}};
  static const char* const kPins[4][2] = {
      {"8118e90c4b3c94c1", "e4c8a52f82d78f9f"},
      {"bcbb8d9a6c983543", "0312bde7e30d2d4e"},
      {"b9af6b14ffb2196a", "07b43cecaf33611d"},
      {"1e5a29f4873ba037", "2f72c417c76ed75f"}};
  for (std::size_t m = 0; m < std::size(models); ++m) {
    const DelayScaleSampler sampler(net, models[m].second);
    for (int shifted = 0; shifted < 2; ++shifted) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto fold = [&h](double x) {
        h = (h ^ std::bit_cast<std::uint64_t>(x)) * 0x100000001b3ULL;
      };
      for (std::uint64_t trial = 0; trial < 50; ++trial) {
        const ShiftedSample s = sampler.SampleShifted(
            2024, trial, shifted != 0 ? shift : std::vector<double>{});
        for (const double x : s.scale) fold(x);
        fold(s.log_weight);
      }
      char digest[32];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(h));
      EXPECT_EQ(std::string(digest), kPins[m][shifted])
          << models[m].first << (shifted != 0 ? " shifted" : " unshifted");
    }
  }
}

TEST_F(VariationEngineTest, RejectsAProtectedCircuitThatDoesNotCopyC) {
  // One STA pass over the protected netlist times C through its verbatim
  // copy there; a protected circuit integrated from another C is refused.
  const FlowResult other = RunMaskingFlow(RippleComparatorNetwork(5), *lib_);
  YieldMcOptions options;
  options.trials = 1;
  EXPECT_THROW(
      RunTimingYieldMc(other.original, flow_->protected_circuit, options),
      InternalError);
}

TEST_F(VariationEngineTest, ThreadCountDoesNotChangeResults) {
  YieldMcOptions options;
  options.trials = 300;
  options.chunk = 7;
  options.seed = 424242;
  options.model.sigma = 0.08;
  options.classify_transitions = 4;

  options.threads = 1;
  const YieldMcResult r1 = EstimateTimingYield(*flow_, options);
  options.threads = 4;
  const YieldMcResult r4 = EstimateTimingYield(*flow_, options);
  options.threads = 8;
  const YieldMcResult r8 = EstimateTimingYield(*flow_, options);

  // Counter-based streams + sequential reduction: results are bit-identical
  // (doubles included) whatever the thread count.
  for (const YieldMcResult* r : {&r4, &r8}) {
    EXPECT_EQ(r1.violations_original, r->violations_original);
    EXPECT_EQ(r1.violations_protected, r->violations_protected);
    EXPECT_EQ(r1.masked_trials, r->masked_trials);
    EXPECT_EQ(r1.residual_trials, r->residual_trials);
    EXPECT_EQ(r1.masked_events, r->masked_events);
    EXPECT_EQ(r1.residual_events, r->residual_events);
    EXPECT_EQ(r1.yield_original, r->yield_original);
    EXPECT_EQ(r1.yield_protected, r->yield_protected);
    EXPECT_EQ(r1.residual_rate, r->residual_rate);
    EXPECT_EQ(r1.residual_stderr, r->residual_stderr);
  }
}

TEST_F(VariationEngineTest, AccountingInvariantsHold) {
  YieldMcOptions options;
  options.trials = 400;
  options.threads = 2;
  options.model.sigma = 0.1;
  options.classify_transitions = 4;
  const YieldMcResult r = EstimateTimingYield(*flow_, options);

  EXPECT_EQ(r.trials, 400u);
  EXPECT_EQ(r.masked_trials + r.residual_trials, r.violations_protected);
  EXPECT_LE(r.unexcited_trials, r.masked_trials);
  EXPECT_GE(r.yield_original, 0.0);
  EXPECT_LE(r.yield_original, 1.0);
  EXPECT_GE(r.yield_protected, r.yield_original - 1e-12)
      << "masking must never lower timing yield";
  EXPECT_DOUBLE_EQ(r.effective_samples, 400.0);  // no IS → uniform weights
  EXPECT_GT(r.protected_clock, r.clock);         // mux compensation applied
}

TEST_F(VariationEngineTest, ImportanceSamplingAgreesWithPlainMc) {
  // At sigma 0.15 residual escapes exist but are rare on this fixture
  // (a handful in 4000 trials); IS with 1/5 of the trials must land within
  // the combined confidence interval of the plain estimate. All seeds are
  // fixed: this is a deterministic regression, not a flaky statistical
  // assertion.
  YieldMcOptions plain;
  plain.trials = 4000;
  plain.threads = 4;
  plain.seed = 777;
  plain.model.sigma = 0.15;
  plain.classify_transitions = 4;
  const YieldMcResult mc = EstimateTimingYield(*flow_, plain);
  ASSERT_GT(mc.residual_trials, 0u) << "config no longer exercises escapes";

  YieldMcOptions is = plain;
  is.trials = plain.trials / 5;
  is.importance_sampling = true;
  const YieldMcResult isr = EstimateTimingYield(*flow_, is);

  EXPECT_GT(isr.residual_trials, mc.residual_trials)
      << "the shift should make escapes common in the sampled population";
  EXPECT_GT(isr.effective_samples, 0.0);
  EXPECT_LT(isr.effective_samples, static_cast<double>(is.trials));
  const double gap = std::abs(isr.residual_rate - mc.residual_rate);
  EXPECT_LE(gap, isr.ConfidenceInterval95() + mc.ConfidenceInterval95() +
                     1e-12)
      << "IS estimate " << isr.residual_rate << " vs plain "
      << mc.residual_rate;
}

TEST_F(VariationEngineTest, AgingModelDegradesYield) {
  YieldMcOptions young;
  young.trials = 300;
  young.threads = 2;
  young.model.kind = VariationModelKind::kAgingDrift;
  young.model.sigma = 0.03;
  young.model.aging_level = 0.0;
  young.classify_transitions = 2;
  const YieldMcResult fresh = EstimateTimingYield(*flow_, young);

  YieldMcOptions old = young;
  old.model.aging_level = 0.2;  // +20% drift on the deepest gates
  const YieldMcResult aged = EstimateTimingYield(*flow_, old);

  EXPECT_LE(aged.yield_original, fresh.yield_original);
  EXPECT_GT(aged.violations_original, fresh.violations_original);
}

// Every count and estimate of a run, doubles spelled with %a so that a
// one-ulp drift fails the comparison.
std::string YieldPin(const YieldMcResult& r) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "trials=%zu vo=%zu vp=%zu masked=%zu residual=%zu unexcited=%zu "
      "trunc=%zu me=%llu re=%llu yo=%a yp=%a rate=%a se=%a rel=%a ess=%a "
      "clock=%a pclock=%a words=%llu lanes=%llu",
      r.trials, r.violations_original, r.violations_protected,
      r.masked_trials, r.residual_trials, r.unexcited_trials,
      r.scan_truncations, static_cast<unsigned long long>(r.masked_events),
      static_cast<unsigned long long>(r.residual_events), r.yield_original,
      r.yield_protected, r.residual_rate, r.residual_stderr, r.relative_error,
      r.effective_samples, r.clock, r.protected_clock,
      static_cast<unsigned long long>(r.words_simulated),
      static_cast<unsigned long long>(r.lanes_simulated));
  return buf;
}

// Golden pins of the MC engine on three paper-suite circuits under the
// plain, importance-sampled, spatially correlated and aging models. A
// change to the trial kernel (sampling, STA, escape scan, pattern
// generation, batched simulation) must reproduce them bit for bit.
class YieldMcGoldenTest : public ::testing::Test {
 protected:
  static constexpr const char* kCircuits[] = {"C432", "C2670",
                                              "sparc_ifu_dec"};

  static void SetUpTestSuite() {
    lib_ = new Library(Lsi10kLike());
    for (std::size_t i = 0; i < std::size(kCircuits); ++i) {
      flows_[i] = std::make_unique<FlowResult>(RunMaskingFlow(
          GenerateCircuit(PaperCircuitByName(kCircuits[i]).spec), *lib_));
    }
  }
  static void TearDownTestSuite() {
    for (auto& f : flows_) f.reset();
    delete lib_;
    lib_ = nullptr;
  }

  static std::vector<YieldMcOptions> Configs() {
    YieldMcOptions plain;
    plain.trials = 300;
    plain.threads = 2;
    plain.seed = 1409;
    plain.model.sigma = 0.3;
    YieldMcOptions is = plain;
    is.model.sigma = 0.1;
    is.importance_sampling = true;
    YieldMcOptions spatial = plain;
    spatial.model.kind = VariationModelKind::kSpatiallyCorrelated;
    spatial.model.sigma = 0.15;
    YieldMcOptions aging = plain;
    aging.model.kind = VariationModelKind::kAgingDrift;
    aging.model.sigma = 0.06;
    aging.model.aging_level = 0.15;
    return {plain, is, spatial, aging};
  }

  static Library* lib_;
  static std::unique_ptr<FlowResult> flows_[3];
};

Library* YieldMcGoldenTest::lib_ = nullptr;
std::unique_ptr<FlowResult> YieldMcGoldenTest::flows_[3];

TEST_F(YieldMcGoldenTest, CountsAndEstimatesMatchThePins) {
  static const char* const kConfigNames[] = {"plain", "is", "spatial",
                                             "aging"};
  static const char* const kPins[3][4] = {
      {"trials=300 vo=151 vp=150 masked=128 residual=22 unexcited=128 "
       "trunc=0 me=0 re=0 yo=0x1.fc962fc962fcap-2 yp=0x1.da740da740da7p-1 "
       "rate=0x1.2c5f92c5f92c6p-4 se=0x1.edfff6b88b5a9p-7 "
       "rel=0x1.a505c98bd3dbcp-3 ess=0x1.2cp+8 clock=0x1.28p+5 "
       "pclock=0x1.3b33333333333p+5 words=39 lanes=2400",
       "trials=300 vo=274 vp=277 masked=277 residual=0 unexcited=277 trunc=0 "
       "me=0 re=0 yo=0x1.19c6ab3d4c874p-1 yp=0x1p+0 rate=0x0p+0 se=0x0p+0 "
       "rel=0x0p+0 ess=0x1.079baff52165ep+5 clock=0x1.28p+5 "
       "pclock=0x1.3b33333333333p+5 words=72 lanes=4432",
       "trials=300 vo=146 vp=150 masked=148 residual=2 unexcited=148 trunc=0 "
       "me=0 re=0 yo=0x1.06d3a06d3a06dp-1 yp=0x1.fc962fc962fc9p-1 "
       "rate=0x1.b4e81b4e81b4fp-8 se=0x1.346c3055ff22ap-8 "
       "rel=0x1.696ec8a4c6fc9p-1 ess=0x1.2cp+8 clock=0x1.28p+5 "
       "pclock=0x1.3b33333333333p+5 words=39 lanes=2400",
       "trials=300 vo=300 vp=300 masked=261 residual=39 unexcited=261 "
       "trunc=0 me=0 re=0 yo=0x0p+0 yp=0x1.bd70a3d70a3d7p-1 "
       "rate=0x1.0a3d70a3d70a4p-3 se=0x1.3ea6b95612181p-6 "
       "rel=0x1.32653c0dd6523p-3 ess=0x1.2cp+8 clock=0x1.28p+5 "
       "pclock=0x1.3b33333333333p+5 words=75 lanes=4800"},
      {"trials=300 vo=288 vp=291 masked=148 residual=143 unexcited=148 "
       "trunc=0 me=0 re=0 yo=0x1.47ae147ae148p-5 yp=0x1.0bf258bf258bfp-1 "
       "rate=0x1.e81b4e81b4e82p-2 se=0x1.d93d4c32036fbp-6 "
       "rel=0x1.f067aece6b6fcp-5 ess=0x1.2cp+8 clock=0x1.dcccccccccccdp+4 "
       "pclock=0x1.019999999999ap+5 words=74 lanes=4656",
       "trials=300 vo=242 vp=253 masked=253 residual=0 unexcited=252 trunc=0 "
       "me=1 re=0 yo=0x1.feb006dcc0a06p-2 yp=0x1p+0 rate=0x0p+0 se=0x0p+0 "
       "rel=0x0p+0 ess=0x1.34863c5781aa9p+5 clock=0x1.dcccccccccccdp+4 "
       "pclock=0x1.019999999999ap+5 words=65 lanes=4048",
       "trials=300 vo=242 vp=252 masked=239 residual=13 unexcited=238 "
       "trunc=0 me=1 re=0 yo=0x1.8bf258bf258cp-3 yp=0x1.e9d0369d0369dp-1 "
       "rate=0x1.62fc962fc963p-5 se=0x1.81d6b0ac5063bp-7 "
       "rel=0x1.163fbf689296ap-2 ess=0x1.2cp+8 clock=0x1.dcccccccccccdp+4 "
       "pclock=0x1.019999999999ap+5 words=64 lanes=4032",
       "trials=300 vo=300 vp=300 masked=285 residual=15 unexcited=281 "
       "trunc=0 me=4 re=0 yo=0x0p+0 yp=0x1.e666666666666p-1 "
       "rate=0x1.999999999999ap-5 se=0x1.9d02b369bc6afp-7 "
       "rel=0x1.0221b02215c2dp-2 ess=0x1.2cp+8 clock=0x1.dcccccccccccdp+4 "
       "pclock=0x1.019999999999ap+5 words=75 lanes=4800"},
      {"trials=300 vo=296 vp=297 masked=150 residual=147 unexcited=149 "
       "trunc=0 me=2 re=0 yo=0x1.b4e81b4e81b4p-7 yp=0x1.051eb851eb852p-1 "
       "rate=0x1.f5c28f5c28f5cp-2 se=0x1.d9a92c43b052ap-6 "
       "rel=0x1.e353cf207fad2p-5 ess=0x1.2cp+8 clock=0x1.e666666666666p+4 "
       "pclock=0x1.0666666666666p+5 words=75 lanes=4752",
       "trials=300 vo=275 vp=283 masked=283 residual=0 unexcited=280 trunc=0 "
       "me=7 re=0 yo=0x1.2282faac3af34p-3 yp=0x1p+0 rate=0x0p+0 se=0x0p+0 "
       "rel=0x0p+0 ess=0x1.505b53aba6061p+5 clock=0x1.e666666666666p+4 "
       "pclock=0x1.0666666666666p+5 words=73 lanes=4528",
       "trials=300 vo=267 vp=278 masked=255 residual=23 unexcited=254 "
       "trunc=0 me=1 re=0 yo=0x1.c28f5c28f5c28p-4 yp=0x1.d8bf258bf258cp-1 "
       "rate=0x1.3a06d3a06d3ap-4 se=0x1.f8316e4a77f5dp-7 "
       "rel=0x1.9b06e7d2f80ep-3 ess=0x1.2cp+8 clock=0x1.e666666666666p+4 "
       "pclock=0x1.0666666666666p+5 words=71 lanes=4448",
       "trials=300 vo=300 vp=300 masked=281 residual=19 unexcited=275 "
       "trunc=0 me=13 re=0 yo=0x0p+0 yp=0x1.df92c5f92c5f9p-1 "
       "rate=0x1.0369d0369d037p-4 se=0x1.cd8df7adddfdp-7 "
       "rel=0x1.c77b41e4d7b2ep-3 ess=0x1.2cp+8 clock=0x1.e666666666666p+4 "
       "pclock=0x1.0666666666666p+5 words=75 lanes=4800"},
  };
  const std::vector<YieldMcOptions> configs = Configs();
  for (std::size_t i = 0; i < std::size(kCircuits); ++i) {
    for (std::size_t j = 0; j < configs.size(); ++j) {
      const YieldMcResult r = EstimateTimingYield(*flows_[i], configs[j]);
      EXPECT_EQ(YieldPin(r), kPins[i][j])
          << kCircuits[i] << " / " << kConfigNames[j];
    }
  }
}

// Golden pins of the MC engine on two structured circuits, recorded from
// the scalar trial loop this engine used to carry as the batched loop's
// oracle (one SimulateTransition per classification transition): a ripple
// comparator under plain and importance-sampled variation, and a mini ALU
// at a sigma wide enough that simulated errors reach protected outputs
// (re > 0, which no paper-suite pin above reaches). The semantic fields are
// the scalar loop's; words/lanes are the batched telemetry at the default
// 64-trial chunk and at a 7-trial chunk. Every pin holds at 1 and 8 threads.
TEST_F(YieldMcGoldenTest, StructuredCircuitsMatchTheScalarLoopPins) {
  const FlowResult comparator =
      RunMaskingFlow(RippleComparatorNetwork(6), *lib_);
  const FlowResult alu = RunMaskingFlow(MiniAluNetwork(4), *lib_);
  ASSERT_TRUE(comparator.verification.ok());
  ASSERT_TRUE(alu.verification.ok());

  YieldMcOptions plain;
  plain.trials = 400;
  plain.seed = 20090209;
  plain.model.sigma = 0.15;
  plain.classify_transitions = 4;
  YieldMcOptions is;
  is.trials = 300;
  is.seed = 777;
  is.model.sigma = 0.12;
  is.classify_transitions = 4;
  is.importance_sampling = true;
  YieldMcOptions wide = plain;
  wide.model.sigma = 0.5;

  struct Row {
    const char* name;
    const FlowResult* flow;
    YieldMcOptions options;
    const char* pins[2];  // at chunk 64 and chunk 7
  };
  const Row rows[] = {
      {"comparator/plain",
       &comparator,
       plain,
       {"trials=400 vo=202 vp=202 masked=201 residual=1 unexcited=190 trunc=0 "
        "me=11 re=0 yo=0x1.fae147ae147aep-2 yp=0x1.feb851eb851ecp-1 "
        "rate=0x1.47ae147ae147bp-9 se=0x1.47ae147ae147bp-9 rel=0x1p+0 "
        "ess=0x1.9p+8 clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "words=15 lanes=808",
        "trials=400 vo=202 vp=202 masked=201 residual=1 unexcited=190 trunc=0 "
        "me=11 re=0 yo=0x1.fae147ae147aep-2 yp=0x1.feb851eb851ecp-1 "
        "rate=0x1.47ae147ae147bp-9 se=0x1.47ae147ae147bp-9 rel=0x1p+0 "
        "ess=0x1.9p+8 clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "words=57 lanes=808"}},
      {"comparator/is",
       &comparator,
       is,
       {"trials=300 vo=274 vp=274 masked=271 residual=3 unexcited=249 trunc=0 "
        "me=23 re=0 yo=0x1.d99035525a198p-2 yp=0x1.ffe3fc0720a24p-1 "
        "rate=0x1.c03f8df5dc6bcp-13 se=0x1.16ccc8605a2fdp-13 "
        "rel=0x1.3e73b7d1a732ap-1 ess=0x1.0eaebed49a2eep+5 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 words=19 "
        "lanes=1096",
        "trials=300 vo=274 vp=274 masked=271 residual=3 unexcited=249 trunc=0 "
        "me=23 re=0 yo=0x1.d99035525a198p-2 yp=0x1.ffe3fc0720a24p-1 "
        "rate=0x1.c03f8df5dc6bcp-13 se=0x1.16ccc8605a2fdp-13 "
        "rel=0x1.3e73b7d1a732ap-1 ess=0x1.0eaebed49a2eep+5 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 words=43 "
        "lanes=1096"}},
      {"alu/wide",
       &alu,
       wide,
       {"trials=400 vo=251 vp=217 masked=125 residual=92 unexcited=117 "
        "trunc=0 me=9 re=2 yo=0x1.7d70a3d70a3d8p-2 yp=0x1.8a3d70a3d70a4p-1 "
        "rate=0x1.d70a3d70a3d71p-3 se=0x1.592d7fe7cba42p-6 "
        "rel=0x1.773174c44ca74p-4 ess=0x1.9p+8 clock=0x1.a666666666667p+3 "
        "pclock=0x1.f333333333334p+3 words=16 lanes=868",
        "trials=400 vo=251 vp=217 masked=125 residual=92 unexcited=117 "
        "trunc=0 me=9 re=2 yo=0x1.7d70a3d70a3d8p-2 yp=0x1.8a3d70a3d70a4p-1 "
        "rate=0x1.d70a3d70a3d71p-3 se=0x1.592d7fe7cba42p-6 "
        "rel=0x1.773174c44ca74p-4 ess=0x1.9p+8 clock=0x1.a666666666667p+3 "
        "pclock=0x1.f333333333334p+3 words=56 lanes=868"}},
  };
  for (const Row& row : rows) {
    YieldMcOptions options = row.options;
    const YieldMcResult first = EstimateTimingYield(*row.flow, options);
    ASSERT_GT(first.violations_protected, 0u)
        << row.name << ": no longer exercises the classification simulator";
    ASSERT_GT(first.masked_events + first.residual_events, 0u) << row.name;
    const std::size_t chunks[2] = {options.chunk, 7};
    for (int c = 0; c < 2; ++c) {
      options.chunk = chunks[c];
      for (const int threads : {1, 8}) {
        options.threads = threads;
        EXPECT_EQ(YieldPin(EstimateTimingYield(*row.flow, options)),
                  row.pins[c])
            << row.name << " chunk " << options.chunk << " threads "
            << threads;
      }
    }
  }
}

}  // namespace
}  // namespace sm
