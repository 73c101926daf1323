#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/flow.h"
#include "harness/inject.h"
#include "inject/campaign.h"
#include "liblib/lsi10k.h"
#include "map/netlist_io.h"
#include "map/mapped_bdd.h"
#include "map/tech_map.h"
#include "masking/verify.h"
#include "network/global_bdd.h"
#include "spcf/spcf.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "suite/structured.h"
#include "util/check.h"

namespace sm {
namespace {

FlowResult ComparatorFlow(const Library& lib, int bits = 8) {
  FlowOptions options;
  options.spcf.guard_band = 0.1;
  return RunMaskingFlow(RippleComparatorNetwork(bits), lib, options);
}

TEST(Inject, EnumStringsRoundTrip) {
  for (const FaultSiteStrategy s :
       {FaultSiteStrategy::kExhaustiveSpeedPaths, FaultSiteStrategy::kRandomGates,
        FaultSiteStrategy::kAdversarial}) {
    EXPECT_EQ(FaultSiteStrategyFromString(ToString(s)), s);
  }
  for (const FaultKind k : {FaultKind::kPermanentDelta, FaultKind::kTransient}) {
    EXPECT_EQ(FaultKindFromString(ToString(k)), k);
  }
  EXPECT_THROW(FaultSiteStrategyFromString("bogus"), ParseError);
  EXPECT_THROW(FaultKindFromString("bogus"), ParseError);
}

TEST(Inject, CleanFlowHoldsTheGuaranteeAndObservesMasking) {
  const Library lib = UnitLibrary();
  const FlowResult flow = ComparatorFlow(lib);
  ASSERT_TRUE(flow.verification.ok());

  InjectOptions options;
  options.vectors_per_site = 8;
  const InjectionCampaignResult r = RunFaultInjectionCampaign(flow, options);

  EXPECT_GT(r.sites, 0u);
  EXPECT_EQ(r.trials, r.sites * options.vectors_per_site);
  EXPECT_EQ(r.benign + r.masked + r.escapes, r.trials);
  // In-contract faults never escape, and the sensitized vectors actually
  // drive errors into the masking mechanism (masked > 0 shows the campaign
  // is exercising the guarantee, not missing the speed-paths).
  EXPECT_EQ(r.escapes, 0u);
  EXPECT_TRUE(r.GuaranteeHolds());
  EXPECT_GT(r.masked, 0u);
  EXPECT_GE(r.masked_events, r.masked);
  EXPECT_GT(r.protected_clock, r.clock);
  EXPECT_NEAR(r.delta, 0.1 * r.clock, 1e-6);
  EXPECT_TRUE(r.escape_records.empty());

  // Transient single-edge faults are strictly weaker than permanent deltas:
  // also zero escapes.
  InjectOptions transient = options;
  transient.fault_kind = FaultKind::kTransient;
  const InjectionCampaignResult t = RunFaultInjectionCampaign(flow, transient);
  EXPECT_EQ(t.escapes, 0u);
}

TEST(Inject, ThreadCountDoesNotChangeResults) {
  const Library lib = UnitLibrary();
  const FlowResult flow = ComparatorFlow(lib, 6);

  InjectOptions options;
  options.vectors_per_site = 6;
  options.threads = 1;
  const InjectionCampaignResult one = RunFaultInjectionCampaign(flow, options);
  options.threads = 8;
  options.chunk = 3;  // uneven chunking must not matter either
  const InjectionCampaignResult eight =
      RunFaultInjectionCampaign(flow, options);

  EXPECT_EQ(one.sites, eight.sites);
  EXPECT_EQ(one.trials, eight.trials);
  EXPECT_EQ(one.benign, eight.benign);
  EXPECT_EQ(one.masked, eight.masked);
  EXPECT_EQ(one.escapes, eight.escapes);
  EXPECT_EQ(one.masked_events, eight.masked_events);
  EXPECT_EQ(one.clock, eight.clock);
  EXPECT_EQ(one.protected_clock, eight.protected_clock);
  EXPECT_EQ(one.delta, eight.delta);
  ASSERT_EQ(one.escape_records.size(), eight.escape_records.size());
  for (std::size_t i = 0; i < one.escape_records.size(); ++i) {
    EXPECT_EQ(EncodeEscapeRecordJson(one.escape_records[i], one.clock,
                                     one.protected_clock),
              EncodeEscapeRecordJson(eight.escape_records[i], eight.clock,
                                     eight.protected_clock));
  }
}

TEST(Inject, SelectFaultSitesStrategies) {
  const Library lib = UnitLibrary();
  const FlowResult flow = ComparatorFlow(lib, 6);
  const TimingInfo nominal = AnalyzeTiming(flow.original);
  const double window = 0.1 * nominal.critical_delay;

  InjectOptions options;
  const std::vector<GateId> exhaustive =
      SelectFaultSites(flow.original, flow.protected_circuit, nominal, options);
  ASSERT_FALSE(exhaustive.empty());
  const MappedNetlist& prot = flow.protected_circuit.netlist;
  for (const GateId site : exhaustive) {
    const GateId orig = flow.original.FindByName(prot.element(site).name);
    ASSERT_NE(orig, kInvalidGate);
    EXPECT_LT(nominal.Slack(orig), window);
  }

  // Adversarial is the same site set ranked by ascending slack.
  options.strategy = FaultSiteStrategy::kAdversarial;
  const std::vector<GateId> adversarial =
      SelectFaultSites(flow.original, flow.protected_circuit, nominal, options);
  ASSERT_EQ(adversarial.size(), exhaustive.size());
  double last = -1;
  for (const GateId site : adversarial) {
    const GateId orig = flow.original.FindByName(prot.element(site).name);
    const double slack = nominal.Slack(orig);
    EXPECT_GE(slack, last);
    last = slack;
  }
  std::vector<GateId> sorted_adv = adversarial;
  std::vector<GateId> sorted_exh = exhaustive;
  std::sort(sorted_adv.begin(), sorted_adv.end());
  std::sort(sorted_exh.begin(), sorted_exh.end());
  EXPECT_EQ(sorted_adv, sorted_exh);

  // max_sites truncates; random sampling is deterministic per seed and
  // draws distinct sites.
  options.max_sites = 3;
  EXPECT_EQ(SelectFaultSites(flow.original, flow.protected_circuit, nominal,
                             options)
                .size(),
            3u);
  options.strategy = FaultSiteStrategy::kRandomGates;
  options.max_sites = 5;
  const std::vector<GateId> random_a =
      SelectFaultSites(flow.original, flow.protected_circuit, nominal, options);
  const std::vector<GateId> random_b =
      SelectFaultSites(flow.original, flow.protected_circuit, nominal, options);
  EXPECT_EQ(random_a, random_b);
  EXPECT_EQ(random_a.size(), 5u);
  std::vector<GateId> uniq = random_a;
  std::sort(uniq.begin(), uniq.end());
  EXPECT_EQ(std::unique(uniq.begin(), uniq.end()), uniq.end());
}

TEST(Inject, ClassifyFaultTrialValidatesTheSite) {
  const Library lib = UnitLibrary();
  const FlowResult flow = ComparatorFlow(lib, 6);
  const std::size_t n = flow.protected_circuit.netlist.NumInputs();
  const std::vector<bool> zeros(n, false);
  DelayFault fault;
  fault.site = 0;  // a primary input
  fault.delta = 1;
  EXPECT_THROW(ClassifyFaultTrial(flow.protected_circuit, fault, zeros, zeros,
                                  10, 11),
               std::invalid_argument);
}

// The engine's whole reason to exist: an SPCF defect that the formal
// verifier cannot see (it proves safety/coverage AGAINST the defective Σ)
// must surface as concrete runtime escapes, shrink to a minimal reproducer,
// and replay from the written BLIF + JSON pair.
TEST(Inject, PlantedSpcfDefectEscapesAndShrinksToAReproducer) {
  const Network ti = RippleComparatorNetwork(8);
  const Library lib = UnitLibrary();
  const TechMapResult mapped = DecomposeAndMap(ti, lib, {});
  const MappedNetlist& original = mapped.netlist;
  const TimingInfo timing = AnalyzeTiming(original);

  BddManager mgr(static_cast<int>(ti.NumInputs()));
  std::vector<GateId> groots;
  for (const auto& o : original.outputs()) groots.push_back(o.driver);
  const auto mapped_globals = BuildMappedGlobalBdds(mgr, original, groots);
  TimedFunctionEngine engine(mgr, original, mapped_globals);
  SpcfOptions spcf_options;
  spcf_options.guard_band = 0.1;
  SpcfResult spcf = ComputeSpcf(engine, original, timing, spcf_options);
  ASSERT_FALSE(spcf.critical_outputs.empty());

  // Plant the defect: under-approximate every Σ_y by claiming patterns with
  // input 0 low never settle late. The masking circuit synthesized from this
  // Σ simply does not raise e on those patterns.
  for (const std::size_t i : spcf.critical_outputs) {
    spcf.sigma[i] = mgr.And(spcf.sigma[i], mgr.Var(0));
  }

  std::vector<NodeId> troots;
  for (const auto& o : ti.outputs()) troots.push_back(o.driver);
  const auto ti_globals = BuildGlobalBdds(mgr, ti, troots);
  const MaskingCircuit masking =
      SynthesizeMaskingNetwork(mgr, ti, ti_globals, spcf);
  const ProtectedCircuit pc = IntegrateMasking(original, masking, lib);

  // The formal check passes against the planted Σ — this defect class is
  // invisible to it, which is exactly the gap the campaign closes.
  const MaskingVerification formal =
      VerifyMasking(mgr, ti, ti_globals, masking, spcf);
  EXPECT_TRUE(formal.safety);
  EXPECT_TRUE(formal.coverage);

  InjectOptions options;
  options.guard_band = 0.1;
  options.vectors_per_site = 8;
  const InjectionCampaignResult r = RunInjectionCampaign(original, pc, options);
  ASSERT_GE(r.escapes, 1u);
  EXPECT_FALSE(r.GuaranteeHolds());
  ASSERT_FALSE(r.escape_records.empty());

  const EscapeRecord& rec = r.escape_records.front();
  EXPECT_TRUE(rec.shrunk);
  EXPECT_LE(rec.delta, rec.campaign_delta);
  EXPECT_FALSE(rec.site_name.empty());

  // The shrunk record still replays as a single-shot escape, both through
  // the classifier and through the bare-netlist replay entry point.
  std::size_t escaping = 0;
  EXPECT_EQ(ClassifyFaultTrial(pc, rec.Fault(), rec.previous, rec.next,
                               r.clock, r.protected_clock, &escaping),
            InjectOutcome::kEscape);
  EXPECT_EQ(escaping, rec.output_index);
  EXPECT_TRUE(ReplayEscapesAtOutputs(pc.netlist, rec.Fault(), rec.previous,
                                     rec.next, r.protected_clock));

  // Reproducer round-trip: the written BLIF parses back and the fault —
  // relocated by site name — still escapes in the fresh netlist.
  FlowResult flow{nullptr,
                  original,
                  timing,
                  spcf,
                  masking,
                  pc,
                  formal,
                  OverheadReport{},
                  BddStats{}};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "sm_inject_test";
  std::filesystem::create_directories(dir);
  const std::vector<std::string> paths =
      WriteEscapeReproducers(flow, r, dir.string(), "planted", 1);
  ASSERT_EQ(paths.size(), 2u);

  std::ifstream blif_in(paths[0]);
  std::stringstream blif_text;
  blif_text << blif_in.rdbuf();
  const MappedNetlist replayed = ReadMappedBlifString(blif_text.str(), lib);
  const GateId relocated = replayed.FindByName(rec.site_name);
  ASSERT_NE(relocated, kInvalidGate);
  DelayFault fault = rec.Fault();
  fault.site = relocated;
  EXPECT_TRUE(ReplayEscapesAtOutputs(replayed, fault, rec.previous, rec.next,
                                     r.protected_clock));

  std::ifstream json_in(paths[1]);
  std::stringstream json_text;
  json_text << json_in.rdbuf();
  EXPECT_NE(json_text.str().find("\"site_name\":\"" + rec.site_name + "\""),
            std::string::npos);
  EXPECT_NE(json_text.str().find("\"shrunk\":true"), std::string::npos);
  std::filesystem::remove_all(dir);

  // The reproducer bytes themselves are pinned: a change to the encoder's
  // field order, number spelling or escaping breaks replay tooling.
  EXPECT_EQ(EncodeEscapeRecordJson(rec, r.clock, r.protected_clock),
            "{\"trial\":8,\"site\":27,\"site_name\":\"n31\","
            "\"kind\":\"permanent\",\"transition_index\":0,"
            "\"delta\":0.0025390624990234375,"
            "\"campaign_delta\":2.599999999,\"previous\":\"1111111101111111\","
            "\"next\":\"0111111101111111\",\"output_index\":0,"
            "\"output_name\":\"ge\",\"shrunk\":true,\"clock\":26,"
            "\"protected_clock\":28}");
}

TEST(Inject, EscapeRecordJsonBytesArePinned) {
  EscapeRecord rec;
  rec.trial = 17;
  rec.site = 42;
  rec.site_name = "n\"7\\x\n";
  rec.kind = FaultKind::kTransient;
  rec.transition_index = 3;
  rec.delta = 0.30000000000000004;
  rec.campaign_delta = 2;
  rec.previous = {true, false, true};
  rec.next = {false, false, true};
  rec.output_index = 1;
  rec.output_name = "out";
  rec.shrunk = false;
  EXPECT_EQ(EncodeEscapeRecordJson(rec, 12.5, 1.0 / 3.0),
            "{\"trial\":17,\"site\":42,\"site_name\":\"n\\\"7\\\\x\\n\","
            "\"kind\":\"transient\",\"transition_index\":3,"
            "\"delta\":0.30000000000000004,\"campaign_delta\":2,"
            "\"previous\":\"101\",\"next\":\"001\",\"output_index\":1,"
            "\"output_name\":\"out\",\"shrunk\":false,\"clock\":12.5,"
            "\"protected_clock\":0.3333333333333333}");
}

// Every count of a campaign, doubles spelled with %a so that a one-ulp
// drift fails the comparison.
std::string CampaignPin(const InjectionCampaignResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "sites=%zu trials=%zu benign=%zu masked=%zu escapes=%zu "
                "me=%llu clock=%a pclock=%a delta=%a records=%zu words=%llu "
                "lanes=%llu",
                r.sites, r.trials, r.benign, r.masked, r.escapes,
                static_cast<unsigned long long>(r.masked_events), r.clock,
                r.protected_clock, r.delta, r.escape_records.size(),
                static_cast<unsigned long long>(r.words_simulated),
                static_cast<unsigned long long>(r.lanes_simulated));
  return buf;
}

// Golden pins of the campaign on C432 with faults eight times the guarantee
// window (escapes expected), for both fault kinds: the counts, the first
// escape record raw (a sensitized pair), the last one raw (a random pair)
// and the first one shrunk. A change to vector generation or outcome
// classification must reproduce them bit for bit.
TEST(Inject, CampaignMatchesThePins) {
  const Library lib = Lsi10kLike();
  const FlowResult flow = RunMaskingFlow(
      GenerateCircuit(PaperCircuitByName("C432").spec), lib);
  static const char* const kPins[2][4] = {
      {"sites=24 trials=144 benign=135 masked=1 escapes=8 me=1 "
       "clock=0x1.28p+5 pclock=0x1.3b33333333333p+5 "
       "delta=0x1.d999999954e0bp+4 records=8 words=3 lanes=144",
       "{\"trial\":6,\"site\":43,\"site_name\":\"n36\","
       "\"kind\":\"permanent\",\"transition_index\":0,"
       "\"delta\":29.59999999899996,\"campaign_delta\":29.59999999899996,"
       "\"previous\":\"011010001100100111101111000010110100\","
       "\"next\":\"011000001100100111101111000010110100\",\"output_index\":4,"
       "\"output_name\":\"po4\",\"shrunk\":false,\"clock\":37,"
       "\"protected_clock\":39.4}",
       "{\"trial\":41,\"site\":48,\"site_name\":\"n105\","
       "\"kind\":\"permanent\",\"transition_index\":0,"
       "\"delta\":29.59999999899996,\"campaign_delta\":29.59999999899996,"
       "\"previous\":\"110000000010011101110100010100110110\","
       "\"next\":\"001010111001101111100001011101011101\",\"output_index\":6,"
       "\"output_name\":\"po6\",\"shrunk\":false,\"clock\":37,"
       "\"protected_clock\":39.4}",
       "{\"trial\":6,\"site\":43,\"site_name\":\"n36\","
       "\"kind\":\"permanent\",\"transition_index\":0,"
       "\"delta\":24.628124999167937,\"campaign_delta\":29.59999999899996,"
       "\"previous\":\"000010000000000000000000000010000000\","
       "\"next\":\"000000000000000000000000000010000000\",\"output_index\":4,"
       "\"output_name\":\"po4\",\"shrunk\":true,\"clock\":37,"
       "\"protected_clock\":39.4}"},
      {"sites=24 trials=144 benign=142 masked=0 escapes=2 me=0 "
       "clock=0x1.28p+5 pclock=0x1.3b33333333333p+5 "
       "delta=0x1.d999999954e0bp+4 records=2 words=3 lanes=144",
       "{\"trial\":6,\"site\":43,\"site_name\":\"n36\","
       "\"kind\":\"transient\",\"transition_index\":0,"
       "\"delta\":29.59999999899996,\"campaign_delta\":29.59999999899996,"
       "\"previous\":\"011010001100100111101111000010110100\","
       "\"next\":\"011000001100100111101111000010110100\",\"output_index\":4,"
       "\"output_name\":\"po4\",\"shrunk\":false,\"clock\":37,"
       "\"protected_clock\":39.4}",
       "{\"trial\":41,\"site\":48,\"site_name\":\"n105\","
       "\"kind\":\"transient\",\"transition_index\":0,"
       "\"delta\":29.59999999899996,\"campaign_delta\":29.59999999899996,"
       "\"previous\":\"110000000010011101110100010100110110\","
       "\"next\":\"001010111001101111100001011101011101\",\"output_index\":6,"
       "\"output_name\":\"po6\",\"shrunk\":false,\"clock\":37,"
       "\"protected_clock\":39.4}",
       "{\"trial\":6,\"site\":43,\"site_name\":\"n36\","
       "\"kind\":\"transient\",\"transition_index\":0,"
       "\"delta\":24.628124999167937,\"campaign_delta\":29.59999999899996,"
       "\"previous\":\"000010000000000000000000000010000000\","
       "\"next\":\"000000000000000000000000000010000000\",\"output_index\":4,"
       "\"output_name\":\"po4\",\"shrunk\":true,\"clock\":37,"
       "\"protected_clock\":39.4}"},
  };
  int k = 0;
  for (const FaultKind kind :
       {FaultKind::kPermanentDelta, FaultKind::kTransient}) {
    InjectOptions options;
    options.fault_kind = kind;
    options.delta_fraction = 8.0;
    options.vectors_per_site = 6;
    options.seed = 5;
    options.threads = 2;
    options.shrink = false;
    const InjectionCampaignResult raw =
        RunFaultInjectionCampaign(flow, options);
    options.shrink = true;
    const InjectionCampaignResult shrunk =
        RunFaultInjectionCampaign(flow, options);
    EXPECT_EQ(CampaignPin(raw), kPins[k][0]) << ToString(kind);
    ASSERT_FALSE(raw.escape_records.empty()) << ToString(kind);
    EXPECT_EQ(EncodeEscapeRecordJson(raw.escape_records.front(), raw.clock,
                                     raw.protected_clock),
              kPins[k][1])
        << ToString(kind);
    EXPECT_EQ(EncodeEscapeRecordJson(raw.escape_records.back(), raw.clock,
                                     raw.protected_clock),
              kPins[k][2])
        << ToString(kind);
    EXPECT_EQ(EncodeEscapeRecordJson(shrunk.escape_records.front(),
                                     shrunk.clock, shrunk.protected_clock),
              kPins[k][3])
        << ToString(kind);
    ++k;
  }
}

// Golden pins of the campaign on a ripple comparator, recorded from the
// scalar trial loop the campaign used to carry as the batched loop's oracle
// (one ClassifyFaultTrial per trial), at three and eight times the
// guarantee window for both fault kinds: the counts at the default 64-trial
// chunk and at a 7-trial chunk, and every (shrunk) escape record. Every pin
// holds at 1 and 8 threads.
TEST(Inject, ComparatorMatchesTheScalarLoopPins) {
  const Library lib = Lsi10kLike();
  const FlowResult flow = RunMaskingFlow(RippleComparatorNetwork(6), lib);
  ASSERT_TRUE(flow.verification.ok());
  struct Row {
    FaultKind kind;
    double delta_fraction;
    const char* counts[2];  // at chunk 64 and chunk 7
    std::vector<std::string> records;
  };
  const Row rows[] = {
      {FaultKind::kPermanentDelta,
       3.0,
       {"sites=12 trials=60 benign=48 masked=12 escapes=0 me=12 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.4e147ae034cd3p+2 records=0 words=1 lanes=60",
        "sites=12 trials=60 benign=48 masked=12 escapes=0 me=12 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.4e147ae034cd3p+2 records=0 words=9 lanes=60"},
       {}},
      {FaultKind::kTransient,
       3.0,
       {"sites=12 trials=60 benign=56 masked=4 escapes=0 me=4 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.4e147ae034cd3p+2 records=0 words=1 lanes=60",
        "sites=12 trials=60 benign=56 masked=4 escapes=0 me=4 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.4e147ae034cd3p+2 records=0 words=9 lanes=60"},
       {}},
      {FaultKind::kPermanentDelta,
       8.0,
       {"sites=12 trials=60 benign=46 masked=12 escapes=2 me=12 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.bd70a3d680ccfp+3 records=2 words=1 lanes=60",
        "sites=12 trials=60 benign=46 masked=12 escapes=2 me=12 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.bd70a3d680ccfp+3 records=2 words=9 lanes=60"},
       {"{\"trial\":46,\"site\":33,\"site_name\":\"n162\","
        "\"kind\":\"permanent\",\"transition_index\":0,"
        "\"delta\":10.004999999281246,\"campaign_delta\":13.919999998999996,"
        "\"previous\":\"001011101011\",\"next\":\"001111000011\","
        "\"output_index\":0,\"output_name\":\"ge\",\"shrunk\":true,"
        "\"clock\":17.4,\"protected_clock\":19.799999999999997}",
        "{\"trial\":58,\"site\":36,\"site_name\":\"n204\","
        "\"kind\":\"permanent\",\"transition_index\":0,"
        "\"delta\":13.009218749065425,\"campaign_delta\":13.919999998999996,"
        "\"previous\":\"000000000001\",\"next\":\"000001000000\","
        "\"output_index\":0,\"output_name\":\"ge\",\"shrunk\":true,"
        "\"clock\":17.4,\"protected_clock\":19.799999999999997}"}},
      {FaultKind::kTransient,
       8.0,
       {"sites=12 trials=60 benign=55 masked=4 escapes=1 me=4 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.bd70a3d680ccfp+3 records=1 words=1 lanes=60",
        "sites=12 trials=60 benign=55 masked=4 escapes=1 me=4 "
        "clock=0x1.1666666666666p+4 pclock=0x1.3ccccccccccccp+4 "
        "delta=0x1.bd70a3d680ccfp+3 records=1 words=9 lanes=60"},
       {"{\"trial\":58,\"site\":36,\"site_name\":\"n204\","
        "\"kind\":\"transient\",\"transition_index\":0,"
        "\"delta\":13.009218749065425,\"campaign_delta\":13.919999998999996,"
        "\"previous\":\"000000000001\",\"next\":\"000001000000\","
        "\"output_index\":0,\"output_name\":\"ge\",\"shrunk\":true,"
        "\"clock\":17.4,\"protected_clock\":19.799999999999997}"}},
  };
  for (const Row& row : rows) {
    InjectOptions options;
    options.fault_kind = row.kind;
    options.vectors_per_site = 5;
    options.delta_fraction = row.delta_fraction;
    options.seed = 31;
    const std::size_t chunks[2] = {options.chunk, 7};
    for (int c = 0; c < 2; ++c) {
      options.chunk = chunks[c];
      for (const int threads : {1, 8}) {
        options.threads = threads;
        const InjectionCampaignResult r =
            RunFaultInjectionCampaign(flow, options);
        const std::string where = std::string(ToString(row.kind)) + " x" +
                                  std::to_string(row.delta_fraction) +
                                  " chunk " + std::to_string(options.chunk) +
                                  " threads " + std::to_string(threads);
        ASSERT_GT(r.trials, 0u) << where;
        EXPECT_EQ(CampaignPin(r), row.counts[c]) << where;
        ASSERT_EQ(r.escape_records.size(), row.records.size()) << where;
        for (std::size_t i = 0; i < row.records.size(); ++i) {
          EXPECT_EQ(EncodeEscapeRecordJson(r.escape_records[i], r.clock,
                                           r.protected_clock),
                    row.records[i])
              << where << " record " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sm
