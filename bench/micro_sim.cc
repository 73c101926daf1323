// Event-simulation engine microbenchmark: scalar vs 64-lane batched.
//
// For each circuit, generates a fixed stream of Monte-Carlo-style trials
// (random pattern-pair transition + per-trial delay-scale plane drawn with
// Rng::ForStream, exactly the structure of the yield and injection hot
// loops) and runs it twice:
//   scalar  — one SimulateTransition per trial (the priority-queue engine);
//   batched — 64 trials per BatchEventSim::Run, each lane under its own
//             delay plane.
// Every trial is cross-checked lane-against-scalar (sampled/settled bits,
// settle times, event counts — full bit-identity, not a spot check). Each
// side is repeated at least kTimingReps times and until its repetitions add
// up to kMinTimedSeconds, and the fastest repetition is kept: a smoke rep
// on a small circuit takes under a millisecond, too short for one sample
// to shrug off other load on the host. The benchmark FAILS unless the batched engine sustains kMinSpeedupFloor x
// scalar trial throughput on every circuit AND kMinSpeedup x on at least
// kMinFastCircuits of them (the paper-table acceptance bar).
//
// The MC yield and injection engines classify trials only on the batched
// engine; this run and batch_sim_test's differential fuzz are where it is
// held to SimulateTransition.
//
// Usage: micro_sim [--smoke] [--json=PATH]
//   --smoke     reduced circuit list + fewer trials for CI
//   --json=PATH result dump (default BENCH_sim.json)
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_runner.h"
#include "liblib/lsi10k.h"
#include "map/tech_map.h"
#include "service/json.h"
#include "sim/batch_sim.h"
#include "sim/event_sim.h"
#include "sta/sta.h"
#include "suite/paper_suite.h"
#include "util/rng.h"
#include "util/timer.h"

namespace sm {
namespace {

constexpr double kMinSpeedup = 8.0;
constexpr double kMinSpeedupFloor = 4.0;
constexpr int kMinFastCircuits = 2;
constexpr int kTimingReps = 3;
constexpr double kMinTimedSeconds = 0.05;

struct Trial {
  std::vector<bool> previous;
  std::vector<bool> next;
  std::vector<double> scale;
};

struct Row {
  std::string name;
  std::size_t gates = 0;
  std::size_t trials = 0;
  double clock = 0;
  double scalar_seconds = 0;
  double batched_seconds = 0;
  double pack_seconds = 0;  // word-packing share of batched_seconds
  std::uint64_t scalar_events = 0;
  std::uint64_t batched_events = 0;
  std::uint64_t words = 0;
  bool identical = true;
  double Speedup() const {
    return batched_seconds > 0 ? scalar_seconds / batched_seconds : 0;
  }
};

// The trial stream mirrors the consumers' classification loops: even
// trials are targeted transitions (a random base pattern with one toggled
// input — the Monte-Carlo engine's path-head toggles and the campaign's
// sensitized vectors), odd trials are full random pattern pairs. Stream t
// draws the pattern pair first, then the per-gate scale plane, so the
// workload is reproducible and independent of lane packing.
std::vector<Trial> MakeTrials(const MappedNetlist& net, std::size_t count,
                              std::uint64_t seed) {
  std::vector<Trial> trials(count);
  for (std::size_t t = 0; t < count; ++t) {
    Rng rng = Rng::ForStream(seed, t);
    Trial& trial = trials[t];
    trial.previous.resize(net.NumInputs());
    trial.next.resize(net.NumInputs());
    for (std::size_t i = 0; i < net.NumInputs(); ++i) {
      trial.previous[i] = rng.Chance(0.5);
      trial.next[i] = t % 2 == 0 ? trial.previous[i] : rng.Chance(0.5);
    }
    if (t % 2 == 0) {
      const std::size_t toggle = rng.Below(net.NumInputs());
      trial.next[toggle] = !trial.previous[toggle];
    }
    trial.scale.resize(net.NumElements(), 1.0);
    for (std::size_t g = net.NumInputs(); g < net.NumElements(); ++g) {
      trial.scale[g] = 0.8 + 0.4 * rng.Uniform();
    }
  }
  return trials;
}

Row RunCircuit(const PaperCircuitInfo& info, const Library& lib,
               std::size_t trial_count) {
  Row row;
  row.name = info.spec.name;
  const Network net = GenerateCircuit(info.spec);
  const MappedNetlist mapped = DecomposeAndMap(net, lib).netlist;
  const TimingInfo timing = AnalyzeTiming(mapped);
  row.gates = mapped.NumLogicGates();
  row.clock = timing.critical_delay;
  row.trials = trial_count;

  const std::vector<Trial> trials =
      MakeTrials(mapped, trial_count, HashName(info.spec.name.c_str()));

  // --- scalar baseline --------------------------------------------------
  // Best-of-reps timing on both sides: the first repetition stores the
  // oracle results and event totals, later ones only refine the clock.
  std::vector<EventSimResult> scalar(trial_count);
  row.scalar_seconds = 0;
  double timed = 0;
  for (int rep = 0; rep < kTimingReps || timed < kMinTimedSeconds; ++rep) {
    WallTimer scalar_timer;
    for (std::size_t t = 0; t < trial_count; ++t) {
      EventSimConfig cfg;
      cfg.clock = row.clock;
      cfg.delay_scale = trials[t].scale;
      EventSimResult r = SimulateTransition(mapped, trials[t].previous,
                                            trials[t].next, cfg);
      if (rep == 0) {
        row.scalar_events += r.events;
        scalar[t] = std::move(r);
      }
    }
    const double seconds = scalar_timer.Seconds();
    timed += seconds;
    if (rep == 0 || seconds < row.scalar_seconds) {
      row.scalar_seconds = seconds;
    }
  }

  // --- batched ----------------------------------------------------------
  // Pack + Run are timed (the packing is real batched-path overhead); the
  // full bit-identity cross-check between the runs is not — consumers read
  // the result in place, and the check touches every (element, lane) pair.
  const std::size_t words = mapped.NumElements();
  BatchEventSim engine(mapped);
  std::vector<std::uint64_t> prev_words(mapped.NumInputs());
  std::vector<std::uint64_t> next_words(mapped.NumInputs());
  row.batched_seconds = 0;
  timed = 0;
  for (int rep = 0; rep < kTimingReps || timed < kMinTimedSeconds; ++rep) {
    double rep_seconds = 0;
    double rep_pack = 0;
    for (std::size_t lo = 0; lo < trial_count; lo += kBatchLanes) {
      const int lanes = static_cast<int>(
          std::min<std::size_t>(kBatchLanes, trial_count - lo));
      WallTimer batch_timer;
      BatchEventSimConfig cfg;
      cfg.clock = row.clock;
      cfg.lanes = lanes;
      std::fill(prev_words.begin(), prev_words.end(), 0);
      std::fill(next_words.begin(), next_words.end(), 0);
      for (int l = 0; l < lanes; ++l) {
        const Trial& trial = trials[lo + l];
        cfg.delay_scale[static_cast<std::size_t>(l)] = trial.scale.data();
        for (std::size_t i = 0; i < mapped.NumInputs(); ++i) {
          prev_words[i] |= static_cast<std::uint64_t>(trial.previous[i]) << l;
          next_words[i] |= static_cast<std::uint64_t>(trial.next[i]) << l;
        }
      }
      rep_pack += batch_timer.Seconds();
      const BatchEventSimResult& r = engine.Run(prev_words, next_words, cfg);
      rep_seconds += batch_timer.Seconds();
      if (rep != 0) continue;
      ++row.words;
      for (int l = 0; l < r.lanes; ++l) {
        const std::size_t t = lo + static_cast<std::size_t>(l);
        const EventSimResult& s = scalar[t];
        row.batched_events += r.lane_events[static_cast<std::size_t>(l)];
        bool same = r.lane_events[static_cast<std::size_t>(l)] == s.events;
        for (std::size_t g = 0; same && g < words; ++g) {
          const GateId id = static_cast<GateId>(g);
          same = r.SampledAt(id, l) == s.sampled[g] &&
                 r.SettledAt(id, l) == s.settled[g] &&
                 r.SettleAt(id, l) == s.settle_at[g];
        }
        row.identical = row.identical && same;
      }
    }
    timed += rep_seconds;
    if (rep == 0 || rep_seconds < row.batched_seconds) {
      row.batched_seconds = rep_seconds;
      row.pack_seconds = rep_pack;
    }
  }
  return row;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseBenchArgs(argc, argv);
  if (opts.json_path.empty()) opts.json_path = "BENCH_sim.json";
  const std::vector<PaperCircuitInfo> infos =
      opts.smoke ? Table1SmokeCircuits() : Table1Circuits();
  const std::size_t trial_count = opts.smoke ? 1024 : 4096;

  const Library lib = Lsi10kLike();
  std::vector<Row> rows;
  bool all_identical = true;
  bool above_floor = true;
  int fast_circuits = 0;
  for (const PaperCircuitInfo& info : infos) {
    Row row = RunCircuit(info, lib, trial_count);
    const double scalar_tps =
        row.scalar_seconds > 0 ? row.trials / row.scalar_seconds : 0;
    const double batched_tps =
        row.batched_seconds > 0 ? row.trials / row.batched_seconds : 0;
    std::printf(
        "%-18s gates %5zu  trials %5zu  scalar %9.0f/s  batched %9.0f/s  "
        "speedup %5.1fx  %s\n",
        row.name.c_str(), row.gates, row.trials, scalar_tps, batched_tps,
        row.Speedup(), row.identical ? "identical" : "MISMATCH");
    std::fflush(stdout);
    all_identical = all_identical && row.identical;
    above_floor = above_floor && row.Speedup() >= kMinSpeedupFloor;
    if (row.Speedup() >= kMinSpeedup) ++fast_circuits;
    rows.push_back(std::move(row));
  }
  const bool all_fast = above_floor && fast_circuits >= kMinFastCircuits;

  std::ofstream out(opts.json_path);
  if (!out.good()) {
    std::cerr << "cannot write " << opts.json_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"micro_sim\",\n";
  out << "  \"smoke\": " << (opts.smoke ? "true" : "false") << ",\n";
  out << "  \"min_speedup\": " << kMinSpeedup << ",\n";
  out << "  \"min_speedup_floor\": " << kMinSpeedupFloor << ",\n";
  out << "  \"min_fast_circuits\": " << kMinFastCircuits << ",\n";
  out << "  \"fast_circuits\": " << fast_circuits << ",\n";
  out << "  \"bit_identical\": " << (all_identical ? "true" : "false")
      << ",\n";
  out << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"" << JsonEscape(r.name) << "\""
        << ", \"gates\": " << r.gates << ", \"trials\": " << r.trials
        << ", \"clock\": " << r.clock
        << ", \"scalar_seconds\": " << r.scalar_seconds
        << ", \"batched_seconds\": " << r.batched_seconds
        << ", \"pack_seconds\": " << r.pack_seconds
        << ", \"scalar_events\": " << r.scalar_events
        << ", \"batched_events\": " << r.batched_events
        << ", \"words\": " << r.words << ", \"speedup\": " << r.Speedup()
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  if (!all_identical) {
    std::cerr << "FAIL: batched results differ from scalar\n";
  }
  if (!all_fast) {
    std::cerr << "FAIL: batched speedup gate (need every circuit >= "
              << kMinSpeedupFloor << "x and at least " << kMinFastCircuits
              << " circuits >= " << kMinSpeedup << "x)\n";
  }
  return (all_identical && all_fast) ? 0 : 1;
}

}  // namespace
}  // namespace sm

int main(int argc, char** argv) {
  try {
    return sm::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
