// yield_explorer — sweep guard band × variation sigma and tabulate how much
// timing yield the masking circuit buys back.
//
//   yield_explorer [circuit] [--trials N] [--threads N] [--seed S]
//                  [--model gauss|spatial|aging] [--aging L]
//                  [--sigma a,b,...] [--guard a,b,...] [--is]
//
// For every guard band the full masking flow is re-run (the SPCF, and hence
// C̃, depends on it); for every sigma the Monte-Carlo engine estimates the
// timing yield of the bare circuit C and the residual-error rate of the
// protected C ∪ C̃ at the shipped clock Δ. With --is the residual estimate
// uses importance sampling on top of plain MC and both are printed.
//
// The run exits non-zero if the protected circuit ever shows a *higher*
// failure rate than the bare one — masking must never hurt.
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/bench_runner.h"
#include "harness/flow.h"
#include "harness/table.h"
#include "harness/yield.h"
#include "liblib/lsi10k.h"
#include "suite/paper_suite.h"
#include "util/strings.h"

namespace {

using namespace sm;

std::optional<std::string> GetFlag(std::vector<std::string>& args,
                                   const std::string& name) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

bool GetSwitch(std::vector<std::string>& args, const std::string& name) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == name) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

std::vector<double> ParseList(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

std::string FormatRate(double rate) {
  std::ostringstream os;
  os.precision(4);
  os << rate;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    const bool use_is = GetSwitch(args, "--is");
    const std::size_t trials = static_cast<std::size_t>(
        std::stoll(GetFlag(args, "--trials").value_or("2000")));
    const int threads =
        ParseThreadCount(GetFlag(args, "--threads").value_or("4"));
    const std::uint64_t seed = static_cast<std::uint64_t>(
        std::stoull(GetFlag(args, "--seed").value_or("2009")));
    const std::string model_name = GetFlag(args, "--model").value_or("gauss");
    const double aging = std::stod(GetFlag(args, "--aging").value_or("0.05"));
    const std::vector<double> sigmas =
        ParseList(GetFlag(args, "--sigma").value_or("0.02,0.05,0.08"));
    const std::vector<double> guards =
        ParseList(GetFlag(args, "--guard").value_or("0.1,0.15"));
    const std::string circuit = args.empty() ? "cu" : args[0];

    VariationModel model;
    if (model_name == "gauss") {
      model.kind = VariationModelKind::kIndependentGaussian;
    } else if (model_name == "spatial") {
      model.kind = VariationModelKind::kSpatiallyCorrelated;
    } else if (model_name == "aging") {
      model.kind = VariationModelKind::kAgingDrift;
      model.aging_level = aging;
    } else {
      std::cerr << "unknown model: " << model_name << "\n";
      return 2;
    }

    const Library lib = Lsi10kLike();
    const Network ti = GenerateCircuit(PaperCircuitByName(circuit).spec);

    std::cout << "== timing-yield explorer: " << circuit << " ("
              << ToString(model.kind) << " model, " << trials << " trials, "
              << threads << " threads) ==\n\n";
    TablePrinter table(std::cout, {{"guard", 6},
                                   {"sigma", 6},
                                   {"yield C", 9},
                                   {"yield C+C~", 10},
                                   {"resid rate", 10},
                                   {"rel err", 8},
                                   {"masked", 7},
                                   {"trials/s", 9}});
    table.PrintHeader();

    bool ok = true;
    for (const double guard : guards) {
      FlowOptions fopt;
      fopt.spcf.guard_band = guard;
      const FlowResult flow = RunMaskingFlow(ti, lib, fopt);
      if (!flow.verification.ok()) {
        std::cerr << "verification failed at guard " << guard << "\n";
        return 1;
      }
      for (const double sigma : sigmas) {
        YieldMcOptions mco;
        mco.trials = trials;
        mco.threads = threads;
        mco.seed = seed;
        mco.model = model;
        mco.model.sigma = sigma;
        mco.importance_sampling = use_is;
        const YieldMcResult r = EstimateTimingYield(flow, mco);
        table.PrintRow({FormatPercent(100 * guard, 0),
                        FormatRate(sigma),
                        FormatRate(r.yield_original),
                        FormatRate(r.yield_protected),
                        FormatRate(r.residual_rate),
                        FormatPercent(100 * r.relative_error),
                        std::to_string(r.masked_trials),
                        FormatCount(r.trials_per_second)});
        // Masking must never make things worse: a residual failure needs a
        // violation the bare circuit would also have seen (same silicon,
        // same clock budget convention).
        ok = ok && r.yield_protected >= r.yield_original - 1e-12;
      }
    }
    std::cout << "\nyield C is P(every output of the bare circuit meets Δ); "
                 "yield C+C~ is P(no error escapes the protected outputs); "
                 "'masked' counts trials where a violation occurred but "
                 "every excited error was absorbed by the masking muxes.\n";
    std::cout << (ok ? "\nmasking never reduced timing yield\n"
                     : "\nFAIL: protected yield fell below the bare "
                       "circuit's\n");
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
