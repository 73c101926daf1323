#include "harness/inject.h"

#include <fstream>

#include "map/netlist_io.h"
#include "service/json.h"
#include "util/check.h"

namespace sm {
namespace {

std::string BitsToString(const std::vector<bool>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (const bool b : bits) s.push_back(b ? '1' : '0');
  return s;
}

}  // namespace

double FlowGuardBand(const FlowResult& flow) {
  const double clock = flow.timing.critical_delay;
  SM_CHECK(clock > 0, "flow has no critical delay");
  const double guard = 1.0 - flow.spcf.target_arrival / clock;
  SM_CHECK(guard > 0 && guard < 1,
           "flow SPCF target arrival " << flow.spcf.target_arrival
                                       << " implies guard band " << guard
                                       << " outside (0, 1)");
  return guard;
}

InjectionCampaignResult RunFaultInjectionCampaign(
    const FlowResult& flow, const InjectOptions& options) {
  InjectOptions resolved = options;
  if (resolved.clock < 0) resolved.clock = flow.timing.critical_delay;
  resolved.guard_band = FlowGuardBand(flow);
  // Under a partial protection scope, errors at critical-but-unprotected
  // outputs are accepted risk (quantified by the MC yield engine), not
  // guarantee violations — waive them so the campaign attacks exactly the
  // claim the flow shipped. Protect-all flows leave this empty. An explicit
  // caller-provided list wins.
  if (resolved.waived_outputs.empty()) {
    resolved.waived_outputs = flow.verification.unprotected_critical;
  }
  return RunInjectionCampaign(flow.original, flow.protected_circuit,
                              resolved);
}

std::string EncodeEscapeRecordJson(const EscapeRecord& rec, double clock,
                                   double protected_clock) {
  Json obj = Json::MakeObject();
  obj.Set("trial", rec.trial);
  obj.Set("site", static_cast<std::uint64_t>(rec.site));
  obj.Set("site_name", rec.site_name);
  obj.Set("kind", ToString(rec.kind));
  obj.Set("transition_index", rec.transition_index);
  obj.Set("delta", rec.delta);
  obj.Set("campaign_delta", rec.campaign_delta);
  obj.Set("previous", BitsToString(rec.previous));
  obj.Set("next", BitsToString(rec.next));
  obj.Set("output_index", rec.output_index);
  obj.Set("output_name", rec.output_name);
  obj.Set("shrunk", rec.shrunk);
  obj.Set("clock", clock);
  obj.Set("protected_clock", protected_clock);
  return obj.Dump();
}

std::vector<std::string> WriteEscapeReproducers(
    const FlowResult& flow, const InjectionCampaignResult& result,
    const std::string& dir, const std::string& stem, std::size_t max_files) {
  std::vector<std::string> paths;
  const std::size_t n = std::min(max_files, result.escape_records.size());
  // The BLIF is written once per record (not shared) so every reproducer is
  // a self-contained pair that can be mailed around on its own.
  const std::string blif = WriteMappedBlifString(flow.protected_circuit.netlist);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string base = dir + "/" + stem + "_escape" + std::to_string(i);
    {
      std::ofstream f(base + ".blif");
      SM_REQUIRE(f.good(), "cannot open " << base << ".blif for writing");
      f << blif;
    }
    {
      std::ofstream f(base + ".json");
      SM_REQUIRE(f.good(), "cannot open " << base << ".json for writing");
      f << EncodeEscapeRecordJson(result.escape_records[i], result.clock,
                                  result.protected_clock)
        << "\n";
    }
    paths.push_back(base + ".blif");
    paths.push_back(base + ".json");
  }
  return paths;
}

}  // namespace sm
