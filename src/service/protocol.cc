#include "service/protocol.h"

#include <cmath>

#include "network/blif.h"
#include "service/json.h"
#include "suite/paper_suite.h"
#include "util/check.h"
#include "util/hash.h"

namespace sm {

const char* ToString(ServiceMethod method) {
  switch (method) {
    case ServiceMethod::kAnalyzeSpcf:
      return "analyze_spcf";
    case ServiceMethod::kSynthesizeMasking:
      return "synthesize_masking";
    case ServiceMethod::kEstimateYield:
      return "estimate_yield";
    case ServiceMethod::kInjectCampaign:
      return "inject_campaign";
    case ServiceMethod::kOptimizeMasking:
      return "optimize_masking";
    case ServiceMethod::kStats:
      return "stats";
    case ServiceMethod::kShutdown:
      return "shutdown";
  }
  SM_UNREACHABLE("bad ServiceMethod");
}

ServiceMethod ServiceMethodFromString(const std::string& name) {
  if (name == "analyze_spcf") return ServiceMethod::kAnalyzeSpcf;
  if (name == "synthesize_masking") return ServiceMethod::kSynthesizeMasking;
  if (name == "estimate_yield") return ServiceMethod::kEstimateYield;
  if (name == "inject_campaign") return ServiceMethod::kInjectCampaign;
  if (name == "optimize_masking") return ServiceMethod::kOptimizeMasking;
  if (name == "stats") return ServiceMethod::kStats;
  if (name == "shutdown") return ServiceMethod::kShutdown;
  throw ParseError("unknown service method: " + name);
}

namespace {

const char* AlgorithmShortName(SpcfAlgorithm a) {
  switch (a) {
    case SpcfAlgorithm::kNodeBased:
      return "node";
    case SpcfAlgorithm::kPathBasedExtension:
      return "path";
    case SpcfAlgorithm::kShortPathBased:
      return "short";
  }
  SM_UNREACHABLE("bad SpcfAlgorithm");
}

SpcfAlgorithm AlgorithmFromShortName(const std::string& name) {
  if (name == "node") return SpcfAlgorithm::kNodeBased;
  if (name == "path") return SpcfAlgorithm::kPathBasedExtension;
  if (name == "short") return SpcfAlgorithm::kShortPathBased;
  throw ParseError("unknown spcf algorithm: " + name +
                   " (expected node|path|short)");
}

double FiniteOrZero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

std::string SerializeRequest(const ServiceRequest& request) {
  Json obj = Json::MakeObject();
  obj.Set("id", request.id);
  obj.Set("method", ToString(request.method));
  if (request.IsAnalysis()) {
    if (!request.circuit_name.empty()) {
      obj.Set("circuit_name", request.circuit_name);
    } else {
      obj.Set("circuit_blif", request.circuit_blif);
    }
    obj.Set("guard", request.guard);
    if (request.method == ServiceMethod::kAnalyzeSpcf) {
      obj.Set("algorithm", AlgorithmShortName(request.algorithm));
    }
    if (request.method == ServiceMethod::kEstimateYield) {
      obj.Set("trials", request.trials);
      obj.Set("sigma", request.sigma);
      obj.Set("seed", request.seed);
    }
    if (request.method == ServiceMethod::kInjectCampaign) {
      obj.Set("strategy", ToString(request.strategy));
      obj.Set("fault", ToString(request.fault));
      obj.Set("sites", request.sites);
      obj.Set("vectors", request.vectors);
      obj.Set("delta_fraction", request.delta_fraction);
      obj.Set("seed", request.seed);
    }
    if (request.method == ServiceMethod::kOptimizeMasking) {
      obj.Set("target_yield", request.target_yield);
      obj.Set("population", request.population);
      obj.Set("generations", request.generations);
      obj.Set("trials", request.trials);
      obj.Set("sigma", request.sigma);
      obj.Set("seed", request.seed);
    }
    // Scoped-flow fields, serialized only away from their defaults so
    // legacy protect-all requests keep their exact historical bytes (and
    // cache keys stay comparable across clients).
    if (request.method == ServiceMethod::kSynthesizeMasking ||
        request.method == ServiceMethod::kEstimateYield ||
        request.method == ServiceMethod::kInjectCampaign) {
      if (request.effort != 2) obj.Set("effort", request.effort);
      if (!request.scope.empty()) {
        Json scope = Json::MakeArray();
        for (const std::size_t o : request.scope) scope.Append(o);
        obj.Set("scope", std::move(scope));
      }
    }
  }
  if (request.deadline_ms > 0) obj.Set("deadline_ms", request.deadline_ms);
  if (request.work_budget > 0) obj.Set("work_budget", request.work_budget);
  return obj.Dump();
}

ServiceRequest ParseRequest(const std::string& payload) {
  Json doc = Json();
  try {
    doc = Json::Parse(payload);
  } catch (const JsonError& e) {
    throw ParseError(std::string("malformed request json: ") + e.what());
  }
  if (!doc.is_object()) throw ParseError("request must be a json object");
  ServiceRequest r;
  try {
    r.id = doc.GetUint64("id", 0);
    r.method = ServiceMethodFromString(doc.GetString("method"));
    r.circuit_name = doc.GetStringOr("circuit_name", "");
    r.circuit_blif = doc.GetStringOr("circuit_blif", "");
    r.guard = doc.GetDouble("guard", 0.1);
    r.algorithm =
        AlgorithmFromShortName(doc.GetStringOr("algorithm", "short"));
    r.trials = doc.GetUint64("trials", 2000);
    r.sigma = doc.GetDouble("sigma", 0.05);
    r.seed = doc.GetUint64("seed", 2009);
    r.strategy =
        FaultSiteStrategyFromString(doc.GetStringOr("strategy", "exhaustive"));
    r.fault = FaultKindFromString(doc.GetStringOr("fault", "permanent"));
    r.sites = doc.GetUint64("sites", 0);
    r.vectors = doc.GetUint64("vectors", 24);
    r.delta_fraction = doc.GetDouble("delta_fraction", 1.0);
    r.effort = doc.GetUint64("effort", 2);
    if (const Json* scope = doc.Find("scope")) {
      for (const Json& entry : scope->AsArray()) {
        r.scope.push_back(entry.AsUint64());
      }
    }
    r.target_yield = doc.GetDouble("target_yield", 0.95);
    r.population = doc.GetUint64("population", 16);
    r.generations = doc.GetUint64("generations", 6);
    r.deadline_ms = doc.GetDouble("deadline_ms", 0);
    r.work_budget = doc.GetUint64("work_budget", 0);
  } catch (const JsonError& e) {
    throw ParseError(std::string("bad request field: ") + e.what());
  }
  if (r.IsAnalysis()) {
    if (r.circuit_name.empty() == r.circuit_blif.empty()) {
      throw ParseError(
          "analysis request needs exactly one of circuit_name/circuit_blif");
    }
    SM_REQUIRE(r.guard > 0 && r.guard < 1,
               "guard must be in (0, 1), got " << r.guard);
  }
  if (r.method == ServiceMethod::kEstimateYield) {
    SM_REQUIRE(r.trials > 0, "trials must be positive");
    SM_REQUIRE(std::isfinite(r.sigma) && r.sigma >= 0,
               "sigma must be non-negative and finite, got " << r.sigma);
  }
  if (r.method == ServiceMethod::kInjectCampaign) {
    SM_REQUIRE(r.vectors > 0, "vectors must be positive");
    SM_REQUIRE(std::isfinite(r.delta_fraction) && r.delta_fraction > 0,
               "delta_fraction must be positive and finite, got "
                   << r.delta_fraction);
  }
  if (r.IsAnalysis()) {
    SM_REQUIRE(r.effort < static_cast<std::uint64_t>(kNumSynthEffortLevels),
               "effort must be < " << kNumSynthEffortLevels << ", got "
                                   << r.effort);
    for (std::size_t i = 0; i < r.scope.size(); ++i) {
      SM_REQUIRE(i == 0 || r.scope[i - 1] < r.scope[i],
                 "scope must be strictly ascending");
    }
  }
  if (r.method == ServiceMethod::kOptimizeMasking) {
    SM_REQUIRE(std::isfinite(r.target_yield) && r.target_yield >= 0 &&
                   r.target_yield <= 1,
               "target_yield must be in [0, 1], got " << r.target_yield);
    SM_REQUIRE(r.population >= 2, "population must be >= 2");
    SM_REQUIRE(r.generations >= 1, "generations must be >= 1");
    SM_REQUIRE(r.trials > 0, "trials must be positive");
    SM_REQUIRE(std::isfinite(r.sigma) && r.sigma > 0,
               "sigma must be positive and finite, got " << r.sigma);
  }
  return r;
}

std::string SerializeResponse(const ServiceResponse& response) {
  // The pre-serialized result is spliced in verbatim so a cached result
  // replays the exact bytes the cold computation produced.
  std::string out = "{\"id\":";
  out += JsonNumberToString(static_cast<double>(response.id));
  out += ",\"status\":\"";
  out += response.status;  // fixed vocabulary, never needs escaping
  out += '"';
  if (!response.result_json.empty()) {
    out += ",\"result\":";
    out += response.result_json;
  }
  if (!response.error.empty()) {
    Json err(response.error);
    out += ",\"error\":";
    out += err.Dump();
  }
  if (!response.code.empty()) {
    // Canonical snake_case vocabulary (util/cancel.h), never escaped.
    // Omitted when empty, so ok responses keep their pre-taxonomy bytes.
    out += ",\"code\":\"";
    out += response.code;
    out += '"';
  }
  out += '}';
  return out;
}

ServiceResponse ParseResponse(const std::string& payload) {
  Json doc = Json();
  try {
    doc = Json::Parse(payload);
  } catch (const JsonError& e) {
    throw ParseError(std::string("malformed response json: ") + e.what());
  }
  if (!doc.is_object()) throw ParseError("response must be a json object");
  ServiceResponse r;
  r.id = doc.GetUint64("id", 0);
  r.status = doc.GetString("status");
  r.error = doc.GetStringOr("error", "");
  r.code = doc.GetStringOr("code", "");
  if (const Json* result = doc.Find("result")) {
    r.result_json = result->Dump();
  }
  return r;
}

Network ResolveCircuit(const ServiceRequest& request) {
  SM_REQUIRE(request.IsAnalysis(),
             "method " << ToString(request.method) << " carries no circuit");
  if (!request.circuit_name.empty()) {
    return GenerateCircuit(PaperCircuitByName(request.circuit_name).spec);
  }
  return ReadBlifString(request.circuit_blif);
}

std::uint64_t RequestCacheKey(const ServiceRequest& request,
                              const Network& circuit) {
  Hasher h;
  h.Add(static_cast<std::uint64_t>(request.method));
  h.Add(HashNetwork(circuit));
  h.AddDouble(request.guard);
  if (request.method == ServiceMethod::kAnalyzeSpcf) {
    h.Add(static_cast<std::uint64_t>(request.algorithm));
  }
  if (request.method == ServiceMethod::kEstimateYield) {
    h.Add(request.trials);
    h.AddDouble(request.sigma);
    h.Add(request.seed);
  }
  if (request.method == ServiceMethod::kInjectCampaign) {
    h.Add(static_cast<std::uint64_t>(request.strategy));
    h.Add(static_cast<std::uint64_t>(request.fault));
    h.Add(request.sites);
    h.Add(request.vectors);
    h.AddDouble(request.delta_fraction);
    h.Add(request.seed);
  }
  if (request.method == ServiceMethod::kSynthesizeMasking ||
      request.method == ServiceMethod::kEstimateYield ||
      request.method == ServiceMethod::kInjectCampaign) {
    h.Add(request.effort);
    h.Add(request.scope.size());
    for (const std::size_t o : request.scope) h.Add(o);
  }
  if (request.method == ServiceMethod::kOptimizeMasking) {
    h.AddDouble(request.target_yield);
    h.Add(request.population);
    h.Add(request.generations);
    h.Add(request.trials);
    h.AddDouble(request.sigma);
    h.Add(request.seed);
  }
  return h.Digest();
}

std::string EncodeSpcfResult(const std::string& circuit, BddManager& mgr,
                             const MappedNetlist& net, const TimingInfo& timing,
                             const SpcfResult& spcf) {
  const int num_inputs = static_cast<int>(net.NumInputs());
  Json obj = Json::MakeObject();
  obj.Set("circuit", circuit);
  obj.Set("inputs", net.NumInputs());
  obj.Set("outputs", net.NumOutputs());
  obj.Set("delta", timing.critical_delay);
  obj.Set("target_arrival", spcf.target_arrival);
  Json outputs = Json::MakeArray();
  for (std::size_t i : spcf.critical_outputs) {
    Json entry = Json::MakeObject();
    entry.Set("index", i);
    entry.Set("name", net.output(i).name);
    entry.Set("patterns", mgr.SatCount(spcf.sigma[i], num_inputs));
    outputs.Append(std::move(entry));
  }
  obj.Set("critical_outputs", std::move(outputs));
  obj.Set("critical_minterms", spcf.critical_minterms);
  obj.Set("log2_critical_minterms", FiniteOrZero(spcf.log2_critical_minterms));
  return obj.Dump();
}

std::string EncodeFlowResult(const FlowResult& flow) {
  const OverheadReport& o = flow.overheads;
  Json obj = Json::MakeObject();
  obj.Set("circuit", o.circuit);
  obj.Set("inputs", o.num_inputs);
  obj.Set("outputs", o.num_outputs);
  obj.Set("gates", o.num_gates);
  obj.Set("delta", flow.timing.critical_delay);
  obj.Set("critical_outputs", o.critical_outputs);
  obj.Set("protected_outputs", o.protected_outputs);
  obj.Set("critical_minterms", o.critical_minterms);
  obj.Set("log2_critical_minterms", FiniteOrZero(o.log2_critical_minterms));
  obj.Set("slack_percent", o.slack_percent);
  obj.Set("area_percent", o.area_percent);
  obj.Set("power_percent", o.power_percent);
  obj.Set("safety", o.safety);
  obj.Set("coverage_100", o.coverage_100);
  obj.Set("scope_coverage", flow.verification.scope_coverage);
  return obj.Dump();
}

std::string EncodeYieldResult(const FlowResult& flow,
                              const YieldMcResult& yield) {
  Json obj = Json::MakeObject();
  obj.Set("circuit", flow.overheads.circuit);
  obj.Set("trials", yield.trials);
  obj.Set("clock", yield.clock);
  obj.Set("protected_clock", yield.protected_clock);
  obj.Set("violations_original", yield.violations_original);
  obj.Set("violations_protected", yield.violations_protected);
  obj.Set("masked_trials", yield.masked_trials);
  obj.Set("residual_trials", yield.residual_trials);
  obj.Set("masked_events", yield.masked_events);
  obj.Set("residual_events", yield.residual_events);
  obj.Set("yield_original", yield.yield_original);
  obj.Set("yield_protected", yield.yield_protected);
  obj.Set("residual_rate", yield.residual_rate);
  obj.Set("residual_stderr", yield.residual_stderr);
  obj.Set("effective_samples", yield.effective_samples);
  return obj.Dump();
}

namespace {

std::string BitString(const std::vector<bool>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (const bool b : bits) s.push_back(b ? '1' : '0');
  return s;
}

}  // namespace

std::string EncodeInjectResult(const FlowResult& flow,
                               const ServiceRequest& request,
                               const InjectionCampaignResult& campaign) {
  Json obj = Json::MakeObject();
  obj.Set("circuit", flow.overheads.circuit);
  obj.Set("strategy", ToString(request.strategy));
  obj.Set("fault", ToString(request.fault));
  obj.Set("sites", campaign.sites);
  obj.Set("trials", campaign.trials);
  obj.Set("benign", campaign.benign);
  obj.Set("masked", campaign.masked);
  obj.Set("escapes", campaign.escapes);
  obj.Set("masked_events", campaign.masked_events);
  obj.Set("clock", campaign.clock);
  obj.Set("protected_clock", campaign.protected_clock);
  obj.Set("delta", campaign.delta);
  obj.Set("guarantee_holds", campaign.GuaranteeHolds());
  Json records = Json::MakeArray();
  for (const EscapeRecord& rec : campaign.escape_records) {
    Json entry = Json::MakeObject();
    entry.Set("trial", rec.trial);
    entry.Set("site", static_cast<std::uint64_t>(rec.site));
    entry.Set("site_name", rec.site_name);
    entry.Set("kind", ToString(rec.kind));
    entry.Set("transition_index", rec.transition_index);
    entry.Set("delta", rec.delta);
    entry.Set("campaign_delta", rec.campaign_delta);
    entry.Set("previous", BitString(rec.previous));
    entry.Set("next", BitString(rec.next));
    entry.Set("output_index", rec.output_index);
    entry.Set("output_name", rec.output_name);
    entry.Set("shrunk", rec.shrunk);
    records.Append(std::move(entry));
  }
  obj.Set("escape_records", std::move(records));
  return obj.Dump();
}

}  // namespace sm
