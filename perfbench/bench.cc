// Entry point of the repository benchmark:
//
//   valmod_perfbench --workload=<valmod_ecg|serve_mixed|stream_ingest>
//                    --seed=<n> --seconds=<s> --trace=<0|1>
//
// Prints a metadata line (build provenance, sample counts) and, as the
// last line, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}:
// every end-to-end metric with --trace=0, every per-layer metric with
// --trace=1. perfbench/run.py builds this binary and forwards its output.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "bench_util.h"
#include "common/flags.h"
#include "fft/plan.h"
#include "mass/backend.h"
#include "mass/engine.h"
#include "service/client.h"
#include "simd/dispatch.h"

#ifndef VALMOD_PERFBENCH_BUILD_TYPE
#define VALMOD_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace valmod::perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares (run.py checks the two agree).
// Every workload prints every metric of its mode: the end-to-end ones are
// defined for all three workloads (README.md maps them), and a per-layer
// metric of a layer the workload never enters reads 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"op_p50_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.init_s", "s"},
    {"core.update_s", "s"},
    {"core.rows_valid", "count"},
    {"core.rows_invalid", "count"},
    {"core.rows_recomputed", "count"},
    {"core.rows_constant", "count"},
    {"core.passes", "count"},
    {"core.certified_ratio", "ratio"},
    {"core.recompute_ratio", "ratio"},
    {"mass.rows_direct", "count"},
    {"mass.rows_fft_single", "count"},
    {"mass.rows_fft_pair", "count"},
    {"mass.rows_overlap_save", "count"},
    {"mass.chunk_spectra_hit_ratio", "ratio"},
    {"mass.find_query_matches_ms", "ms"},
    {"fft.plan_misses", "count"},
    {"simd.radix2_pass_calls", "count"},
    {"simd.fused_radix4_dit_calls", "count"},
    {"simd.fused_radix4_dif_calls", "count"},
    {"simd.complex_multiply_calls", "count"},
    {"simd.dot_product_calls", "count"},
    {"simd.window_stats_calls", "count"},
    {"service.parse_ms", "ms"},
    {"service.plan_ms", "ms"},
    {"service.cache_lookup_ms", "ms"},
    {"service.serialize_ms", "ms"},
    {"service.wire_ms", "ms"},
    {"service.request_self_ms", "ms"},
    {"service.compute_ms", "ms"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_tail_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.rejected", "count"},
    {"service.shed", "count"},
    {"service.coalesced", "count"},
    {"service.trace_overhead_pct", "%"},
    {"service.append_overhead_ms", "ms"},
    {"mp.append_all_p50_ms", "ms"},
    {"mp.append_all_tail_ms", "ms"},
    {"mp.top_motifs_ms", "ms"},
    {"mp.evicted_points", "count"},
    {"mp.reanchors", "count"},
    {"mp.memory_bytes", "bytes"},
};

void AppendNumber(double value, std::string* out) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

/// Builds the result line; false (and nothing to print) when a workload
/// left an end-to-end metric unset or non-finite — a benchmark bug.
bool ResultLine(const Args& args, const Report& report, std::string* line) {
  std::string metrics;
  bool first = true;
  const auto emit = [&](const MetricSpec& spec, double value) {
    if (!first) metrics += ',';
    first = false;
    json::AppendQuoted(spec.name, &metrics);
    metrics += ":{\"value\":";
    AppendNumber(value, &metrics);
    metrics += ",\"unit\":";
    json::AppendQuoted(spec.unit, &metrics);
    metrics += '}';
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = report.metrics().find(spec.name);
      const double value = it == report.metrics().end() ? 0.0 : it->second;
      if (!std::isfinite(value)) return false;
      emit(spec, value);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = report.metrics().find(spec.name);
      if (it == report.metrics().end() || !std::isfinite(it->second)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     spec.name);
        return false;
      }
      emit(spec, it->second);
    }
  }
  *line = std::string("{\"correct\":") +
          (report.correct() ? "true" : "false") +
          ",\"attempted\":" + std::to_string(report.attempted()) +
          ",\"failed\":" + std::to_string(report.failed()) +
          ",\"metrics\":{" + metrics + "}}";
  return true;
}

std::string MetadataLine(const Args& args, const Report& report) {
  std::string out = "{\"perfbench\":{";
  out += bench::RunMetadataJsonFragment();
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":\"" VALMOD_PERFBENCH_BUILD_TYPE "\"";
  out += ",\"workload\":";
  json::AppendQuoted(args.workload, &out);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":";
  AppendNumber(args.seconds, &out);
  out += args.trace ? ",\"trace\":1" : ",\"trace\":0";
  for (const auto& [key, value] : report.notes()) {
    out += ',';
    json::AppendQuoted(key, &out);
    out += ':';
    value.SerializeTo(&out);
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  static constexpr std::string_view kKnown[] = {"workload", "seed", "seconds",
                                                "trace"};
  if (const Status status = flags.RejectUnknown(kKnown); !status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 2;
  }
  Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  args.seconds = flags.GetDouble("seconds", 35.0);
  args.trace = flags.GetInt("trace", 0) != 0;
  if (!(args.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  // A client whose peer vanished must see EPIPE, not die of SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  Report report;
  const CostModelGuard guard;
  if (args.workload == "valmod_ecg") {
    RunValmodEcg(args, report);
  } else if (args.workload == "serve_mixed") {
    RunServeMixed(args, report);
  } else if (args.workload == "stream_ingest") {
    RunStreamIngest(args, report);
  } else {
    std::fprintf(stderr,
                 "perfbench: unknown --workload '%s' (valmod_ecg, "
                 "serve_mixed, stream_ingest)\n",
                 args.workload.c_str());
    return 2;
  }
  guard.Check(report);
  if (report.attempted() == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  if (!args.trace) report.Metric("peak_rss_mib", PeakRssMib());

  std::string line;
  if (!ResultLine(args, report, &line)) return 3;
  std::printf("%s\n%s\n", MetadataLine(args, report).c_str(), line.c_str());
  return 0;
}

}  // namespace

void Report::CheckFailed(const std::string& why) {
  checks_ok_ = false;
  std::fprintf(stderr, "perfbench check failed: %s\n", why.c_str());
}

double Report::Latencies(const std::string& prefix,
                         const std::vector<double>& ms) {
  const Tail tail = TailPercentile(ms);
  const double p50 = Median(ms);
  json::Value::Object note;
  note.emplace("p50_ms", json::Value(p50));
  note.emplace("samples", json::Value(tail.samples));
  note.emplace("tail_ms", json::Value(tail.value));
  note.emplace("tail_percentile", json::Value(tail.percentile));
  Note(prefix + "_latency", json::Value(std::move(note)));
  return p50;
}

double Report::SlicedLatencies(const std::string& prefix,
                             const std::vector<TimedSample>& samples,
                             double seconds) {
  std::vector<double> p50, tail;
  std::size_t fewest = samples.size();
  double lowest_percentile = 1.0;
  for (const std::vector<double>& slice :
       SliceByStart(samples, seconds, kSlices)) {
    const Tail t = TailPercentile(slice);
    p50.push_back(Median(slice));
    tail.push_back(t.value);
    fewest = std::min(fewest, slice.size());
    lowest_percentile = std::min(lowest_percentile, t.percentile);
  }
  json::Value::Object note;
  note.emplace("p50_ms", json::Value(Median(p50)));
  note.emplace("samples", json::Value(samples.size()));
  note.emplace("tail_ms", json::Value(Median(tail)));
  note.emplace("slices", json::Value(kSlices));
  note.emplace("fewest_in_slice", json::Value(fewest));
  note.emplace("lowest_tail_percentile", json::Value(lowest_percentile));
  Note(prefix + "_latency", json::Value(std::move(note)));
  return Median(p50);
}

double SlicedRate(const std::vector<TimedSample>& samples, double seconds,
                  double weight) {
  std::vector<double> rates;
  const double slice_s = seconds / static_cast<double>(kSlices);
  for (const std::vector<double>& slice :
       SliceByStart(samples, seconds, kSlices)) {
    rates.push_back(Ratio(weight * static_cast<double>(slice.size()), slice_s));
  }
  return Median(rates);
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  (void)sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::PinNext() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  ++next_;
  (void)sched_setaffinity(0, sizeof(one), &one);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Counters ReadLayerCounters() {
  Counters c;
  const mass::EngineCounters engine = mass::EngineCountersSnapshot();
  c["mass.rows_direct"] = engine.rows_direct;
  c["mass.rows_fft_single"] = engine.rows_fft_single;
  c["mass.rows_fft_pair"] = engine.rows_fft_pair;
  c["mass.rows_overlap_save"] = engine.rows_overlap_save;
  c["mass.chunk_spectra_hits"] = engine.chunk_spectra_hits;
  c["mass.chunk_spectra_misses"] = engine.chunk_spectra_misses;
  const fft::PlanRegistryCounters plans = fft::PlanRegistryCountersSnapshot();
  c["fft.plan_misses"] = plans.misses;
  const simd::KernelCounters kernels = simd::KernelCountersSnapshot();
  for (int k = 0; k < simd::kNumKernelKinds; ++k) {
    std::uint64_t calls = 0;
    for (int t = 0; t < simd::kNumTargets; ++t) calls += kernels.calls[t][k];
    c[std::string("simd.") +
      simd::KernelKindName(static_cast<simd::KernelKind>(k)) + "_calls"] =
        calls;
  }
  return c;
}

void ReportLayerCounters(const Counters& delta, Report& report) {
  for (const auto& [name, value] : delta) {
    report.Metric(name, static_cast<double>(value));
  }
  const auto at = [&](const char* name) {
    const auto it = delta.find(name);
    return it == delta.end() ? 0.0 : static_cast<double>(it->second);
  };
  report.Metric("mass.chunk_spectra_hit_ratio",
                Ratio(at("mass.chunk_spectra_hits"),
                      at("mass.chunk_spectra_hits") +
                          at("mass.chunk_spectra_misses")));
}

CostModelGuard::CostModelGuard()
    : generation_(mass::BackendCostModelGeneration()) {}

void CostModelGuard::Check(Report& report) const {
  if (mass::CalibrationRefitCount() != 0) {
    report.CheckFailed("a cost-model calibration ran during the benchmark");
  }
  if (mass::BackendCostModelGeneration() != generation_) {
    report.CheckFailed("the cost-model generation changed during the run");
  }
}

std::vector<Span> ParseSpans(const json::Value& trace) {
  std::vector<Span> spans;
  const json::Value* list = trace.Find("spans");
  if (list == nullptr || !list->is_array()) return spans;
  for (const json::Value& s : list->AsArray()) {
    Span span;
    span.name = s.GetString("name", "");
    span.parent = static_cast<int>(s.GetNumber("parent", -1));
    span.start_ns = static_cast<std::uint64_t>(s.GetNumber("start_ns", 0));
    span.duration_ns =
        static_cast<std::uint64_t>(s.GetNumber("duration_ns", 0));
    spans.push_back(std::move(span));
  }
  return spans;
}

TracedRequest ReadTrace(const json::Value& response, double client_ms) {
  TracedRequest traced;
  traced.trace_id = response.GetString("trace_id", "");
  traced.client_ms = client_ms;
  if (const json::Value* tree = response.Find("trace")) {
    const std::vector<Span> spans = ParseSpans(*tree);
    if (!spans.empty()) traced.request_ms = spans[0].duration_ns / 1e6;
  }
  return traced;
}

void ReportSpanMetrics(const service::SlowLog& slowlog,
                       const std::vector<TracedRequest>& requests,
                       Report& report) {
  std::map<std::string, std::vector<Span>> trees;
  for (const service::SlowLog::Entry& entry : slowlog.Snapshot()) {
    if (entry.trace_id.empty()) continue;
    auto parsed = json::Parse(entry.spans_json);
    if (parsed.ok()) trees[entry.trace_id] = ParseSpans(*parsed);
  }
  std::map<std::string, std::vector<double>> stage_ms;
  std::size_t matched = 0;
  for (const TracedRequest& request : requests) {
    const auto it = trees.find(request.trace_id);
    if (it == trees.end() || it->second.empty()) continue;
    ++matched;
    const std::vector<Span>& spans = it->second;
    std::map<std::string, double> per_request;
    for (const Span& span : spans) {
      per_request[span.name] += span.duration_ns / 1e6;
    }
    for (const auto& [name, ms] : per_request) stage_ms[name].push_back(ms);
    stage_ms["request_self"].push_back(SelfTimeNs(spans, 0) / 1e6);
    stage_ms["wire"].push_back(request.client_ms - request.request_ms);
  }
  if (matched != requests.size()) {
    report.CheckFailed(std::to_string(requests.size() - matched) +
                       " traced requests have no span tree in the slow log");
  }
  for (const char* stage : {"parse", "plan", "cache_lookup", "serialize",
                            "compute", "request_self", "wire"}) {
    report.Metric(std::string("service.") + stage + "_ms",
                  Median(stage_ms[stage]));
  }
  report.Metric("service.queue_wait_p50_ms", Median(stage_ms["queue_wait"]));
  report.Metric("service.queue_wait_tail_ms",
                TailPercentile(stage_ms["queue_wait"]).value);
}

double StatsDelta(const json::Value& before, const json::Value& after,
                  const char* group, const char* field) {
  const auto read = [&](const json::Value& stats) {
    const json::Value* g = stats.Find(group);
    return g != nullptr ? g->GetNumber(field, 0.0) : 0.0;
  };
  return read(after) - read(before);
}

void ReportServiceCounters(const json::Value& before, const json::Value& after,
                           Report& report) {
  const double hits = StatsDelta(before, after, "cache", "hits");
  const double misses = StatsDelta(before, after, "cache", "misses");
  report.Metric("service.cache_hit_ratio", Ratio(hits, hits + misses));
  report.Metric("service.rejected",
                StatsDelta(before, after, "scheduler", "rejected"));
  report.Metric("service.shed", StatsDelta(before, after, "scheduler", "shed"));
  report.Metric("service.coalesced",
                StatsDelta(before, after, "cache", "coalesced"));
}

ServedService::ServedService(const service::ServiceOptions& options)
    : service_(options) {}

ServedService::~ServedService() { Stop(); }

Status ServedService::Start() {
  service::TcpServerOptions options;
  options.port = 0;
  VALMOD_ASSIGN_OR_RETURN(server_, service::MakeEpollServer(service_, options));
  port_ = server_->port();
  serve_thread_ = std::thread([this] { (void)server_->Serve(); });
  return Status::Ok();
}

void ServedService::Stop() {
  if (!serve_thread_.joinable()) return;
  {
    service::TcpTransport transport(port_);
    (void)transport.RoundTrip("{\"verb\":\"shutdown\"}");
  }
  serve_thread_.join();
}

json::Value ServedService::Stats() {
  auto parsed = json::Parse(service_.HandleRequestLine("{\"verb\":\"stats\"}"));
  if (!parsed.ok() || parsed->Find("result") == nullptr) return json::Value();
  return *parsed->Find("result");
}

std::vector<std::string> RenderValues(const std::vector<double>& values) {
  std::vector<std::string> tokens;
  tokens.reserve(values.size());
  for (const double v : values) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    tokens.emplace_back(buffer);
  }
  return tokens;
}

std::string JoinArray(const std::vector<std::string>& tokens,
                      std::size_t begin, std::size_t count) {
  std::string out = "[";
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) out += ',';
    out += tokens[begin + i];
  }
  out += ']';
  return out;
}

}  // namespace valmod::perfbench

int main(int argc, char** argv) { return valmod::perfbench::Main(argc, argv); }
