// balsa_perfbench: the repository's end-to-end benchmark.
//
//   balsa_perfbench --workload <serve_hot|serve_drift|learn> --seed <n>
//                   --seconds <s> --trace <0|1>
//   balsa_perfbench --selftest
//
// Runs one workload, checks its outputs, and prints as the last stdout line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones (and
// write their spans to .bench_out/). Exits 1 when a check fails. See
// perfbench/README.md for what each workload and metric means.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "perfbench/bench.h"
#include "src/util/logging.h"

namespace balsa::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / 100.0 : 0;  // USER_HZ ticks
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Untraced runs print exactly these (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"warmup_s", "s"},
    {"ops_per_cpu_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Traced runs print exactly these (BENCHMARK.json "per_layer"). A layer the
// workload never calls reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"sql.parse_us", "us"},
    {"serving.canonicalize_us", "us"},
    {"serving.canonicalize_allocs", "count"},
    {"serving.hit_allocs", "count"},
    {"serving.stage_fingerprint_us", "us"},
    {"serving.stage_cache_lookup_us", "us"},
    {"serving.hit_ratio", "ratio"},
    {"serving.hit_p50_us", "us"},
    {"serving.hit_p99_us", "us"},
    {"serving.miss_p50_ms", "ms"},
    {"serving.miss_p99_ms", "ms"},
    {"serving.queue_wait_us", "us"},
    {"serving.stage_beam_search_us", "us"},
    {"serving.stage_admit_us", "us"},
    {"serving.coalesced_ratio", "ratio"},
    {"serving.beam_searches_per_1k", "count"},
    {"serving.lru_evictions_per_1k", "count"},
    {"planner.topk_ms", "ms"},
    {"planner.evals_per_query", "count"},
    {"planner.evals_per_s", "1/s"},
    {"runtime.items_per_batch", "count"},
    {"runtime.batch_serve_us", "us"},
    {"model.forward_us_per_item_b1", "us"},
    {"model.forward_us_per_item_b32", "us"},
    {"storage.ingest_us_per_row", "us"},
    {"storage.ingest_batch_p50_ms", "ms"},
    {"storage.publications", "count"},
    {"adaptive.pass_ms", "ms"},
    {"adaptive.rewarm_replans", "count"},
    {"sim.collect_s", "s"},
    {"sim.fit_s", "s"},
    {"model.train_samples_per_s", "1/s"},
    {"learn.plan_s", "s"},
    {"learn.execute_s", "s"},
    {"learn.update_s", "s"},
    {"engine.execute_ms", "ms"},
    {"oracle.executions", "count"},
    {"expert.optimize_ms", "ms"},
    {"learn.train_speedup", "x"},
    {"learn.test_speedup", "x"},
};

/// Orders the metrics as listed, zero-fills layers the workload does not
/// exercise, and flags any metric the lists do not know (a benchmark bug).
template <size_t N>
void Normalize(const MetricSpec (&specs)[N], bool zero_fill,
               RunResult* result) {
  std::vector<RunResult::Metric> ordered;
  for (const MetricSpec& spec : specs) {
    auto it = std::find_if(
        result->metrics.begin(), result->metrics.end(),
        [&](const RunResult::Metric& m) { return m.name == spec.name; });
    if (it != result->metrics.end()) {
      ordered.push_back(*it);
    } else if (zero_fill) {
      ordered.push_back({spec.name, 0, spec.unit});
    } else if (result->correct) {
      result->Fail(std::string("metric not measured: ") + spec.name);
    }
  }
  if (ordered.size() != result->metrics.size() && !zero_fill) {
    result->Fail("unexpected metrics reported");
  }
  result->metrics = std::move(ordered);
}

void PrintResult(const RunResult& result) {
  for (const std::string& e : result.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const RunResult::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: balsa_perfbench --workload <serve_hot|serve_drift|"
               "learn> --seed N --seconds S --trace 0|1\n"
               "       balsa_perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace balsa::perfbench

int main(int argc, char** argv) {
  using namespace balsa::perfbench;
  RunOptions options;
  options.threads = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.seconds <= 0) return Usage();
  // Library progress logs would interleave with the report.
  balsa::SetLogLevel(balsa::LogLevel::kWarn);
  EnableSpans(options.trace);

  RunResult result;
  if (options.workload == "serve_hot") {
    result = RunServeHot(options);
  } else if (options.workload == "serve_drift") {
    result = RunServeDrift(options);
  } else if (options.workload == "learn") {
    result = RunLearn(options);
  } else {
    return Usage();
  }
  if (options.trace) {
    Normalize(kPerLayer, /*zero_fill=*/true, &result);
  } else if (result.correct) {
    Normalize(kEndToEnd, /*zero_fill=*/false, &result);
  }
  if (options.trace) {
    mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/spans_" + options.workload + "_" +
                             std::to_string(options.seed) + ".jsonl";
    if (!WriteSpans(path)) result.Fail("could not write " + path);
  }
  PrintResult(result);
  return result.correct ? 0 : 1;
}
