// Shared pieces of the end-to-end benchmark: run options, the result that
// main.cc prints as the final JSON line, clocks and summaries, the span
// recorder behind --trace 1, the heap-allocation counter, SQL rendering, and
// the correctness checks every workload runs on its outputs.
//
// All timing is taken from outside the program: the benchmark wraps its own
// calls into each layer's public functions and reads counters the layers
// already expose. Nothing in src/ is modified or instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/balsa/planner.h"
#include "src/catalog/schema.h"
#include "src/plan/plan.h"
#include "src/plan/query_graph.h"
#include "src/storage/column_store.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace balsa::perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Threads the load generator and the system may use: nproc, at most 4.
  int threads = 4;
};

/// One run's outcome: main.cc prints it as the last stdout line.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed correctness check (the run then exits non-zero).
  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();
/// User + system CPU seconds this process has used so far.
double ProcessCpuSeconds();
/// Machine-wide CPU time stolen by the hypervisor so far, in seconds (0 when
/// /proc/stat is unreadable). A diagnostic: printed, never a metric.
double StealSeconds();

// --- Heap-allocation counting (alloc_hook.cc) ------------------------------
/// operator new calls made by the calling thread since it started.
int64_t ThreadAllocations();

// --- Spans (spans.cc) --------------------------------------------------------
/// In-memory span recorder for traced runs. A span is (name, start, end,
/// parent, request id); parents come from a per-thread stack, so nested
/// ScopedSpans form a tree. Disabled (the default) a ScopedSpan costs one
/// branch. Spans are written out once, at exit, by WriteSpans.
void EnableSpans(bool enabled);
bool SpansEnabled();

class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t request_id = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
};

/// Total duration (s) of the recorded spans named `name`.
double SpanSeconds(const std::string& name);
/// Writes every span as one JSON object per line. Returns false on I/O error.
bool WriteSpans(const std::string& path);

// --- SQL rendering (sql_render.cc) -------------------------------------------
/// A workload query rendered back to SQL with renamed aliases and a permuted
/// FROM list. `from_order[j]` is the source relation that the variant lists
/// j-th, so variant relation j == source relation from_order[j].
struct SqlVariant {
  std::string sql;
  std::vector<int> from_order;
};
SqlVariant RenderSql(const Schema& schema, const Query& query, Rng* rng);

// --- Correctness checks (checks.cc) ------------------------------------------
/// A served plan is structurally valid and joins exactly the query's
/// relations.
Status CheckPlanCoversQuery(const Query& query, const Plan& plan);
/// Two plans are bitwise identical (same Plan::Fingerprint).
Status CheckSamePlan(const Plan& served, const Plan& expected,
                     const std::string& what);
/// A response never carries statistics older than those current when its
/// request was issued.
Status CheckFreshVersion(int64_t issued_version, int64_t response_version);
/// The true cardinality the oracle measured equals an independent count.
Status CheckCardinality(const Query& query, double oracle_rows,
                        int64_t naive_rows);

/// Independent join count: evaluates `query`'s filters and equality joins
/// over raw column values by hash joins in relation order, with NULL
/// (-1) failing every predicate. Gives up (returns -1) when an
/// intermediate exceeds `limit` tuples.
int64_t NaiveJoinCount(const Snapshot& snapshot, const Query& query,
                       int64_t limit);

/// Runs the benchmark's own checks against seeded faults; 0 when every
/// fault is caught.
int RunSelfTest();

/// Adds model.forward_us_per_item_b1 / _b32: ValueNetwork::ForwardBatch
/// cost per item at batch 1 and 32, over the plans `planner_options` finds
/// for `queries`.
void AddModelForwardProbe(const Featurizer& featurizer,
                          const ValueNetwork& network,
                          const std::vector<const Query*>& queries,
                          const PlannerOptions& planner_options,
                          RunResult* result);

// --- Workloads ----------------------------------------------------------------
RunResult RunServeHot(const RunOptions& options);
RunResult RunServeDrift(const RunOptions& options);
RunResult RunLearn(const RunOptions& options);
}  // namespace balsa::perfbench
