// The serving stack both serving workloads run (environment, estimator,
// untrained-but-fixed value network, OptimizerServer, and for serve_drift
// the change log and re-ANALYZE scheduler), plus the latency recorder the
// load generator fills.
#pragma once

#include <memory>
#include <vector>

#include "perfbench/bench.h"
#include "src/adaptive/reanalyze_scheduler.h"
#include "src/harness/env.h"
#include "src/model/featurizer.h"
#include "src/model/value_network.h"
#include "src/obs/metrics.h"
#include "src/serving/optimizer_server.h"
#include "src/stats/swappable_estimator.h"
#include "src/storage/change_log.h"

namespace balsa::perfbench {

/// Fixed-resolution latency histogram: 0.05 µs buckets up to ~4 ms, exact
/// values above. The buckets are allocated once, so recording a hit never
/// allocates and memory grows only with the requests slower than 4 ms.
class LatencyRecorder {
 public:
  static constexpr double kResolutionUs = 0.05;
  static constexpr size_t kBuckets = 81920;

  LatencyRecorder() : buckets_(kBuckets, 0) {}
  void Record(double micros) {
    const double slot = micros / kResolutionUs;
    if (slot < static_cast<double>(kBuckets)) {
      buckets_[static_cast<size_t>(slot)]++;
    } else {
      overflow_.push_back(micros);
    }
    count_++;
  }
  void Merge(const LatencyRecorder& other);
  /// Nearest-rank percentile in µs (bucket midpoint below 4 ms); 0 if empty.
  double Percentile(double p) const;
  int64_t count() const { return count_; }

 private:
  std::vector<uint32_t> buckets_;
  std::vector<double> overflow_;
  int64_t count_ = 0;
};

/// Both serving workloads build the JOB-like environment at data scale 0.1
/// and plan misses with beam 10 / top-5, like the learn workload.
struct ServeStackOptions {
  int planning_threads = 4;
  /// serve_drift: change log, scheduler, metrics registry, flight recorder.
  bool drift = false;
  /// Traced runs: sample every request into the server's stage histograms.
  bool trace = false;
};

/// Members are declared in dependency order so destruction runs top-down:
/// the scheduler and server detach from the registry before it dies, and
/// everything that borrows the environment dies before it.
struct ServeStack {
  std::unique_ptr<Env> env;
  std::shared_ptr<SwappableEstimator> estimator;
  std::unique_ptr<Featurizer> featurizer;
  std::unique_ptr<ValueNetwork> network;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<ChangeLog> log;
  std::unique_ptr<OptimizerServer> server;
  std::unique_ptr<ReanalyzeScheduler> scheduler;
  /// The served templates: every JOB query, then every Ext-JOB query.
  std::vector<const Query*> templates;
  PlannerOptions planner;
};

StatusOr<std::unique_ptr<ServeStack>> MakeServeStack(
    const ServeStackOptions& options);

}  // namespace balsa::perfbench
