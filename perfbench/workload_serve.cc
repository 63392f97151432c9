// The two serving workloads.
//
// serve_hot: 4 closed-loop clients send SQL text to OptimizeSql. Queries
// are drawn Zipf(0.9) over the 145 JOB + Ext-JOB templates, each request
// one of 8 seeded renderings (renamed aliases, permuted FROM, shuffled
// WHERE). All 145 fingerprints fit in the plan cache and are primed before
// timing, so the hit path (parse, fingerprint, lookup, remap) is the work.
//
// serve_drift: 3 closed-loop clients send Query objects drawn Zipf(0.9)
// over the templates. One request in four repeats the template's primed
// literal redraw (a hit unless a bump made it stale); the others carry
// literals freshly redrawn from each column's domain and miss, so the
// distinct queries far outnumber the 4096 cache slots. One writer applies a drift scenario through the ChangeLog
// in 8 rounds on a fixed schedule and runs a ReanalyzeScheduler pass after
// each round, so statistics bumps and re-warms land at fixed points. The
// server runs with a metrics registry and the flight recorder on. Misses
// (queue wait, beam search, fused inference, admit, eviction) are the work.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "perfbench/serving_stack.h"
#include "src/serving/query_fingerprint.h"
#include "src/sql/parser.h"
#include "src/stats/incremental_analyze.h"
#include "src/workloads/drift_scenario.h"

namespace balsa::perfbench {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

double LatencyRecorder::Percentile(double p) const {
  if (count_ == 0) return 0;
  int64_t rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::max<int64_t>(rank, 1);
  int64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return (static_cast<double>(i) + 0.5) * kResolutionUs;
  }
  std::vector<double> rest = overflow_;
  std::sort(rest.begin(), rest.end());
  const size_t idx = static_cast<size_t>(rank - seen - 1);
  return rest[std::min(idx, rest.size() - 1)];
}

StatusOr<std::unique_ptr<ServeStack>> MakeServeStack(
    const ServeStackOptions& options) {
  auto stack = std::make_unique<ServeStack>();
  EnvOptions env_options;
  env_options.data_scale = 0.1;
  BALSA_ASSIGN_OR_RETURN(stack->env,
                         MakeEnv(WorkloadKind::kJobTrainAll, env_options));
  Env& env = *stack->env;
  stack->estimator = std::make_shared<SwappableEstimator>(env.base_estimator);
  stack->featurizer =
      std::make_unique<Featurizer>(&env.schema(), stack->estimator.get());
  // The agent's default architecture, fixed initial weights: serving cost
  // depends on the network's shape, not on what it has learned.
  ValueNetConfig net;
  net.query_dim = stack->featurizer->query_dim();
  net.node_dim = stack->featurizer->node_dim();
  net.init_seed = 7;
  stack->network = std::make_unique<ValueNetwork>(net);

  OptimizerServerOptions server_options;
  server_options.planner.beam_size = 10;
  server_options.planner.top_k = 5;
  server_options.num_planning_threads = options.planning_threads;
  if (options.trace) server_options.trace.sample_every = 1;
  // Synchronous scoring: each planning thread runs its own frontier's
  // forward pass. With the default single inference worker every beam-search
  // expansion is a cross-thread handoff; misses then run ~4x slower and
  // their wall times swing 30-40% with hypervisor steal on a shared host.
  server_options.inference.num_workers = 0;
  if (options.drift) {
    stack->registry = std::make_unique<obs::MetricsRegistry>();
    server_options.metrics = stack->registry.get();
    server_options.flight_recorder.enabled = true;
    stack->log = std::make_unique<ChangeLog>(env.db.get());
    const std::vector<TableStats>& stats = env.base_estimator->stats();
    for (int t = 0; t < env.schema().num_tables(); ++t) {
      stack->log->SetAnchor(t, MakeTableAnchor(stats[static_cast<size_t>(t)]));
    }
  }
  stack->planner = server_options.planner;
  stack->server = std::make_unique<OptimizerServer>(
      &env.schema(), stack->featurizer.get(), stack->network.get(),
      env.oracle.get(), server_options);
  if (options.drift) {
    ReanalyzeSchedulerOptions scheduler_options;
    scheduler_options.rewarm_top_k = 8;
    scheduler_options.metrics = stack->registry.get();
    stack->scheduler = std::make_unique<ReanalyzeScheduler>(
        env.db.get(), stack->log.get(), env.oracle.get(),
        stack->estimator.get(), stack->server.get(), nullptr,
        scheduler_options);
  }
  for (const Query& q : env.workload.queries()) stack->templates.push_back(&q);
  for (const Query& q : env.ext_workload.queries()) {
    stack->templates.push_back(&q);
  }
  return stack;
}

namespace {

constexpr double kZipfSkew = 0.9;

/// One request's input: either SQL text (serve_hot) or a Query (drift).
struct Request {
  int template_idx = 0;
  std::string sql;
  std::vector<int> from_order;  // variant relation j = source from_order[j]
  Query query;                  // parsed SQL (hot) or the redrawn query
};

/// Per-outcome latencies of one client (or, merged, of the whole run).
struct Outcomes {
  LatencyRecorder all, hit, miss;
  int64_t requests = 0;
  int64_t hits = 0;
  int64_t failed = 0;

  void Record(double us, bool hit_path) {
    all.Record(us);
    if (hit_path) {
      hits++;
      hit.Record(us);
    } else {
      miss.Record(us);
    }
  }
  void Merge(const Outcomes& o) {
    all.Merge(o.all);
    hit.Merge(o.hit);
    miss.Merge(o.miss);
    requests += o.requests;
    hits += o.hits;
    failed += o.failed;
  }
};

/// Guards RunResult::Fail from client threads.
struct SharedResult {
  std::mutex mu;
  RunResult* result;
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    result->Fail(what);
  }
};

/// Sends every template's first request once from a single client: the
/// cold-cache priming pass. Returns the CPU seconds the process spent on it
/// (beam searches on the planning pool, inference, admission); one client
/// keeps the pass a fixed sequence of beam searches.
double Prime(ServeStack* stack, const std::vector<std::vector<Request>>& inputs,
             bool sql, SharedResult* shared) {
  const double cpu0 = ProcessCpuSeconds();
  for (const std::vector<Request>& variants : inputs) {
    const Request& r = variants[0];
    auto served = sql ? stack->server->OptimizeSql(r.sql)
                      : stack->server->Optimize(r.query);
    if (!served.ok()) shared->Fail("priming: " + served.status().ToString());
  }
  return ProcessCpuSeconds() - cpu0;
}

/// Checks every given (request, served plan) pair against a fresh
/// single-threaded beam search at the same stats_version: the cache entry
/// for the request's fingerprint must equal a fresh TopK of the entry's
/// exemplar (in canonical relation space), and the served plan, mapped into
/// canonical space, must equal that entry — so alias and FROM variants all
/// received one plan. The served plan must also cover its own query and,
/// mapped back through the known FROM permutation, the source template.
/// Records planner per-layer timings into `topk_ms` / `evals`.
void CheckAgainstFreshPlanning(
    const ServeStack& stack,
    const std::vector<std::pair<const Request*, Plan>>& served,
    const std::vector<const Query*>& templates, RunResult* result,
    std::vector<double>* topk_ms, std::vector<double>* evals) {
  std::unordered_map<uint64_t, std::shared_ptr<const CachedPlan>> entries;
  for (const PlanCache::HotEntry& e :
       stack.server->cache().HottestEntries(1 << 20)) {
    entries[e.fingerprint] = e.entry;
  }
  BeamSearchPlanner fresh(&stack.env->schema(), stack.featurizer.get(),
                          stack.network.get(), stack.planner);
  const int64_t version = stack.server->stats_version();
  std::unordered_set<uint64_t> planned;  // fingerprints already re-planned
  for (const auto& [request, plan] : served) {
    const Query& query = request->query;
    Status covers = CheckPlanCoversQuery(query, plan);
    if (!covers.ok()) {
      result->Fail(covers.ToString());
      continue;
    }
    if (!request->from_order.empty()) {
      const Query& source = *templates[static_cast<size_t>(
          request->template_idx)];
      Status back = CheckPlanCoversQuery(
          source, RemapPlanRelations(plan, request->from_order));
      if (!back.ok()) result->Fail("mapped to its template: " + back.ToString());
    }
    const CanonicalQuery canonical = CanonicalizeQuery(query);
    auto it = entries.find(canonical.fingerprint);
    if (it == entries.end() || it->second->stats_version != version) {
      result->Fail("no current cache entry for a served query of " +
                   query.name());
      continue;
    }
    const CachedPlan& entry = *it->second;
    Status same = CheckSamePlan(
        RemapPlanRelations(plan, canonical.canonical_rank), entry.plan,
        query.name() + " (variant vs cached entry)");
    if (!same.ok()) result->Fail(same.ToString());
    if (!planned.insert(canonical.fingerprint).second) continue;
    const Clock::time_point start = Clock::now();
    auto topk = fresh.TopK(*entry.exemplar);
    topk_ms->push_back(SecondsSince(start) * 1000.0);
    if (!topk.ok() || topk->plans.empty()) {
      result->Fail("fresh planning failed for " + query.name());
      continue;
    }
    evals->push_back(static_cast<double>(topk->network_evals));
    const Plan expected = RemapPlanRelations(topk->plans[0].plan,
                                             entry.canonical_rank);
    Status fresh_same = CheckSamePlan(entry.plan, expected,
                                      query.name() + " (fresh TopK)");
    if (!fresh_same.ok()) result->Fail(fresh_same.ToString());
  }
}

/// Per-layer metrics both serving workloads share.
void AddServingLayerMetrics(const ServeStack& stack, const Outcomes& run,
                            const OptimizerServer::Stats& before,
                            const PlanCache::Metrics& cache_before,
                            const InferenceService::Stats& inference_before,
                            const std::vector<double>& topk_ms,
                            const std::vector<double>& evals,
                            RunResult* result) {
  const OptimizerServer& server = *stack.server;
  const OptimizerServer::Stats stats = server.stats();
  const PlanCache::Metrics cache = server.cache().Totals();
  const InferenceService::Stats inference = server.inference()->stats();
  const double requests = static_cast<double>(stats.requests - before.requests);
  const double misses = static_cast<double>(stats.misses - before.misses);
  auto stage = [&](obs::TraceStage s) {
    return server.tracer().stage_histogram(s).Snapshot().Mean();
  };
  result->Add("serving.stage_fingerprint_us",
              stage(obs::TraceStage::kFingerprint), "us");
  result->Add("serving.stage_cache_lookup_us",
              stage(obs::TraceStage::kCacheLookup), "us");
  result->Add("serving.stage_beam_search_us",
              stage(obs::TraceStage::kBeamSearch), "us");
  result->Add("serving.stage_admit_us", stage(obs::TraceStage::kAdmit), "us");
  result->Add("serving.queue_wait_us",
              server.pool_wait_histogram().Snapshot().Mean(), "us");
  result->Add("serving.hit_ratio",
              requests > 0 ? static_cast<double>(stats.hits - before.hits) /
                                 requests
                           : 0,
              "ratio");
  result->Add("serving.coalesced_ratio",
              misses > 0 ? static_cast<double>(stats.coalesced -
                                               before.coalesced) /
                               misses
                         : 0,
              "ratio");
  result->Add("serving.beam_searches_per_1k",
              requests > 0 ? 1000.0 *
                                 static_cast<double>(stats.planned -
                                                     before.planned) /
                                 requests
                           : 0,
              "count");
  result->Add("serving.lru_evictions_per_1k",
              requests > 0 ? 1000.0 *
                                 static_cast<double>(cache.lru_evictions -
                                                     cache_before.lru_evictions) /
                                 requests
                           : 0,
              "count");
  result->Add("serving.hit_p50_us", run.hit.Percentile(50), "us");
  result->Add("serving.hit_p99_us", run.hit.Percentile(99), "us");
  result->Add("serving.miss_p50_ms", run.miss.Percentile(50) / 1000.0, "ms");
  result->Add("serving.miss_p99_ms", run.miss.Percentile(99) / 1000.0, "ms");
  const double batches = static_cast<double>(inference.forward_batches -
                                             inference_before.forward_batches);
  result->Add("runtime.items_per_batch",
              batches > 0 ? static_cast<double>(inference.items -
                                                inference_before.items) /
                                batches
                          : 0,
              "count");
  result->Add("runtime.batch_serve_us",
              server.inference()->batch_serve_us_histogram().Snapshot().Mean(),
              "us");
  double topk_total_s = 0;
  for (double ms : topk_ms) topk_total_s += ms / 1000.0;
  double evals_total = 0;
  for (double e : evals) evals_total += e;
  result->Add("planner.topk_ms", Median(topk_ms), "ms");
  result->Add("planner.evals_per_query", Mean(evals), "count");
  result->Add("planner.evals_per_s",
              topk_total_s > 0 ? evals_total / topk_total_s : 0, "1/s");
}

/// Forward-pass cost over plans for the first templates.
void AddForwardProbe(const ServeStack& stack, RunResult* result) {
  std::vector<const Query*> queries(stack.templates.begin(),
                                    stack.templates.begin() + 8);
  AddModelForwardProbe(*stack.featurizer, *stack.network, queries,
                       stack.planner, result);
}

struct ServeRun {
  std::unique_ptr<ServeStack> stack;
  double setup_s = 0;
  double warmup_s = 0;
};

/// Builds and primes the stack kSetUps times (set-up and warm-up are the
/// medians, in process CPU seconds); keeps the last one.
StatusOr<ServeRun> SetUp(const ServeStackOptions& stack_options,
                         const std::vector<std::vector<Request>>& inputs,
                         bool sql, SharedResult* shared) {
  constexpr int kSetUps = 5;
  std::vector<double> setups, warmups;
  ServeRun run;
  for (int rep = 0; rep < kSetUps; ++rep) {
    run.stack.reset();
    const double cpu0 = ProcessCpuSeconds();
    BALSA_ASSIGN_OR_RETURN(run.stack, MakeServeStack(stack_options));
    setups.push_back(ProcessCpuSeconds() - cpu0);
    warmups.push_back(Prime(run.stack.get(), inputs, sql, shared));
  }
  run.setup_s = Median(setups);
  run.warmup_s = Median(warmups);
  return run;
}

/// `cpu_s`: process CPU seconds over the measured window. Throughput is per
/// CPU second, and request latencies are printed but not reported: on a
/// shared host, steal moves the wall-clock throughput and latency of these
/// CPU-bound loops by up to 2x between runs, their CPU cost per request by
/// a few percent.
void AddEndToEnd(const ServeRun& run, const Outcomes& total, double cpu_s,
                 RunResult* result) {
  result->Add("setup_s", run.setup_s, "s");
  result->Add("warmup_s", run.warmup_s, "s");
  result->Add("ops_per_cpu_s", static_cast<double>(total.requests) / cpu_s,
              "1/s");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace

RunResult RunServeHot(const RunOptions& options) {
  RunResult result;
  SharedResult shared{{}, &result};
  constexpr int kVariants = 8;
  const int clients = options.threads;

  // Inputs: kVariants seeded renderings of every template. Rendering uses a
  // throwaway environment (schemas are identical across set-ups).
  ServeStackOptions stack_options;
  stack_options.planning_threads = options.threads;
  stack_options.trace = options.trace;
  auto probe = MakeServeStack(stack_options);
  if (!probe.ok()) {
    result.Fail(probe.status().ToString());
    return result;
  }
  const Schema& probe_schema = (*probe)->env->schema();
  std::vector<std::vector<Request>> inputs((*probe)->templates.size());
  Rng render_rng(options.seed * 0x9E3779B97F4A7C15ULL + 11);
  for (size_t t = 0; t < inputs.size(); ++t) {
    const Query& source = *(*probe)->templates[t];
    const uint64_t source_fp = QueryFingerprint(source);
    for (int v = 0; v < kVariants; ++v) {
      Request r;
      r.template_idx = static_cast<int>(t);
      SqlVariant variant = RenderSql(probe_schema, source, &render_rng);
      r.sql = std::move(variant.sql);
      r.from_order = std::move(variant.from_order);
      auto parsed = ParseSql(probe_schema, r.sql, source.name());
      if (!parsed.ok()) {
        result.Fail("rendered SQL does not parse: " + r.sql);
        return result;
      }
      r.query = std::move(parsed).value();
      // Round trip: the rendering is the same planning problem.
      if (QueryFingerprint(r.query) != source_fp) {
        result.Fail("rendered SQL changes the fingerprint of " +
                    source.name() + ": " + r.sql);
      }
      inputs[t].push_back(std::move(r));
    }
  }
  probe->reset();
  if (!result.correct) return result;

  auto set_up = SetUp(stack_options, inputs, /*sql=*/true, &shared);
  if (!set_up.ok()) {
    result.Fail(set_up.status().ToString());
    return result;
  }
  ServeRun run = std::move(set_up).value();
  ServeStack& stack = *run.stack;
  const OptimizerServer::Stats stats_before = stack.server->stats();
  const PlanCache::Metrics cache_before = stack.server->cache().Totals();
  const InferenceService::Stats inference_before =
      stack.server->inference()->stats();

  // --- Measured closed loop ---------------------------------------------------
  const size_t num_requests = inputs.size() * kVariants;
  std::vector<Outcomes> outcomes(static_cast<size_t>(clients));
  // First plan each client received per request, for the post-run checks.
  std::vector<std::vector<std::optional<Plan>>> first_plan(
      static_cast<size_t>(clients),
      std::vector<std::optional<Plan>>(num_requests));
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const double cpu0 = ProcessCpuSeconds(), steal0 = StealSeconds();
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(options.seed * 1000003ULL + static_cast<uint64_t>(c) + 1);
      ZipfGenerator popularity(inputs.size(), kZipfSkew);
      Outcomes& out = outcomes[static_cast<size_t>(c)];
      std::vector<std::optional<Plan>>& firsts =
          first_plan[static_cast<size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t t = popularity.Sample(&rng);
        const size_t v = rng.Uniform(kVariants);
        const Request& r = inputs[t][v];
        const Clock::time_point t0 = Clock::now();
        auto served = stack.server->OptimizeSql(r.sql);
        const Clock::time_point t1 = Clock::now();
        out.requests++;
        if (!served.ok()) {
          out.failed++;
          continue;
        }
        out.Record(MicrosBetween(t0, t1), served->cache_hit);
        std::optional<Plan>& first = firsts[t * kVariants + v];
        if (!first.has_value()) {
          first = served->plan;
        } else if ((out.requests & 63) == 0 &&
                   first->Fingerprint() != served->plan.Fingerprint()) {
          shared.Fail("one client received two plans for " + r.query.name());
        }
      }
    });
  }
  while (SecondsSince(start) < options.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  const double wall_s = SecondsSince(start);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  Outcomes total;
  for (const Outcomes& o : outcomes) total.Merge(o);
  result.attempted = total.requests;
  result.failed = total.failed;
  std::printf("serve_hot: %lld requests in %.2f s (%.0f req/s), %lld hits, "
              "hit p50 %.2f us p99 %.2f us; cpu %.2f s, machine steal %.2f s\n",
              static_cast<long long>(total.requests), wall_s,
              static_cast<double>(total.requests) / wall_s,
              static_cast<long long>(total.hits), total.hit.Percentile(50),
              total.hit.Percentile(99), cpu_s, StealSeconds() - steal0);

  // --- Checks -------------------------------------------------------------------
  std::vector<std::pair<const Request*, Plan>> served;
  for (int c = 0; c < clients; ++c) {
    for (size_t i = 0; i < num_requests; ++i) {
      const std::optional<Plan>& p = first_plan[static_cast<size_t>(c)][i];
      if (p.has_value()) {
        served.push_back({&inputs[i / kVariants][i % kVariants], *p});
      }
    }
  }
  std::vector<double> topk_ms, evals;
  CheckAgainstFreshPlanning(stack, served, stack.templates, &result, &topk_ms,
                            &evals);
  if (total.hits != total.requests - total.failed) {
    result.Fail("primed serve_hot saw " +
                std::to_string(total.requests - total.hits) + " non-hits");
  }

  if (!options.trace) {
    AddEndToEnd(run, total, cpu_s, &result);
    return result;
  }

  // --- Per-layer: single-threaded replay of the same traffic -------------------
  AddServingLayerMetrics(stack, total, stats_before, cache_before,
                         inference_before, topk_ms, evals, &result);
  std::vector<double> parse_us, canon_us;
  double canon_allocs = 0, hit_allocs = 0;
  Rng rng(options.seed + 77);
  ZipfGenerator popularity(inputs.size(), kZipfSkew);
  constexpr int kReplay = 4000;
  for (int i = 0; i < kReplay; ++i) {
    const Request& r =
        inputs[popularity.Sample(&rng)][rng.Uniform(kVariants)];
    ScopedSpan request_span("request", i);
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("sql.ParseSql");
      auto parsed = ParseSql(stack.env->schema(), r.sql);
      if (!parsed.ok()) result.Fail("replay parse failed");
    }
    parse_us.push_back(MicrosBetween(t0, Clock::now()));
    int64_t a0 = ThreadAllocations();
    t0 = Clock::now();
    {
      ScopedSpan span("serving.CanonicalizeQuery");
      CanonicalQuery c = CanonicalizeQuery(r.query);
      (void)c;
    }
    canon_us.push_back(MicrosBetween(t0, Clock::now()));
    canon_allocs += static_cast<double>(ThreadAllocations() - a0);
    a0 = ThreadAllocations();
    {
      ScopedSpan span("serving.OptimizeSql");
      auto hit = stack.server->OptimizeSql(r.sql);
      if (!hit.ok() || !hit->cache_hit) result.Fail("replay request missed");
    }
    hit_allocs += static_cast<double>(ThreadAllocations() - a0);
  }
  result.Add("sql.parse_us", Median(parse_us), "us");
  result.Add("serving.canonicalize_us", Median(canon_us), "us");
  result.Add("serving.canonicalize_allocs", canon_allocs / kReplay, "count");
  result.Add("serving.hit_allocs", hit_allocs / kReplay, "count");
  AddForwardProbe(stack, &result);
  const double request_s = SpanSeconds("request");
  std::printf("coverage: parse + canonicalize + OptimizeSql spans cover "
              "%.1f%% of replayed request time\n",
              100.0 *
                  (SpanSeconds("sql.ParseSql") +
                   SpanSeconds("serving.CanonicalizeQuery") +
                   SpanSeconds("serving.OptimizeSql")) /
                  request_s);
  return result;
}

RunResult RunServeDrift(const RunOptions& options) {
  RunResult result;
  SharedResult shared{{}, &result};
  constexpr int kRounds = 8;
  // One request in kHotEvery repeats a primed query; the rest carry freshly
  // redrawn literals and miss. The hit share is then a property of the
  // traffic, not of how many requests the server got through.
  constexpr uint64_t kHotEvery = 4;
  const int clients = std::max(1, options.threads - 1);

  ServeStackOptions stack_options;
  // Clients mostly wait; planning threads plus the inference worker then
  // fill the cores without oversubscribing them.
  stack_options.planning_threads = std::max(1, options.threads - 1);
  stack_options.drift = true;
  stack_options.trace = options.trace;

  // Inputs: the templates and each filter column's domain size; the hot set
  // is one literal redraw per template.
  auto probe = MakeServeStack(stack_options);
  if (!probe.ok()) {
    result.Fail(probe.status().ToString());
    return result;
  }
  std::vector<Query> sources;
  std::vector<std::vector<int64_t>> domains;
  for (const Query* q : (*probe)->templates) {
    sources.push_back(*q);
    std::vector<int64_t> d;
    for (const FilterPredicate& f : q->filters()) {
      const int table =
          q->relations()[static_cast<size_t>(f.col.relation)].table_idx;
      d.push_back(std::max<int64_t>(
          1, (*probe)->env->schema()
                 .table(table)
                 .columns[static_cast<size_t>(f.col.column)]
                 .domain_size));
    }
    domains.push_back(std::move(d));
  }
  probe->reset();
  // Every filter literal of template t drawn uniformly from its domain.
  auto redraw = [&](size_t t, Rng* rng) {
    const Query& source = sources[t];
    std::vector<FilterPredicate> filters = source.filters();
    for (size_t i = 0; i < filters.size(); ++i) {
      const uint64_t domain = static_cast<uint64_t>(domains[t][i]);
      filters[i].value = static_cast<int64_t>(rng->Uniform(domain));
      for (int64_t& value : filters[i].in_values) {
        value = static_cast<int64_t>(rng->Uniform(domain));
      }
    }
    return Query(source.name(), source.relations(), source.joins(),
                 std::move(filters));
  };
  std::vector<std::vector<Request>> inputs(sources.size());
  Rng draw(options.seed * 0x9E3779B97F4A7C15ULL + 23);
  for (size_t t = 0; t < sources.size(); ++t) {
    Request r;
    r.template_idx = static_cast<int>(t);
    r.query = redraw(t, &draw);
    inputs[t].push_back(std::move(r));
  }
  auto set_up = SetUp(stack_options, inputs, /*sql=*/false, &shared);
  if (!set_up.ok()) {
    result.Fail(set_up.status().ToString());
    return result;
  }
  ServeRun run = std::move(set_up).value();
  ServeStack& stack = *run.stack;
  Database& db = *stack.env->db;
  const Schema& schema = stack.env->schema();

  DriftScenarioOptions drift_options;
  drift_options.seed = options.seed;
  drift_options.batches_per_table = kRounds;
  auto scenario_or = GenerateDriftScenario(db, drift_options);
  if (!scenario_or.ok()) {
    result.Fail(scenario_or.status().ToString());
    return result;
  }
  const DriftScenario scenario = std::move(scenario_or).value();
  // Expected final row counts, computed from the scenario itself.
  std::vector<int64_t> expected_rows(
      static_cast<size_t>(schema.num_tables()));
  std::vector<std::vector<const DriftBatch*>> rounds(kRounds);
  {
    const Snapshot snap = db.GetSnapshot();
    for (int t = 0; t < schema.num_tables(); ++t) {
      expected_rows[static_cast<size_t>(t)] = snap.row_count(t);
    }
    std::vector<int> per_table(static_cast<size_t>(schema.num_tables()), 0);
    for (const DriftBatch& b : scenario.batches) {
      expected_rows[static_cast<size_t>(b.table)] +=
          static_cast<int64_t>(b.inserts.size()) -
          static_cast<int64_t>(b.delete_rows.size());
      int& k = per_table[static_cast<size_t>(b.table)];
      rounds[static_cast<size_t>(std::min(k, kRounds - 1))].push_back(&b);
      k++;
    }
  }

  const OptimizerServer::Stats stats_before = stack.server->stats();
  const PlanCache::Metrics cache_before = stack.server->cache().Totals();
  const InferenceService::Stats inference_before =
      stack.server->inference()->stats();
  const int64_t publications_before = db.storage_stats().publications;

  // --- Measured: clients + scheduled writer ----------------------------------
  std::vector<Outcomes> outcomes(static_cast<size_t>(clients));
  std::vector<double> ingest_ms, ingest_rows_us;
  int64_t ingest_rows = 0;
  double ingest_total_us = 0;
  std::vector<double> pass_ms;
  int64_t writer_ops = 0, writer_failed = 0;
  std::atomic<bool> stop{false};
  const double cpu0 = ProcessCpuSeconds(), steal0 = StealSeconds();
  const Clock::time_point start = Clock::now();
  const double period_s = options.seconds / kRounds;
  std::thread writer([&] {
    for (int r = 0; r < kRounds; ++r) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(period_s * r));
      std::this_thread::sleep_until(due);
      for (const DriftBatch* b : rounds[static_cast<size_t>(r)]) {
        ScopedSpan span("storage.ChangeLog.batch");
        const Clock::time_point t0 = Clock::now();
        Status s = stack.log->InsertRows(b->table, b->inserts);
        if (s.ok()) s = stack.log->DeleteRows(b->table, b->delete_rows);
        for (const auto& [column, updates] : b->updates) {
          if (s.ok()) s = stack.log->UpdateValues(b->table, column, updates);
        }
        const Clock::time_point t1 = Clock::now();
        writer_ops++;
        if (!s.ok()) {
          writer_failed++;
          shared.Fail("ingest: " + s.ToString());
          continue;
        }
        ingest_ms.push_back(MicrosBetween(due, t1) / 1000.0);
        int64_t rows = static_cast<int64_t>(b->inserts.size() +
                                            b->delete_rows.size());
        for (const auto& [column, updates] : b->updates) {
          rows += static_cast<int64_t>(updates.size());
        }
        ingest_rows += rows;
        ingest_total_us += MicrosBetween(t0, t1);
      }
      ScopedSpan span("adaptive.RunOnce");
      const Clock::time_point t0 = Clock::now();
      ReanalyzeScheduler::PassReport report = stack.scheduler->RunOnce();
      pass_ms.push_back(SecondsSince(t0) * 1000.0);
      writer_ops++;
      if (report.errors > 0) {
        writer_failed++;
        shared.Fail("re-ANALYZE pass reported errors");
      }
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(options.seed * 1000003ULL + static_cast<uint64_t>(c) + 1);
      ZipfGenerator popularity(inputs.size(), kZipfSkew);
      Outcomes& out = outcomes[static_cast<size_t>(c)];
      int64_t request_id = static_cast<int64_t>(c) << 40;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t t = popularity.Sample(&rng);
        std::optional<Query> fresh;
        if (rng.Uniform(kHotEvery) != 0) fresh = redraw(t, &rng);
        const Query& query = fresh.has_value() ? *fresh : inputs[t][0].query;
        ScopedSpan span("serving.Optimize", request_id++);
        const int64_t issued_version = stack.server->stats_version();
        const Clock::time_point t0 = Clock::now();
        auto served = stack.server->Optimize(query);
        const Clock::time_point t1 = Clock::now();
        out.requests++;
        if (!served.ok()) {
          out.failed++;
          continue;
        }
        out.Record(MicrosBetween(t0, t1), served->cache_hit);
        Status current =
            CheckFreshVersion(issued_version, served->stats_version);
        if (!current.ok()) shared.Fail(current.ToString());
        Status covers = CheckPlanCoversQuery(query, served->plan);
        if (!covers.ok()) shared.Fail(covers.ToString());
      }
    });
  }
  while (SecondsSince(start) < options.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  const double wall_s = SecondsSince(start);
  writer.join();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  Outcomes total;
  for (const Outcomes& o : outcomes) total.Merge(o);
  result.attempted = total.requests + writer_ops;
  result.failed = total.failed + writer_failed;
  std::printf("serve_drift: %lld requests in %.2f s (%.0f req/s), %lld hits; "
              "p50 %.3f ms p99 %.3f ms; hit p50 %.2f us, miss p50 %.3f ms "
              "p99 %.3f ms; ingest p50 %.3f ms; stats_version %lld; "
              "cpu %.2f s, machine steal %.2f s\n",
              static_cast<long long>(total.requests), wall_s,
              static_cast<double>(total.requests) / wall_s,
              static_cast<long long>(total.hits),
              total.all.Percentile(50) / 1000.0,
              total.all.Percentile(99) / 1000.0, total.hit.Percentile(50),
              total.miss.Percentile(50) / 1000.0,
              total.miss.Percentile(99) / 1000.0, Median(ingest_ms),
              static_cast<long long>(stack.server->stats_version()),
              cpu_s, StealSeconds() - steal0);

  // --- Checks -------------------------------------------------------------------
  for (int t = 0; t < schema.num_tables(); ++t) {
    if (db.row_count(t) != expected_rows[static_cast<size_t>(t)]) {
      result.Fail("table " + schema.table(t).name + " has " +
                  std::to_string(db.row_count(t)) + " rows, scenario says " +
                  std::to_string(expected_rows[static_cast<size_t>(t)]));
    }
  }
  if (stack.scheduler->counters().bumps == 0) {
    result.Fail("the drift scenario never bumped the statistics version");
  }
  // Quiescent: every template's first redraw at the final statistics.
  std::vector<std::pair<const Request*, Plan>> served;
  for (const std::vector<Request>& variants : inputs) {
    auto r = stack.server->Optimize(variants[0].query);
    if (!r.ok()) {
      result.Fail("post-run request failed: " + r.status().ToString());
      continue;
    }
    served.push_back({&variants[0], r->plan});
  }
  std::vector<double> topk_ms, evals;
  CheckAgainstFreshPlanning(stack, served, stack.templates, &result, &topk_ms,
                            &evals);

  if (!options.trace) {
    AddEndToEnd(run, total, cpu_s, &result);
    return result;
  }
  AddServingLayerMetrics(stack, total, stats_before, cache_before,
                         inference_before, topk_ms, evals, &result);
  // SQL parsing and the hit path belong to serve_hot; canonicalization is
  // still timed here, on the redrawn queries.
  std::vector<double> canon_us;
  double canon_allocs = 0;
  for (size_t t = 0; t < inputs.size(); ++t) {
    const Query& q = inputs[t][0].query;
    const int64_t a0 = ThreadAllocations();
    const Clock::time_point t0 = Clock::now();
    CanonicalQuery c = CanonicalizeQuery(q);
    (void)c;
    canon_us.push_back(MicrosBetween(t0, Clock::now()));
    canon_allocs += static_cast<double>(ThreadAllocations() - a0);
  }
  result.Add("serving.canonicalize_us", Median(canon_us), "us");
  result.Add("serving.canonicalize_allocs",
             canon_allocs / static_cast<double>(inputs.size()), "count");
  AddForwardProbe(stack, &result);
  result.Add("storage.ingest_us_per_row",
             ingest_rows > 0 ? ingest_total_us /
                                   static_cast<double>(ingest_rows)
                             : 0,
             "us");
  result.Add("storage.ingest_batch_p50_ms", Median(ingest_ms), "ms");
  result.Add("adaptive.pass_ms", Median(pass_ms), "ms");
  result.Add("storage.publications",
             static_cast<double>(db.storage_stats().publications -
                                 publications_before),
             "count");
  result.Add("adaptive.rewarm_replans",
             static_cast<double>(stack.scheduler->counters().rewarm_replans),
             "count");
  return result;
}

}  // namespace balsa::perfbench
