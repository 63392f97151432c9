// The learn workload: the paper's own path. A BalsaAgent on the JOB random
// split (94 train / 19 test) against the PostgresLike engine, bootstrapped
// from the C_out simulator, with the bench-default planner (b = 10, k = 5)
// and nproc threads: Bootstrap, then a fixed number of RunIterations, then
// EvaluateWorkload on train and test, normalised by the DP expert.
//
// The run seed drives the engine's latency-noise stream (the environment
// the agent learns from); data, split and agent initialisation are fixed.
// For a fixed seed every learned plan, and therefore both speedups, is
// identical at any thread count.
#include <cstdio>
#include <memory>
#include <optional>

#include "perfbench/bench.h"
#include "src/balsa/agent.h"
#include "src/balsa/simulation.h"
#include "src/harness/env.h"
#include "src/harness/runner.h"
#include "src/runtime/inference_service.h"
#include "src/runtime/parallel_executor.h"

namespace balsa::perfbench {

void AddModelForwardProbe(const Featurizer& featurizer,
                          const ValueNetwork& network,
                          const std::vector<const Query*>& queries,
                          const PlannerOptions& planner_options,
                          RunResult* result) {
  BeamSearchPlanner planner(&featurizer.schema(), &featurizer, &network,
                            planner_options);
  std::vector<nn::Vec> query_features;
  std::vector<nn::TreeSample> plan_features;
  for (const Query* q : queries) {
    auto planned = planner.TopK(*q);
    if (!planned.ok()) continue;
    for (const BeamSearchPlanner::ScoredPlan& p : planned->plans) {
      query_features.push_back(featurizer.QueryFeatures(*q));
      plan_features.push_back(featurizer.PlanFeatures(*q, p.plan));
    }
  }
  if (plan_features.empty()) {
    result->Fail("forward probe found no plans");
    return;
  }
  auto per_item_us = [&](size_t batch) {
    std::vector<double> samples;
    for (int rep = 0; rep < 64; ++rep) {
      std::vector<const nn::Vec*> qs;
      std::vector<const nn::TreeSample*> ps;
      for (size_t i = 0; i < batch; ++i) {
        const size_t k = (rep * batch + i) % plan_features.size();
        qs.push_back(&query_features[k]);
        ps.push_back(&plan_features[k]);
      }
      ScopedSpan span("model.ForwardBatch");
      const Clock::time_point t0 = Clock::now();
      std::vector<double> scores = network.ForwardBatch(qs, ps);
      samples.push_back(MicrosBetween(t0, Clock::now()) /
                        static_cast<double>(batch));
      if (scores.size() != batch) result->Fail("ForwardBatch size mismatch");
    }
    return Median(samples);
  };
  result->Add("model.forward_us_per_item_b1", per_item_us(1), "us");
  result->Add("model.forward_us_per_item_b32", per_item_us(32), "us");
}

namespace {

constexpr int kIterations = 10;
constexpr double kDataScale = 0.1;
/// The executor's row cap scaled with the data (4M rows at scale 1.0), so
/// a disastrous plan is cut off at the same relative size.
constexpr int64_t kRowCap = 400'000;

/// Everything one learning run owns. Declared so the agent (which borrows
/// the engine and the environment) is destroyed first.
struct LearnStack {
  std::unique_ptr<Env> env;
  std::unique_ptr<CardOracle> oracle;       // row cap scaled to the data
  std::unique_ptr<ExecutionEngine> engine;  // seeded latency noise
  ExpertBaseline train_expert, test_expert;
  std::vector<double> expert_optimize_ms;
  std::unique_ptr<BalsaAgent> agent;
};

StatusOr<std::unique_ptr<LearnStack>> MakeLearnStack(
    const RunOptions& options) {
  auto stack = std::make_unique<LearnStack>();
  EnvOptions env_options;
  env_options.data_scale = kDataScale;
  BALSA_ASSIGN_OR_RETURN(stack->env,
                         MakeEnv(WorkloadKind::kJobRandomSplit, env_options));
  Env& env = *stack->env;
  ExecutorOptions exec_options;
  exec_options.row_cap = kRowCap;
  stack->oracle = std::make_unique<CardOracle>(env.db.get(), exec_options);
  EngineOptions engine_options = PostgresLikeEngineOptions();
  engine_options.noise_seed = options.seed;
  stack->engine = std::make_unique<ExecutionEngine>(
      env.db.get(), stack->oracle.get(), engine_options);
  // Expert baseline: DP plan and noiseless runtime per query, timing the
  // optimizer itself separately from the oracle-backed runtime.
  for (bool test : {false, true}) {
    ExpertBaseline& baseline = test ? stack->test_expert : stack->train_expert;
    for (const Query* q : test ? env.workload.TestQueries()
                               : env.workload.TrainQueries()) {
      const Clock::time_point t0 = Clock::now();
      StatusOr<OptimizedPlan> plan = [&] {
        ScopedSpan span("expert.DpOptimizer.Optimize");
        return env.pg_expert->Optimize(*q);
      }();
      stack->expert_optimize_ms.push_back(SecondsSince(t0) * 1000.0);
      if (!plan.ok()) return plan.status();
      BALSA_ASSIGN_OR_RETURN(double ms,
                             stack->engine->NoiselessLatency(*q, plan->plan));
      baseline.plans.push_back(std::move(plan->plan));
      baseline.runtimes_ms.push_back(ms);
      baseline.total_ms += ms;
    }
  }
  BenchFlags flags;
  flags.iters = kIterations;
  flags.threads = options.threads;
  BalsaAgentOptions agent_options = DefaultBenchAgentOptions(flags);
  agent_options.eval_test_every = 0;  // evaluated once, after the schedule
  stack->agent = std::make_unique<BalsaAgent>(
      &env.schema(), stack->engine.get(), env.cout_model.get(),
      env.estimator.get(), &env.workload, agent_options);
  return stack;
}

/// Per-iteration stage replay through the public calls (traced runs only):
/// plan every training query with the agent's current network, execute the
/// best plans on a cold oracle, and take one update step on a copy of the
/// network with this iteration's data. Nothing here touches the agent.
struct StageReplay {
  double plan_s = 0, execute_s = 0, update_s = 0;
  std::vector<double> topk_ms, evals, execute_ms;
  double train_samples = 0, train_s = 0;
  InferenceService::Stats inference;
  double batch_serve_us = 0;
};

void ReplayIteration(LearnStack* stack, int iteration, int threads,
                     StageReplay* replay, RunResult* result) {
  Env& env = *stack->env;
  BalsaAgent& agent = *stack->agent;
  const std::vector<const Query*> queries = env.workload.TrainQueries();
  const ValueNetwork& network = agent.value_network();
  InferenceService service(&network);
  BeamSearchPlanner planner(&env.schema(), &agent.featurizer(), &network,
                            agent.options().planner);
  planner.set_inference_service(&service);
  ParallelExecutor executor(ParallelExecutorOptions{threads});
  std::vector<std::optional<StatusOr<BeamSearchPlanner::PlanningResult>>>
      planned(queries.size());
  std::vector<double> topk_ms(queries.size());
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("learn.plan");
    Status s = executor.ForEach(queries.size(), [&](size_t i) -> Status {
      ScopedSpan topk("planner.TopK");
      const Clock::time_point q0 = Clock::now();
      planned[i] = planner.TopK(*queries[i]);
      topk_ms[i] = SecondsSince(q0) * 1000.0;
      return planned[i]->ok() ? Status::OK() : planned[i]->status();
    });
    if (!s.ok()) result->Fail("replay planning: " + s.ToString());
  }
  replay->plan_s += SecondsSince(t0);
  replay->topk_ms.insert(replay->topk_ms.end(), topk_ms.begin(),
                         topk_ms.end());
  const InferenceService::Stats stats = service.stats();
  replay->inference.items += stats.items;
  replay->inference.forward_batches += stats.forward_batches;
  replay->batch_serve_us += service.batch_serve_us_histogram().Snapshot().Mean();

  ExecutorOptions exec_options;
  exec_options.row_cap = kRowCap;
  CardOracle cold_oracle(env.db.get(), exec_options);
  ExecutionEngine engine(env.db.get(), &cold_oracle,
                         PostgresLikeEngineOptions());
  t0 = Clock::now();
  {
    ScopedSpan span("learn.execute");
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!planned[i].has_value() || !planned[i]->ok()) continue;
      replay->evals.push_back(
          static_cast<double>((*planned[i])->network_evals));
      ScopedSpan exec("engine.Execute");
      const Clock::time_point e0 = Clock::now();
      auto executed = engine.Execute(*queries[i], (*planned[i])->plans[0].plan);
      replay->execute_ms.push_back(SecondsSince(e0) * 1000.0);
      if (!executed.ok()) result->Fail("replay execute: " +
                                       executed.status().ToString());
    }
  }
  replay->execute_s += SecondsSince(t0);

  t0 = Clock::now();
  {
    ScopedSpan span("learn.update");
    std::vector<TrainingPoint> data = agent.experience().BuildDataset(
        agent.featurizer(), env.workload, iteration);
    ValueNetwork copy = network;
    ValueNetwork::TrainOptions train = agent.options().real_train;
    train.shuffle_seed = 1000 + static_cast<uint64_t>(iteration);
    const Clock::time_point f0 = Clock::now();
    ValueNetwork::TrainResult trained = [&] {
      ScopedSpan fit("model.Train");
      return copy.Train(data, train);
    }();
    replay->train_s += SecondsSince(f0);
    replay->train_samples += static_cast<double>(trained.sgd_samples);
  }
  replay->update_s += SecondsSince(t0);
}

/// Root true cardinality of executed plans on small queries equals an
/// independent naive count over the same snapshot.
void CheckExecutedCardinalities(LearnStack* stack, RunResult* result) {
  Env& env = *stack->env;
  const Snapshot snapshot = env.db->GetSnapshot();
  int checked = 0;
  std::vector<bool> seen(static_cast<size_t>(env.workload.num_queries()));
  for (const Execution& e : stack->agent->experience().executions()) {
    const Query& q = env.workload.query(e.query_id);
    if (q.num_relations() > 5 || seen[static_cast<size_t>(e.query_id)]) {
      continue;
    }
    seen[static_cast<size_t>(e.query_id)] = true;
    auto cards = stack->oracle->PlanCardinalities(q, e.plan);
    if (!cards.ok()) {
      result->Fail("oracle: " + cards.status().ToString());
      continue;
    }
    const TrueCard& root = (*cards)[static_cast<size_t>(e.plan.root())];
    if (root.capped) continue;
    const int64_t naive = NaiveJoinCount(snapshot, q, 2'000'000);
    if (naive < 0) continue;
    Status s = CheckCardinality(q, root.rows, naive);
    if (!s.ok()) result->Fail(s.ToString());
    if (++checked >= 12) break;
  }
  if (checked < 3) {
    result->Fail("only " + std::to_string(checked) +
                 " executed plans were small enough to count naively");
  }
}

}  // namespace

RunResult RunLearn(const RunOptions& options) {
  RunResult result;
  std::vector<double> setups;
  std::unique_ptr<LearnStack> stack;
  for (int rep = 0; rep < 3; ++rep) {
    stack.reset();
    const double cpu0 = ProcessCpuSeconds();
    auto made = MakeLearnStack(options);
    setups.push_back(ProcessCpuSeconds() - cpu0);
    if (!made.ok()) {
      result.Fail(made.status().ToString());
      return result;
    }
    stack = std::move(made).value();
  }
  Env& env = *stack->env;
  BalsaAgent& agent = *stack->agent;

  // --- Bootstrap -----------------------------------------------------------------
  // Learning is compute-bound, so its timings are process CPU seconds: on a
  // shared host, time stolen by other tenants moves wall time by 20-40%
  // between identical runs and CPU time by a few percent. Wall times are
  // printed beside them.
  Clock::time_point t0 = Clock::now();
  double cpu0 = ProcessCpuSeconds();
  Status status;
  {
    ScopedSpan span("balsa.Bootstrap");
    status = agent.Bootstrap();
  }
  const double bootstrap_s = SecondsSince(t0);
  const double bootstrap_cpu_s = ProcessCpuSeconds() - cpu0;
  result.attempted++;
  if (!status.ok()) {
    result.failed++;
    result.Fail("Bootstrap: " + status.ToString());
    return result;
  }

  // --- Iterations ----------------------------------------------------------------
  std::vector<double> iter_s, iter_cpu_s;
  StageReplay replay;
  const double steal0 = StealSeconds();
  const int64_t oracle_before = stack->oracle->NumExecutions();
  int64_t previous_unique = 0;
  for (int i = 0; i < kIterations; ++i) {
    t0 = Clock::now();
    cpu0 = ProcessCpuSeconds();
    {
      ScopedSpan span("balsa.RunIteration", i);
      status = agent.RunIteration();
    }
    iter_s.push_back(SecondsSince(t0));
    iter_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    result.attempted++;
    if (!status.ok()) {
      result.failed++;
      result.Fail("RunIteration: " + status.ToString());
      return result;
    }
    const int64_t unique = agent.curve().back().unique_plans;
    if (unique < previous_unique) result.Fail("unique_plans decreased");
    previous_unique = unique;
    if (options.trace) {
      ReplayIteration(stack.get(), i, options.threads, &replay, &result);
    }
  }
  const int64_t oracle_executions =
      stack->oracle->NumExecutions() - oracle_before;

  // --- Evaluation ----------------------------------------------------------------
  StatusOr<double> train_ms = 0.0, test_ms = 0.0;
  {
    ScopedSpan span("balsa.EvaluateWorkload");
    train_ms = agent.EvaluateWorkload(env.workload.TrainQueries());
    test_ms = agent.EvaluateWorkload(env.workload.TestQueries());
  }
  result.attempted += 2;
  if (!train_ms.ok() || !test_ms.ok()) {
    result.failed += 2;
    result.Fail("EvaluateWorkload failed");
    return result;
  }
  const double train_speedup = stack->train_expert.total_ms / *train_ms;
  const double test_speedup = stack->test_expert.total_ms / *test_ms;
  std::printf("learn: bootstrap %.2f s (cpu %.2f s), iterations", bootstrap_s,
              bootstrap_cpu_s);
  for (double s : iter_s) std::printf(" %.2f", s);
  std::printf(" s (cpu");
  for (double s : iter_cpu_s) std::printf(" %.2f", s);
  std::printf(" s); train speedup %.6f, test speedup %.6f, unique plans %lld; "
              "machine steal %.2f s\n",
              train_speedup, test_speedup,
              static_cast<long long>(previous_unique),
              StealSeconds() - steal0);

  // --- Checks --------------------------------------------------------------------
  for (const Query& q : env.workload.queries()) {
    auto plan = agent.PlanBest(q);
    if (!plan.ok()) {
      result.Fail("PlanBest: " + plan.status().ToString());
      continue;
    }
    Status s = CheckPlanCoversQuery(q, *plan);
    if (!s.ok()) result.Fail("learned " + s.ToString());
  }
  CheckExecutedCardinalities(stack.get(), &result);

  double iter_cpu_total = 0;
  for (double s : iter_cpu_s) iter_cpu_total += s;
  if (!options.trace) {
    result.Add("setup_s", Median(setups), "s");
    result.Add("warmup_s", bootstrap_cpu_s, "s");
    result.Add("ops_per_cpu_s", kIterations / iter_cpu_total, "1/s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  // --- Per-layer ------------------------------------------------------------------
  // Bootstrap replay through the public calls: collect D_sim, fit a fresh
  // network of the agent's architecture on it.
  SimulationOptions sim = agent.options().sim;
  sim.seed += agent.options().seed;
  t0 = Clock::now();
  StatusOr<std::vector<TrainingPoint>> data = [&] {
    ScopedSpan span("sim.CollectSimulationData");
    return CollectSimulationData(env.workload.TrainQueries(), env.schema(),
                                 *env.cout_model, agent.featurizer(), sim);
  }();
  const double collect_s = SecondsSince(t0);
  if (!data.ok()) {
    result.Fail("CollectSimulationData: " + data.status().ToString());
    return result;
  }
  ValueNetwork fresh(agent.options().net);
  ValueNetwork::TrainOptions sim_train = agent.options().sim_train;
  sim_train.shuffle_seed = agent.options().seed + 2;
  t0 = Clock::now();
  ValueNetwork::TrainResult fit = [&] {
    ScopedSpan span("model.Train");
    return fresh.Train(*data, sim_train);
  }();
  const double fit_s = SecondsSince(t0);

  result.Add("sim.collect_s", collect_s, "s");
  result.Add("sim.fit_s", fit_s, "s");
  result.Add("model.train_samples_per_s",
             (static_cast<double>(fit.sgd_samples) + replay.train_samples) /
                 (fit_s + replay.train_s),
             "1/s");
  result.Add("learn.plan_s", replay.plan_s / kIterations, "s");
  result.Add("learn.execute_s", replay.execute_s / kIterations, "s");
  result.Add("learn.update_s", replay.update_s / kIterations, "s");
  result.Add("engine.execute_ms", Mean(replay.execute_ms), "ms");
  result.Add("oracle.executions",
             static_cast<double>(oracle_executions) / kIterations, "count");
  result.Add("expert.optimize_ms", Mean(stack->expert_optimize_ms), "ms");
  double topk_total_s = 0;
  for (double ms : replay.topk_ms) topk_total_s += ms / 1000.0;
  double evals_total = 0;
  for (double e : replay.evals) evals_total += e;
  result.Add("planner.topk_ms", Median(replay.topk_ms), "ms");
  result.Add("planner.evals_per_query", Mean(replay.evals), "count");
  result.Add("planner.evals_per_s",
             topk_total_s > 0 ? evals_total / topk_total_s : 0, "1/s");
  result.Add("runtime.items_per_batch",
             replay.inference.forward_batches > 0
                 ? static_cast<double>(replay.inference.items) /
                       static_cast<double>(replay.inference.forward_batches)
                 : 0,
             "count");
  result.Add("runtime.batch_serve_us", replay.batch_serve_us / kIterations,
             "us");
  std::vector<const Query*> probe_queries = env.workload.TrainQueries();
  probe_queries.resize(8);
  AddModelForwardProbe(agent.featurizer(), agent.value_network(),
                       probe_queries, agent.options().planner, &result);
  result.Add("learn.train_speedup", train_speedup, "x");
  result.Add("learn.test_speedup", test_speedup, "x");
  const double stages = (replay.plan_s + replay.execute_s + replay.update_s) /
                        kIterations;
  std::printf("coverage: collect + fit replay = %.1f%% of bootstrap; "
              "plan + execute + update replay = %.1f%% of the median "
              "iteration\n",
              100.0 * (collect_s + fit_s) / bootstrap_s,
              100.0 * stages / Median(iter_s));
  return result;
}

}  // namespace balsa::perfbench
