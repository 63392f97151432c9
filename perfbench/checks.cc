// The correctness checks every workload applies to its outputs, the
// independent join counter the learn workload checks the oracle against,
// and the self-test that proves each check rejects a seeded fault.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "perfbench/bench.h"
#include "src/plan/query_builder.h"
#include "src/serving/query_fingerprint.h"
#include "src/stats/card_oracle.h"
#include "src/util/logging.h"

namespace balsa::perfbench {

Status CheckPlanCoversQuery(const Query& query, const Plan& plan) {
  if (!plan.Validate()) {
    return Status::Internal("plan for " + query.name() + " fails Validate");
  }
  if (plan.RootTables().bits() != query.AllTables().bits()) {
    return Status::Internal("plan for " + query.name() +
                            " does not cover exactly its relations");
  }
  // Every join must have a join predicate across its cut (no cross
  // products: the planner never proposes one for a connected query).
  for (const PlanNode& node : plan.nodes()) {
    if (!node.is_join) continue;
    if (!query.CanJoin(plan.TablesOf(node.left), plan.TablesOf(node.right))) {
      return Status::Internal("plan for " + query.name() +
                              " joins two sides with no predicate");
    }
  }
  return Status::OK();
}

Status CheckSamePlan(const Plan& served, const Plan& expected,
                     const std::string& what) {
  if (served.Fingerprint() != expected.Fingerprint()) {
    return Status::Internal("served plan differs from fresh planning: " +
                            what);
  }
  return Status::OK();
}

Status CheckFreshVersion(int64_t issued_version, int64_t response_version) {
  if (response_version < issued_version) {
    return Status::Internal(
        "response carries stats_version " + std::to_string(response_version) +
        " older than the version " + std::to_string(issued_version) +
        " current at issue");
  }
  return Status::OK();
}

Status CheckCardinality(const Query& query, double oracle_rows,
                        int64_t naive_rows) {
  if (std::llround(oracle_rows) != naive_rows) {
    return Status::Internal("true cardinality of " + query.name() + " is " +
                            std::to_string(oracle_rows) +
                            " but a naive count gives " +
                            std::to_string(naive_rows));
  }
  return Status::OK();
}

int64_t NaiveJoinCount(const Snapshot& snapshot, const Query& query,
                       int64_t limit) {
  const int n = query.num_relations();
  auto value = [&](int rel, int col, int64_t row) {
    return snapshot.column(query.relations()[static_cast<size_t>(rel)]
                               .table_idx,
                           col)[row];
  };
  auto passes = [&](int rel, int64_t row) {
    for (const FilterPredicate& f : query.filters()) {
      if (f.col.relation != rel) continue;
      const int64_t v = value(rel, f.col.column, row);
      if (v == -1) return false;
      bool ok = false;
      switch (f.op) {
        case PredOp::kEq: ok = v == f.value; break;
        case PredOp::kNe: ok = v != f.value; break;
        case PredOp::kLt: ok = v < f.value; break;
        case PredOp::kLe: ok = v <= f.value; break;
        case PredOp::kGt: ok = v > f.value; break;
        case PredOp::kGe: ok = v >= f.value; break;
        case PredOp::kIn:
          ok = std::find(f.in_values.begin(), f.in_values.end(), v) !=
               f.in_values.end();
          break;
      }
      if (!ok) return false;
    }
    return true;
  };
  auto filtered = [&](int rel) {
    std::vector<int64_t> rows;
    const int64_t count = snapshot.row_count(
        query.relations()[static_cast<size_t>(rel)].table_idx);
    for (int64_t r = 0; r < count; ++r) {
      if (passes(rel, r)) rows.push_back(r);
    }
    return rows;
  };

  // Tuples of row ids, one slot per relation joined so far (-1 = not yet).
  std::vector<std::vector<int64_t>> tuples;
  for (int64_t r : filtered(0)) {
    std::vector<int64_t> t(static_cast<size_t>(n), -1);
    t[0] = r;
    tuples.push_back(std::move(t));
  }
  uint64_t joined = 1;
  for (int step = 1; step < n; ++step) {
    // Next relation: the lowest-numbered one adjacent to the joined set.
    int next = -1;
    for (int rel = 0; rel < n && next < 0; ++rel) {
      if (joined & (1ULL << rel)) continue;
      for (const JoinPredicate& j : query.joins()) {
        const bool l_in = joined & (1ULL << j.left.relation);
        const bool r_in = joined & (1ULL << j.right.relation);
        if ((j.left.relation == rel && r_in) ||
            (j.right.relation == rel && l_in)) {
          next = rel;
          break;
        }
      }
    }
    if (next < 0) return -1;  // disconnected: not a workload query
    // Every predicate between `next` and the joined set, oriented as
    // (joined-side column, next-side column).
    std::vector<std::pair<ColumnRef, ColumnRef>> preds;
    for (const JoinPredicate& j : query.joins()) {
      if (j.left.relation == next && (joined & (1ULL << j.right.relation))) {
        preds.push_back({j.right, j.left});
      } else if (j.right.relation == next &&
                 (joined & (1ULL << j.left.relation))) {
        preds.push_back({j.left, j.right});
      }
    }
    // Hash the next relation's filtered rows on the first predicate's
    // column, then check the remaining predicates per candidate pair.
    std::unordered_map<int64_t, std::vector<int64_t>> index;
    for (int64_t r : filtered(next)) {
      const int64_t key = value(next, preds[0].second.column, r);
      if (key != -1) index[key].push_back(r);
    }
    std::vector<std::vector<int64_t>> out;
    for (const std::vector<int64_t>& t : tuples) {
      const ColumnRef& probe = preds[0].first;
      const int64_t key =
          value(probe.relation, probe.column,
                t[static_cast<size_t>(probe.relation)]);
      if (key == -1) continue;
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (int64_t r : it->second) {
        bool match = true;
        for (size_t p = 1; p < preds.size() && match; ++p) {
          const int64_t a =
              value(preds[p].first.relation, preds[p].first.column,
                    t[static_cast<size_t>(preds[p].first.relation)]);
          const int64_t b = value(next, preds[p].second.column, r);
          match = a != -1 && b != -1 && a == b;
        }
        if (!match) continue;
        if (static_cast<int64_t>(out.size()) >= limit) return -1;
        std::vector<int64_t> extended = t;
        extended[static_cast<size_t>(next)] = r;
        out.push_back(std::move(extended));
      }
    }
    tuples = std::move(out);
    joined |= 1ULL << next;
  }
  return static_cast<int64_t>(tuples.size());
}

// --- Self-test ----------------------------------------------------------------

namespace {

/// A three-table chain a-b-c over a tiny schema with hand-made data.
struct TinyDb {
  std::unique_ptr<Database> db;
  Query query;
};

TinyDb MakeTinyDb() {
  Schema schema;
  auto add = [&](const std::string& name, int64_t rows,
                 std::vector<std::string> cols) {
    TableDef def;
    def.name = name;
    def.row_count = rows;
    for (const std::string& c : cols) {
      ColumnDef col;
      col.name = c;
      def.columns.push_back(col);
    }
    BALSA_CHECK(schema.AddTable(def).ok(), "self-test schema");
  };
  add("a", 4, {"id", "v"});
  add("b", 6, {"a_id", "c_id"});
  add("c", 3, {"id", "w"});
  TinyDb tiny;
  tiny.db = std::make_unique<Database>(std::move(schema));
  auto set = [&](int t, std::vector<std::vector<int64_t>> cols) {
    TableData data;
    data.row_count = static_cast<int64_t>(cols[0].size());
    data.columns = std::move(cols);
    BALSA_CHECK(tiny.db->SetTableData(t, std::move(data)).ok(),
                "self-test data");
  };
  set(0, {{1, 2, 3, 4}, {5, 6, 7, -1}});
  set(1, {{1, 1, 2, 3, 4, -1}, {10, 11, 10, 12, 11, 10}});
  set(2, {{10, 11, 12}, {1, 2, 3}});
  QueryBuilder builder(&tiny.db->schema(), "tiny");
  builder.From("a", "x").From("b", "y").From("c", "z");
  builder.JoinEq("x.id", "y.a_id").JoinEq("y.c_id", "z.id");
  builder.Filter("x.v", PredOp::kGe, 6);
  tiny.query = builder.Build().value();
  tiny.query.set_id(0);
  return tiny;
}

}  // namespace

int RunSelfTest() {
  int failures = 0;
  // Each line passes when the check behaves as stated: controls are
  // accepted, seeded faults are rejected.
  auto expect = [&](bool as_stated, const char* what) {
    std::printf("%s: %s\n", as_stated ? "ok" : "FAILED", what);
    if (!as_stated) failures++;
  };

  TinyDb tiny = MakeTinyDb();
  const Query& q = tiny.query;

  // A valid plan ((x JOIN y) JOIN z) and the same plan with one join
  // rewired: z now joins x, which shares no predicate with it.
  Plan good;
  int x = good.AddScan(0, ScanOp::kSeqScan);
  int y = good.AddScan(1, ScanOp::kSeqScan);
  int z = good.AddScan(2, ScanOp::kSeqScan);
  good.set_root(good.AddJoin(good.AddJoin(x, y, JoinOp::kHashJoin), z,
                             JoinOp::kHashJoin));
  Plan rewired;
  x = rewired.AddScan(0, ScanOp::kSeqScan);
  y = rewired.AddScan(1, ScanOp::kSeqScan);
  z = rewired.AddScan(2, ScanOp::kSeqScan);
  rewired.set_root(rewired.AddJoin(rewired.AddJoin(x, z, JoinOp::kHashJoin),
                                   y, JoinOp::kHashJoin));
  expect(CheckPlanCoversQuery(q, good).ok(), "control: valid plan passes");
  expect(!CheckPlanCoversQuery(q, rewired).ok(),
         "fault caught: served plan with one join rewired (coverage check)");
  expect(!CheckSamePlan(rewired, good, "self-test").ok(),
         "fault caught: served plan with one join rewired (fresh planning)");
  // The same rewiring expressed as a relation swap keeps a valid tree, so
  // only the comparison with fresh planning can catch it.
  Plan swapped = RemapPlanRelations(good, {1, 0, 2});
  expect(!CheckSamePlan(swapped, good, "self-test").ok(),
         "fault caught: served plan with two relations swapped");

  // A response carrying the statistics version from before a bump.
  expect(CheckFreshVersion(3, 3).ok(), "control: current version passes");
  expect(!CheckFreshVersion(3, 2).ok(),
         "fault caught: response carrying a pre-bump stats_version");

  // Naive count vs a wrong count. x.v >= 6 keeps a.id in {2, 3}; b rows
  // with a_id 2 and 3 join c ids 10 and 12: 2 result rows.
  const Snapshot snap = tiny.db->GetSnapshot();
  const int64_t naive = NaiveJoinCount(snap, q, 1000);
  expect(naive == 2, "control: naive count of the tiny chain is 2");
  CardOracle oracle(tiny.db.get());
  auto card = oracle.Cardinality(q, q.AllTables());
  const double oracle_rows = card.ok() ? card->rows : -1;
  expect(CheckCardinality(q, oracle_rows, naive).ok(),
         "control: oracle and naive count agree");
  expect(!CheckCardinality(q, oracle_rows, naive + 1).ok(),
         "fault caught: wrong naive cardinality");

  std::printf("%s: %d self-test line(s) failed\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace balsa::perfbench
