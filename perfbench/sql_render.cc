// Renders workload Queries back to SQL text the parser accepts, with seeded
// alias renames, a permuted FROM list and shuffled WHERE conjuncts. Every
// variant of one query describes the same planning problem, so it must get
// the same QueryFingerprint (serve_hot checks this for every variant).
#include <string>

#include "perfbench/bench.h"

namespace balsa::perfbench {
namespace {

const char* OpText(PredOp op) {
  switch (op) {
    case PredOp::kEq: return "=";
    case PredOp::kNe: return "<>";
    case PredOp::kLt: return "<";
    case PredOp::kLe: return "<=";
    case PredOp::kGt: return ">";
    case PredOp::kGe: return ">=";
    case PredOp::kIn: return "IN";
  }
  return "?";
}

}  // namespace

SqlVariant RenderSql(const Schema& schema, const Query& query, Rng* rng) {
  const int n = query.num_relations();
  SqlVariant variant;
  variant.from_order.resize(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) variant.from_order[static_cast<size_t>(j)] = j;
  rng->Shuffle(&variant.from_order);

  // Fresh alias per source relation: a random stem plus the FROM position,
  // so aliases are unique and never collide with a keyword.
  static const char* kStems[] = {"r", "t", "x", "q", "rel", "tab"};
  const std::string stem = kStems[rng->Uniform(6)];
  std::vector<std::string> alias(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    alias[static_cast<size_t>(variant.from_order[static_cast<size_t>(j)])] =
        stem + std::to_string(j) + "_" + std::to_string(rng->Uniform(100));
  }
  auto column = [&](const ColumnRef& ref) {
    const int table = query.relations()[static_cast<size_t>(ref.relation)]
                          .table_idx;
    return alias[static_cast<size_t>(ref.relation)] + "." +
           schema.table(table).columns[static_cast<size_t>(ref.column)].name;
  };

  std::string sql = "SELECT * FROM ";
  for (int j = 0; j < n; ++j) {
    const int rel = variant.from_order[static_cast<size_t>(j)];
    if (j > 0) sql += ", ";
    sql += schema.table(query.relations()[static_cast<size_t>(rel)].table_idx)
               .name;
    sql += " AS " + alias[static_cast<size_t>(rel)];
  }

  std::vector<std::string> conjuncts;
  for (const JoinPredicate& join : query.joins()) {
    // Either side may come first.
    conjuncts.push_back(rng->Bernoulli(0.5)
                            ? column(join.left) + " = " + column(join.right)
                            : column(join.right) + " = " + column(join.left));
  }
  for (const FilterPredicate& filter : query.filters()) {
    std::string text = column(filter.col) + " " + OpText(filter.op) + " ";
    if (filter.op == PredOp::kIn) {
      text += "(";
      for (size_t i = 0; i < filter.in_values.size(); ++i) {
        if (i > 0) text += ", ";
        text += std::to_string(filter.in_values[i]);
      }
      text += ")";
    } else {
      text += std::to_string(filter.value);
    }
    conjuncts.push_back(std::move(text));
  }
  rng->Shuffle(&conjuncts);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += conjuncts[i];
  }
  variant.sql = std::move(sql);
  return variant;
}

}  // namespace balsa::perfbench
