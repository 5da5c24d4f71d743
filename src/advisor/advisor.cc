#include "advisor/advisor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "expr/expr_print.h"
#include "matching/rewriter.h"
#include "qgm/qgm_builder.h"
#include "qgm/qgm_to_sql.h"
#include "sql/parser.h"
#include "sumtab/maintenance.h"

namespace sumtab {
namespace advisor {

namespace {

/// Leaf-scan cost of a graph: total rows of all scanned base tables, with
/// `candidate_name` costed at `candidate_rows` (it is not materialized yet).
int64_t LeafCost(const qgm::Graph& graph, const Database& db,
                 const std::string& candidate_name, int64_t candidate_rows) {
  int64_t cost = 0;
  for (int id = 0; id < graph.size(); ++id) {
    const qgm::Box* box = graph.box(id);
    if (box->kind != qgm::Box::Kind::kBase) continue;
    cost += box->table_name == candidate_name ? candidate_rows
                                              : db.TableRows(box->table_name);
  }
  return cost;
}

/// Adds a COUNT(*) output to a GROUP-BY root unless one exists, so coarser
/// queries can re-aggregate through the candidate (rule (a) needs a count).
void EnsureCountStar(qgm::Box* root) {
  for (const auto& col : root->outputs) {
    if (col.expr != nullptr && col.expr->kind == expr::Expr::Kind::kAggregate &&
        col.expr->agg_star) {
      return;
    }
  }
  std::string name = "advisor_cnt";
  std::set<std::string> taken;
  for (const auto& col : root->outputs) taken.insert(col.name);
  for (int n = 2; taken.count(name) > 0; ++n) {
    name = "advisor_cnt_" + std::to_string(n);
  }
  root->outputs.push_back(qgm::OutputColumn{name, expr::CountStar()});
}

/// Rewrites a cloned candidate root down to one grouping set: grouping
/// outputs in `set` survive (in output order), every aggregate survives, and
/// the box becomes a simple GROUP BY over the survivors. Only safe on a
/// graph root — parents would hold dangling output indexes.
void ProjectRootToGroupingSet(qgm::Box* root, const std::vector<int>& set) {
  std::set<int> keep(set.begin(), set.end());
  std::vector<qgm::OutputColumn> grouping;
  std::vector<qgm::OutputColumn> aggregates;
  for (int i = 0; i < root->NumOutputs(); ++i) {
    if (root->IsGroupingOutput(i)) {
      if (keep.count(i) > 0) grouping.push_back(root->outputs[i]);
    } else {
      aggregates.push_back(root->outputs[i]);
    }
  }
  root->outputs.clear();
  for (auto& col : grouping) root->outputs.push_back(std::move(col));
  for (auto& col : aggregates) root->outputs.push_back(std::move(col));
  std::vector<int> gs;
  for (int i = 0; i < static_cast<int>(grouping.size()); ++i) gs.push_back(i);
  root->grouping_sets = {std::move(gs)};
  root->column_info.clear();
}

/// One generated candidate definition, pre-SQL-rendering.
struct ExtractedCandidate {
  qgm::Graph graph;
  std::string origin;  // "query" | "cuboid" | "merged"
};

/// Extracts candidate definitions from one query graph: for every GROUP-BY
/// box whose block sits directly over base tables, emit the subgraph rooted
/// at that GROUP-BY. A multi-grouping-set block (CUBE/ROLLUP/GROUPING SETS)
/// additionally yields its lattice points (Gray et al.): the finest
/// single-set cuboid over all grouping columns, plus each observed set — one
/// materialization per point the workload actually visits.
void ExtractCandidates(const qgm::Graph& graph,
                       std::vector<ExtractedCandidate>* out) {
  for (qgm::BoxId id : graph.TopologicalOrder()) {
    const qgm::Box* gb = graph.box(id);
    if (!gb->IsGroupBy()) continue;
    if (gb->quantifiers.size() != 1) continue;
    const qgm::Box* lower = graph.box(gb->quantifiers[0].child);
    if (lower->kind != qgm::Box::Kind::kSelect) continue;
    bool over_base = true;
    for (const qgm::Quantifier& q : lower->quantifiers) {
      over_base = over_base &&
                  graph.box(q.child)->kind == qgm::Box::Kind::kBase &&
                  q.kind == qgm::Quantifier::Kind::kForeach;
    }
    if (!over_base) continue;

    auto clone_block = [&graph, id]() {
      qgm::Graph candidate;
      qgm::BoxId root = candidate.CloneSubgraph(graph, id);
      candidate.set_root(root);
      return candidate;
    };

    // The block as written.
    {
      ExtractedCandidate cand;
      cand.graph = clone_block();
      cand.origin = "query";
      EnsureCountStar(cand.graph.box(cand.graph.root()));
      out->push_back(std::move(cand));
    }

    // Lattice points of a grouping-sets block.
    if (gb->grouping_sets.size() > 1) {
      std::vector<int> all = gb->GroupingOutputs();
      // The finest cuboid: every grouping column, one set. Answers the whole
      // lattice by re-aggregation at a fraction of the CUBE's stored rows.
      {
        ExtractedCandidate cand;
        cand.graph = clone_block();
        cand.origin = "cuboid";
        ProjectRootToGroupingSet(cand.graph.box(cand.graph.root()), all);
        EnsureCountStar(cand.graph.box(cand.graph.root()));
        out->push_back(std::move(cand));
      }
      // Each observed set (skip the finest — just emitted).
      for (const std::vector<int>& set : gb->grouping_sets) {
        if (set.size() == all.size()) continue;
        ExtractedCandidate cand;
        cand.graph = clone_block();
        cand.origin = "cuboid";
        ProjectRootToGroupingSet(cand.graph.box(cand.graph.root()), set);
        EnsureCountStar(cand.graph.box(cand.graph.root()));
        out->push_back(std::move(cand));
      }
    }
  }
}

/// Printed form of a root output resolved through its SELECT child: ColRefs
/// into the child are replaced by the child's defining expressions (over the
/// base quantifiers), so outputs of two compatible blocks compare by what
/// they compute, not by where their child happened to place columns.
std::string ResolvedPrint(const qgm::Box* sel, const expr::ExprPtr& e) {
  expr::ExprPtr resolved = expr::RewriteLeaves(
      e, [sel](const expr::ExprPtr& leaf) -> expr::ExprPtr {
        if (leaf->kind == expr::Expr::Kind::kColumnRef &&
            leaf->quantifier == 0 && leaf->column >= 0 &&
            leaf->column < sel->NumOutputs()) {
          return sel->outputs[leaf->column].expr;
        }
        return nullptr;
      });
  return expr::ToString(resolved);
}

/// Common-subexpression sharing across the workload (multi-query
/// optimization, cf. Roy et al.): two simple GROUP-BY blocks over the same
/// ordered base tables with identical predicates merge into ONE candidate
/// carrying the union of their grouping columns and aggregates — it answers
/// both queries for the storage of one table. Returns null when the blocks
/// are not compatible.
std::unique_ptr<qgm::Graph> MergeCandidatePair(const qgm::Graph& ga,
                                               const qgm::Graph& gb) {
  const qgm::Box* ra = ga.box(ga.root());
  const qgm::Box* rb = gb.box(gb.root());
  if (!ra->IsSimpleGroupBy() || !rb->IsSimpleGroupBy()) return nullptr;
  if (ra->quantifiers.size() != 1 || rb->quantifiers.size() != 1) {
    return nullptr;
  }
  const qgm::Box* sa = ga.box(ra->quantifiers[0].child);
  const qgm::Box* sb = gb.box(rb->quantifiers[0].child);
  if (sa->kind != qgm::Box::Kind::kSelect ||
      sb->kind != qgm::Box::Kind::kSelect || sa->distinct || sb->distinct) {
    return nullptr;
  }
  if (sa->quantifiers.size() != sb->quantifiers.size()) return nullptr;
  for (size_t i = 0; i < sa->quantifiers.size(); ++i) {
    const qgm::Box* base_a = ga.box(sa->quantifiers[i].child);
    const qgm::Box* base_b = gb.box(sb->quantifiers[i].child);
    if (base_a->kind != qgm::Box::Kind::kBase ||
        base_b->kind != qgm::Box::Kind::kBase ||
        base_a->table_name != base_b->table_name) {
      return nullptr;
    }
  }
  auto printed_predicates = [](const qgm::Box* sel) {
    std::vector<std::string> out;
    for (const expr::ExprPtr& p : sel->predicates) {
      out.push_back(expr::ToString(p));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  if (printed_predicates(sa) != printed_predicates(sb)) return nullptr;

  auto merged = std::make_unique<qgm::Graph>(qgm::Graph::CloneGraph(ga));
  qgm::Box* rm = merged->box(merged->root());
  qgm::Box* sm = merged->box(rm->quantifiers[0].child);

  // SELECT-child outputs by printed expression (quantifier order is aligned
  // between the two blocks, so prints are directly comparable).
  std::map<std::string, int> sel_index;
  std::set<std::string> sel_names;
  for (int i = 0; i < sm->NumOutputs(); ++i) {
    sel_index.emplace(expr::ToString(sm->outputs[i].expr), i);
    sel_names.insert(sm->outputs[i].name);
  }
  auto ensure_sel_output = [&](const qgm::OutputColumn& src) {
    std::string key = expr::ToString(src.expr);
    auto it = sel_index.find(key);
    if (it != sel_index.end()) return it->second;
    std::string name = src.name;
    for (int n = 2; sel_names.count(name) > 0; ++n) {
      name = src.name + "_m" + std::to_string(n);
    }
    sel_names.insert(name);
    sm->outputs.push_back(qgm::OutputColumn{name, src.expr});
    int idx = sm->NumOutputs() - 1;
    sel_index.emplace(std::move(key), idx);
    return idx;
  };

  std::set<std::string> have;
  std::set<std::string> out_names;
  std::vector<qgm::OutputColumn> grouping;
  std::vector<qgm::OutputColumn> aggregates;
  for (int i = 0; i < rm->NumOutputs(); ++i) {
    have.insert(ResolvedPrint(sm, rm->outputs[i].expr));
    out_names.insert(rm->outputs[i].name);
    (rm->IsGroupingOutput(i) ? grouping : aggregates)
        .push_back(rm->outputs[i]);
  }
  for (int i = 0; i < rb->NumOutputs(); ++i) {
    std::string key = ResolvedPrint(sb, rb->outputs[i].expr);
    if (have.count(key) > 0) continue;
    bool remappable = true;
    expr::ExprPtr remapped = expr::RewriteLeaves(
        rb->outputs[i].expr,
        [&](const expr::ExprPtr& leaf) -> expr::ExprPtr {
          if (leaf->kind != expr::Expr::Kind::kColumnRef) {
            remappable = false;
            return nullptr;
          }
          if (leaf->quantifier != 0 || leaf->column < 0 ||
              leaf->column >= sb->NumOutputs()) {
            remappable = false;
            return nullptr;
          }
          return expr::ColRef(0, ensure_sel_output(sb->outputs[leaf->column]));
        });
    if (!remappable) return nullptr;
    have.insert(std::move(key));
    std::string name = rb->outputs[i].name;
    for (int n = 2; out_names.count(name) > 0; ++n) {
      name = rb->outputs[i].name + "_m" + std::to_string(n);
    }
    out_names.insert(name);
    qgm::OutputColumn col{std::move(name), std::move(remapped)};
    (rb->IsGroupingOutput(i) ? grouping : aggregates).push_back(std::move(col));
  }
  rm->outputs.clear();
  for (auto& col : grouping) rm->outputs.push_back(std::move(col));
  for (auto& col : aggregates) rm->outputs.push_back(std::move(col));
  std::vector<int> gs;
  for (int i = 0; i < static_cast<int>(grouping.size()); ++i) gs.push_back(i);
  rm->grouping_sets = {std::move(gs)};
  rm->column_info.clear();
  sm->column_info.clear();
  return merged;
}

/// A catalog-free name for the temporary rewrite probe. The fixed string
/// "advisor_candidate" used to collide with a user table of that name and
/// silently mis-cost every candidate; gensym against the catalog instead.
StatusOr<std::string> GensymPlaceholder(const catalog::Catalog& catalog) {
  std::string name = "advisor_candidate";
  for (int i = 1; catalog.FindTable(name) != nullptr; ++i) {
    if (i > 10000) {
      return RejectUnsupported(RejectReason::kAdvisorNamespaceExhausted,
                               "no free probe name near 'advisor_candidate'");
    }
    name = "advisor_candidate_" + std::to_string(i);
  }
  return name;
}

/// Merged-pair generation is quadratic; bound the pool it draws from.
constexpr size_t kMaxMergeSources = 32;

}  // namespace

StatusOr<Recommendation> RecommendForWorkload(
    Database* db, const std::vector<WorkloadQuery>& workload,
    const AdvisorOptions& options) {
  Recommendation rec;
  rec.budget_rows = options.budget_rows;
  if (rec.budget_rows < 0) {
    // Default budget: as many materialized rows as the base data holds.
    rec.budget_rows = 0;
    for (const std::string& name : db->catalog().TableNames()) {
      const catalog::Table* meta = db->catalog().FindTable(name);
      if (meta == nullptr || meta->is_summary_table) continue;
      rec.budget_rows += db->TableRows(name);
    }
  }

  // Parse the workload once. Entries that no longer parse/build (the log may
  // hold queries over since-dropped tables) are skipped, not fatal.
  struct ParsedQuery {
    qgm::Graph graph;
    int64_t weight = 1;
    int workload_index = 0;
  };
  std::vector<ParsedQuery> queries;
  for (size_t i = 0; i < workload.size(); ++i) {
    StatusOr<std::shared_ptr<sql::SelectStmt>> stmt =
        sql::Parse(workload[i].sql);
    if (!stmt.ok()) continue;
    StatusOr<qgm::Graph> graph = qgm::BuildGraph(**stmt, db->catalog());
    if (!graph.ok()) continue;
    ParsedQuery pq;
    pq.graph = std::move(*graph);
    pq.weight = std::max<int64_t>(1, workload[i].weight);
    pq.workload_index = static_cast<int>(i);
    queries.push_back(std::move(pq));
  }

  // Candidate generation: per-query blocks + cuboid lattice points...
  std::vector<ExtractedCandidate> extracted;
  for (const ParsedQuery& pq : queries) {
    ExtractCandidates(pq.graph, &extracted);
  }
  // ...then cross-query merges over the (deduped, bounded) query blocks.
  {
    std::vector<const qgm::Graph*> sources;
    std::set<std::string> seen_sources;
    for (const ExtractedCandidate& cand : extracted) {
      if (cand.origin != "query" || sources.size() >= kMaxMergeSources) {
        continue;
      }
      StatusOr<std::string> sql = qgm::ToSql(cand.graph);
      if (!sql.ok() || !seen_sources.insert(NormalizeSqlText(*sql)).second) {
        continue;
      }
      sources.push_back(&cand.graph);
    }
    std::vector<ExtractedCandidate> merged;
    for (size_t i = 0; i < sources.size(); ++i) {
      for (size_t j = i + 1; j < sources.size(); ++j) {
        std::unique_ptr<qgm::Graph> m =
            MergeCandidatePair(*sources[i], *sources[j]);
        if (m == nullptr) continue;
        ExtractedCandidate cand;
        cand.graph = std::move(*m);
        cand.origin = "merged";
        merged.push_back(std::move(cand));
      }
    }
    for (ExtractedCandidate& cand : merged) {
      extracted.push_back(std::move(cand));
    }
  }

  // Render + dedupe by normalized text. Candidates extracted from different
  // queries but textually identical collapse to ONE entry whose coverage is
  // computed against the whole workload below (the raw std::set dedup used
  // to let whitespace variants through as distinct candidates).
  struct UniqueCandidate {
    std::string sql;
    std::string origin;
  };
  std::vector<UniqueCandidate> unique;
  {
    std::set<std::string> seen;
    for (const ExtractedCandidate& cand : extracted) {
      StatusOr<std::string> sql = qgm::ToSql(cand.graph);
      if (!sql.ok()) continue;
      if (!seen.insert(NormalizeSqlText(*sql)).second) continue;
      unique.push_back(UniqueCandidate{std::move(*sql), cand.origin});
    }
  }

  // Direct (no-AST) workload cost, frequency-weighted.
  std::vector<int64_t> direct_cost(queries.size(), 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    direct_cost[qi] = queries[qi].weight * LeafCost(queries[qi].graph, *db, "", 0);
    rec.workload_cost_before += direct_cost[qi];
  }

  SUMTAB_ASSIGN_OR_RETURN(std::string placeholder,
                          GensymPlaceholder(db->catalog()));

  // Observed append traffic, by lower-cased table, for maintenance costing.
  std::map<std::string, WorkloadAppendStats> appends;
  for (const auto& [table, stats] : db->WorkloadLogSnapshot().appends) {
    WorkloadAppendStats& merged = appends[ToLower(table)];
    merged.batches += stats.batches;
    merged.rows += stats.rows;
  }

  // Size + benefit + maintenance estimation per candidate. The sizing probe
  // must not rewrite (the candidate is priced directly) and must not record
  // itself into the workload log the advisor is mining.
  QueryOptions direct;
  direct.enable_rewrite = false;
  direct.record_workload = false;
  std::vector<std::vector<int64_t>> cost_with;
  for (const UniqueCandidate& uc : unique) {
    Candidate candidate;
    candidate.sql = uc.sql;
    candidate.origin = uc.origin;

    StatusOr<QueryResult> count =
        db->Query("select count(*) as n from (" + candidate.sql + ") c",
                  direct);
    if (!count.ok() || count->relation.rows.empty()) continue;
    candidate.estimated_rows = count->relation.rows[0][0].AsInt();

    StatusOr<std::shared_ptr<sql::SelectStmt>> stmt = sql::Parse(candidate.sql);
    if (!stmt.ok()) continue;
    StatusOr<qgm::Graph> built = qgm::BuildGraph(**stmt, db->catalog());
    if (!built.ok()) continue;
    qgm::Graph cand_graph = std::move(*built);
    matching::SummaryTableDef def{placeholder, &cand_graph};

    std::vector<int64_t> costs(queries.size(), -1);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      StatusOr<matching::RewriteResult> rewrite =
          matching::RewriteQuery(queries[qi].graph, def, db->catalog());
      if (!rewrite.ok() || !rewrite->rewritten) continue;
      int64_t cost = queries[qi].weight *
                     LeafCost(rewrite->graph, *db, placeholder,
                              candidate.estimated_rows);
      if (cost < direct_cost[qi]) {
        costs[qi] = cost;
        candidate.covered_queries.push_back(queries[qi].workload_index);
        candidate.standalone_benefit += direct_cost[qi] - cost;
      }
    }

    // Maintenance charge from the observed append rates: an incremental
    // merge costs about the appended rows; a forced recompute costs about
    // (append batches) x (the candidate's base scan).
    int64_t charge = 0;
    int64_t cand_base_rows = LeafCost(cand_graph, *db, "", 0);
    for (const std::string& table : matching::LeafBaseTables(cand_graph)) {
      auto it = appends.find(ToLower(table));
      if (it == appends.end()) continue;
      StatusOr<matching::DeltaMerge> plan =
          maintenance::AnalyzeMergePlan(cand_graph, table);
      if (plan.ok()) {
        charge += it->second.rows;
      } else {
        candidate.maintainable = false;
        charge += it->second.batches * cand_base_rows;
      }
    }
    candidate.maintenance_cost =
        static_cast<int64_t>(options.maintenance_weight *
                             static_cast<double>(charge));

    cost_with.push_back(std::move(costs));
    rec.candidates.push_back(std::move(candidate));
  }
  MetricsRegistry::Global()
      .counter("advisor.candidates")
      ->Increment(static_cast<int64_t>(rec.candidates.size()));

  // Greedy selection by net marginal benefit per materialized row: scan
  // savings minus the maintenance charge, normalized by storage. Ties break
  // deterministically (higher ratio, then fewer rows, then smaller SQL) so a
  // fixed workload and budget always yield the same recommendation.
  std::vector<int64_t> current_cost = direct_cost;
  int64_t rows_used = 0;
  while (true) {
    int best = -1;
    double best_ratio = 0;
    for (size_t ci = 0; ci < rec.candidates.size(); ++ci) {
      Candidate& candidate = rec.candidates[ci];
      if (candidate.chosen) continue;
      if (rows_used + candidate.estimated_rows > rec.budget_rows) continue;
      int64_t gain = 0;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        if (cost_with[ci][qi] >= 0 && cost_with[ci][qi] < current_cost[qi]) {
          gain += current_cost[qi] - cost_with[ci][qi];
        }
      }
      int64_t net = gain - candidate.maintenance_cost;
      if (net <= 0) continue;
      double ratio =
          static_cast<double>(net) /
          static_cast<double>(std::max<int64_t>(1, candidate.estimated_rows));
      bool better = best == -1 || ratio > best_ratio;
      if (!better && best != -1 && ratio == best_ratio) {
        const Candidate& incumbent = rec.candidates[best];
        better = candidate.estimated_rows < incumbent.estimated_rows ||
                 (candidate.estimated_rows == incumbent.estimated_rows &&
                  candidate.sql < incumbent.sql);
      }
      if (better) {
        best = static_cast<int>(ci);
        best_ratio = ratio;
      }
    }
    if (best == -1) break;
    rec.candidates[best].chosen = true;
    rows_used += rec.candidates[best].estimated_rows;
    rec.maintenance_cost += rec.candidates[best].maintenance_cost;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (cost_with[best][qi] >= 0) {
        current_cost[qi] = std::min(current_cost[qi], cost_with[best][qi]);
      }
    }
  }
  rec.total_rows_used = rows_used;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    rec.workload_cost_after += current_cost[qi];
  }
  return rec;
}

StatusOr<Recommendation> RecommendSummaryTables(
    Database* db, const std::vector<std::string>& workload,
    int64_t budget_rows) {
  std::vector<WorkloadQuery> weighted;
  weighted.reserve(workload.size());
  for (const std::string& sql : workload) {
    weighted.push_back(WorkloadQuery{sql, 1});
  }
  AdvisorOptions options;
  options.budget_rows = budget_rows;
  return RecommendForWorkload(db, weighted, options);
}

StatusOr<std::vector<std::string>> ApplyRecommendation(
    Database* db, const Recommendation& recommendation,
    const std::string& prefix) {
  std::vector<std::string> names;
  // All-or-nothing: a failure after some definitions succeeded must not
  // leave a half-applied recommendation behind.
  auto rollback = [&]() {
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
      (void)db->DropSummaryTable(*it);
    }
  };
  int counter = 0;
  for (const Candidate& candidate : recommendation.candidates) {
    if (!candidate.chosen) continue;
    // `prefix + counter` used to collide with whatever already carried that
    // name (a user table, or a previous advisor run's AST) and fail the
    // whole apply; skip taken names instead.
    std::string name;
    while (true) {
      if (counter > 1000000) {
        rollback();
        return RejectUnsupported(RejectReason::kAdvisorNamespaceExhausted,
                                 "no free AST name under prefix '" + prefix +
                                     "'");
      }
      name = prefix + std::to_string(counter++);
      if (db->catalog().FindTable(name) == nullptr) break;
    }
    StatusOr<int64_t> rows =
        db->DefineSummaryTable(name, candidate.sql, /*advisor_owned=*/true);
    if (!rows.ok()) {
      rollback();
      return rows.status();
    }
    names.push_back(std::move(name));
    // Models a failure in the window between two defines (the rollback path
    // resilience tests arm this).
    Status injected = FaultInjector::Instance().Check("advisor/apply");
    if (!injected.ok()) {
      rollback();
      return injected;
    }
  }
  return names;
}

StatusOr<TuneOutcome> AdviseAndApply(Database* db,
                                     const AdvisorOptions& options) {
  MetricsRegistry::Global().counter("advisor.runs")->Increment();
  TuneOutcome outcome;

  // 1. Decay pass: advisor-owned ASTs that stopped earning rewrites are
  //    dropped BEFORE recommending, freeing their budget for better choices.
  for (const std::string& name : db->SummaryTableNames()) {
    StatusOr<SummaryTableInfo> info = db->GetSummaryTableInfo(name);
    if (!info.ok() || !info->advisor_owned) continue;
    if (info->queries_since_creation < options.min_queries_before_drop) {
      continue;
    }
    double rate = static_cast<double>(info->rewrite_hits) /
                  static_cast<double>(info->queries_since_creation);
    if (rate >= options.min_hit_rate) continue;
    if (!db->DropSummaryTable(name).ok()) continue;
    MetricsRegistry::Global().counter("advisor.dropped")->Increment();
    outcome.dropped.push_back(name);
    outcome.actions.push_back(TuneAction{
        "drop", name, 0,
        "hit rate " + std::to_string(rate) + " (" +
            std::to_string(info->rewrite_hits) + "/" +
            std::to_string(info->queries_since_creation) + ") below " +
            std::to_string(options.min_hit_rate)});
  }

  // 2. Mine the observed workload.
  WorkloadSnapshot log = db->WorkloadLogSnapshot();
  std::vector<WorkloadQuery> workload;
  workload.reserve(log.queries.size());
  for (const WorkloadQueryStats& q : log.queries) {
    workload.push_back(WorkloadQuery{q.normalized_sql, q.executions});
  }
  SUMTAB_ASSIGN_OR_RETURN(outcome.recommendation,
                          RecommendForWorkload(db, workload, options));
  Recommendation& rec = outcome.recommendation;
  int64_t chosen = 0;
  for (const Candidate& c : rec.candidates) chosen += c.chosen ? 1 : 0;
  MetricsRegistry::Global().counter("advisor.chosen")->Increment(chosen);

  // 3. Apply, skipping candidates an existing AST already embodies (TUNE
  //    must be idempotent for an unchanged workload).
  std::set<std::string> existing;
  for (const std::string& name : db->SummaryTableNames()) {
    StatusOr<SummaryTableInfo> info = db->GetSummaryTableInfo(name);
    if (info.ok()) existing.insert(NormalizeSqlText(info->sql));
  }
  Recommendation to_apply;
  to_apply.budget_rows = rec.budget_rows;
  std::vector<const Candidate*> applied_candidates;
  for (const Candidate& c : rec.candidates) {
    if (!c.chosen) continue;
    if (existing.count(NormalizeSqlText(c.sql)) > 0) continue;
    to_apply.candidates.push_back(c);
    applied_candidates.push_back(&c);
  }
  SUMTAB_ASSIGN_OR_RETURN(
      outcome.created,
      ApplyRecommendation(db, to_apply, options.name_prefix));
  MetricsRegistry::Global()
      .counter("advisor.created")
      ->Increment(static_cast<int64_t>(outcome.created.size()));
  for (size_t i = 0; i < outcome.created.size(); ++i) {
    const Candidate* c =
        i < applied_candidates.size() ? applied_candidates[i] : nullptr;
    outcome.actions.push_back(TuneAction{
        "create", outcome.created[i], db->TableRows(outcome.created[i]),
        c == nullptr
            ? ""
            : c->origin + ", covers " +
                  std::to_string(c->covered_queries.size()) +
                  " quer(ies), benefit " +
                  std::to_string(c->standalone_benefit) + ", maintenance " +
                  std::to_string(c->maintenance_cost)});
  }
  outcome.actions.push_back(TuneAction{
      "summary", "", rec.total_rows_used,
      "workload cost " + std::to_string(rec.workload_cost_before) + " -> " +
          std::to_string(rec.workload_cost_after) + " under budget " +
          std::to_string(rec.budget_rows) + " row(s)"});
  return outcome;
}

}  // namespace advisor
}  // namespace sumtab
