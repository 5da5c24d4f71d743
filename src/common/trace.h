// Per-query lifecycle trace: phase wall times, every (query-box, AST) match
// attempt with a structured outcome, plan-cache fate, and a row counter fed
// from the morsel-parallel executor lanes.
//
// Tracing is opt-in (QueryOptions::collect_trace). When no trace is attached
// the only cost on the query path is a handful of null-pointer checks; the
// always-on latency metrics in MetricsRegistry are a few clock reads per
// query, not per row.
//
// Thread safety: the matcher and rewriter run single-threaded, but the
// executor writes row counts from parallel lanes, and a trace may be read
// (rendered) by the caller while a background refresh queries the database.
// All list appends take mu_; the row counter is a relaxed atomic.
#ifndef SUMTAB_COMMON_TRACE_H_
#define SUMTAB_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/reject_reason.h"

namespace sumtab {

/// One attempt to match a subsumee (query) box against a subsumer (AST) box.
struct MatchAttemptTrace {
  int query_box = -1;    // subsumee box id in the query graph
  int ast_box = -1;      // subsumer box id in the AST graph
  std::string pattern;   // "select/select", "groupby/groupby", "cube", "seed"
  bool matched = false;
  bool exact = false;    // exact match vs compensation required
  RejectReason reason = RejectReason::kNone;  // set when !matched
  std::string detail;    // human-readable reject detail
};

/// The outcome of offering one summary table to one rewrite round.
struct AstAttemptTrace {
  std::string ast_name;
  int round = 0;          // iterative-rerouting round (0-based)
  bool produced = false;  // rewriter produced a candidate plan
  bool chosen = false;    // candidate won the cost comparison
  int num_matches = 0;    // matched box pairs in the winning session
  double cost_before = 0;
  double cost_after = 0;
  RejectReason reason = RejectReason::kNone;  // terminal reject for this AST
  std::string detail;
  std::string maintenance;  // next-append verdict per base table:
                            // "incremental", "catch_up(<k> epochs)" or the
                            // comp_* / maint_* reject token (EXPLAIN only)
  std::string compensation;  // delta-compensation verdict for a stale AST:
                             // "compensated(<rows> delta rows, <n> epochs)"
                             // or the comp_* reject token
  std::vector<MatchAttemptTrace> match_attempts;
};

/// Plan-cache fate for this query.
enum class PlanCacheOutcome {
  kDisabled,
  kMiss,
  kHit,
  kInvalidated,
  kLiteralSensitive,  // the template's plan serves only other literals
};

class QueryTrace {
 public:
  enum Phase : int {
    kPhaseParse = 0,   // lex + parse
    kPhaseQgmBuild,    // AST -> QGM
    kPhaseNavigate,    // navigator + match functions (sum over ASTs/rounds)
    kPhaseRewrite,     // TryRewrite total (navigate + splice + costing)
    kPhaseExecute,     // plan execution
    kNumPhases,
  };
  static const char* PhaseName(Phase phase);

  void RecordPhaseMicros(Phase phase, int64_t micros) {
    phase_micros_[phase].fetch_add(micros, std::memory_order_relaxed);
  }
  int64_t PhaseMicros(Phase phase) const {
    return phase_micros_[phase].load(std::memory_order_relaxed);
  }

  /// Called from executor lanes (under the row budget charge); relaxed —
  /// the exact interleaving does not matter, the total does.
  void AddRowsProcessed(int64_t n) {
    rows_processed_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t RowsProcessed() const {
    return rows_processed_.load(std::memory_order_relaxed);
  }

  void AddAstAttempt(AstAttemptTrace attempt);
  std::vector<AstAttemptTrace> AstAttempts() const;

  /// `detail`: the invalidation cause, "template" or the literal-sensitive
  /// decision on a hit, or the decision for kLiteralSensitive.
  /// `template_text`: the query's template (sql::Templatize).
  void SetPlanCache(PlanCacheOutcome outcome, std::string detail,
                    std::string template_text);
  PlanCacheOutcome plan_cache_outcome() const;
  std::string plan_cache_detail() const;

  void SetChosen(std::string summary_table, std::string rewritten_sql);
  void AddNote(std::string note);

  /// Renders the trace in the EXPLAIN REWRITE format (see DESIGN.md,
  /// "Explain & metrics"). One line per fact; reject reasons appear as
  /// their snake_case tokens, verbatim.
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::atomic<int64_t> phase_micros_[kNumPhases] = {};
  std::atomic<int64_t> rows_processed_{0};
  std::vector<AstAttemptTrace> ast_attempts_;
  PlanCacheOutcome plan_cache_ = PlanCacheOutcome::kDisabled;
  std::string plan_cache_detail_;
  std::string plan_template_;
  std::string chosen_summary_table_;
  std::string rewritten_sql_;
  std::vector<std::string> notes_;
};

}  // namespace sumtab

#endif  // SUMTAB_COMMON_TRACE_H_
