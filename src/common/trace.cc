#include "common/trace.h"

#include <cstdio>

namespace sumtab {

namespace {

const char* PlanCacheOutcomeName(PlanCacheOutcome outcome) {
  switch (outcome) {
    case PlanCacheOutcome::kDisabled:
      return "disabled";
    case PlanCacheOutcome::kMiss:
      return "miss";
    case PlanCacheOutcome::kHit:
      return "hit";
    case PlanCacheOutcome::kInvalidated:
      return "invalidated";
    case PlanCacheOutcome::kLiteralSensitive:
      return "literal-sensitive";
  }
  return "unknown";
}

std::string FormatMicros(int64_t micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(micros) / 1000.0);
  return std::string(buf) + " ms";
}

std::string FormatCost(double cost) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", cost);
  return std::string(buf);
}

}  // namespace

const char* QueryTrace::PhaseName(Phase phase) {
  switch (phase) {
    case kPhaseParse:
      return "parse";
    case kPhaseQgmBuild:
      return "qgm_build";
    case kPhaseNavigate:
      return "navigate";
    case kPhaseRewrite:
      return "rewrite";
    case kPhaseExecute:
      return "execute";
    default:
      return "unknown";
  }
}

void QueryTrace::AddAstAttempt(AstAttemptTrace attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  ast_attempts_.push_back(std::move(attempt));
}

std::vector<AstAttemptTrace> QueryTrace::AstAttempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ast_attempts_;
}

void QueryTrace::SetPlanCache(PlanCacheOutcome outcome, std::string detail,
                              std::string template_text) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_cache_ = outcome;
  plan_cache_detail_ = std::move(detail);
  plan_template_ = std::move(template_text);
}

PlanCacheOutcome QueryTrace::plan_cache_outcome() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_;
}

std::string QueryTrace::plan_cache_detail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_detail_;
}

void QueryTrace::SetChosen(std::string summary_table,
                           std::string rewritten_sql) {
  std::lock_guard<std::mutex> lock(mu_);
  chosen_summary_table_ = std::move(summary_table);
  rewritten_sql_ = std::move(rewritten_sql);
}

void QueryTrace::AddNote(std::string note) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(std::move(note));
}

std::string QueryTrace::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;

  out += "plan cache: ";
  out += PlanCacheOutcomeName(plan_cache_);
  if (!plan_cache_detail_.empty()) {
    out += plan_cache_ == PlanCacheOutcome::kInvalidated ? " (cause: " : " (";
    out += plan_cache_detail_ + ")";
  }
  out += "\n";
  if (!plan_template_.empty()) out += "plan template: " + plan_template_ + "\n";

  if (!chosen_summary_table_.empty()) {
    out += "rewrite: using summary table '" + chosen_summary_table_ + "'\n";
    if (!rewritten_sql_.empty()) {
      out += "rewritten sql: " + rewritten_sql_ + "\n";
    }
  } else {
    out += "rewrite: none (original plan)\n";
  }

  for (const AstAttemptTrace& a : ast_attempts_) {
    out += "ast '" + a.ast_name + "' round " + std::to_string(a.round) + ": ";
    if (a.chosen) {
      out += "chosen";
    } else if (a.produced) {
      out += "candidate";
    } else {
      out += "rejected";
    }
    if (a.produced) {
      out += " (matches=" + std::to_string(a.num_matches) + ", cost " +
             FormatCost(a.cost_before) + " -> " + FormatCost(a.cost_after) +
             ")";
    }
    if (a.reason != RejectReason::kNone) {
      out += " reason=";
      out += RejectReasonToken(a.reason);
      if (!a.detail.empty()) out += " detail=\"" + a.detail + "\"";
    } else if (!a.produced && !a.detail.empty()) {
      out += " detail=\"" + a.detail + "\"";
    }
    out += "\n";
    if (!a.maintenance.empty()) {
      out += "  maintenance: " + a.maintenance + "\n";
    }
    if (!a.compensation.empty()) {
      out += "  compensation: " + a.compensation + "\n";
    }
    for (const MatchAttemptTrace& m : a.match_attempts) {
      out += "  match q" + std::to_string(m.query_box) + " vs a" +
             std::to_string(m.ast_box) + " [" + m.pattern + "]: ";
      if (m.matched) {
        out += m.exact ? "matched exact" : "matched with compensation";
      } else {
        out += "rejected reason=";
        out += RejectReasonToken(m.reason);
        if (!m.detail.empty()) out += " detail=\"" + m.detail + "\"";
      }
      out += "\n";
    }
  }

  out += "phases:";
  for (int p = 0; p < kNumPhases; ++p) {
    int64_t micros = phase_micros_[p].load(std::memory_order_relaxed);
    out += " ";
    out += PhaseName(static_cast<Phase>(p));
    out += "=" + FormatMicros(micros);
  }
  out += "\n";
  int64_t rows = rows_processed_.load(std::memory_order_relaxed);
  out += "rows processed: " + std::to_string(rows) + "\n";
  for (const std::string& note : notes_) {
    out += "note: " + note + "\n";
  }
  return out;
}

}  // namespace sumtab
