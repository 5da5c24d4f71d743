// Deterministic operation script shared by the crash harness: the child
// process (bench/crash_driver) applies these ops against a durable Database
// until the armed fault SIGKILLs it mid-operation, and the parent
// (tests/crash_recovery_test) replays the same ops into an in-memory twin to
// decide what the recovered state MUST look like.
//
// The script deliberately walks every WAL record type and every maintenance
// path: bulk loads (ASTs go stale), incremental appends, appends onto a
// bulk-loaded AST (recompute), deferred appends and the refresh or eager
// append that catches up on them, staleness budgets, drops, a second table,
// and explicit checkpoints.
#ifndef SUMTAB_BENCH_CRASH_SCRIPT_H_
#define SUMTAB_BENCH_CRASH_SCRIPT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sumtab/database.h"

namespace sumtab {
namespace crash_script {

inline std::vector<Row> TRows(int start_a, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(start_a + i), Value::Int((start_a + i) % 7),
                       Value::Int((start_a + i) % 4)});
  }
  return rows;
}

inline std::vector<Row> URows(int start_k, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(start_k + i), Value::Int((start_k + i) % 3)});
  }
  return rows;
}

/// Number of ops in the script. Ops are applied in order, 0-based.
inline int ScriptLength() { return 31; }

/// Applies op `i` to `db` (durable in the child, in-memory in the twin).
inline Status ApplyOp(Database* db, int i) {
  switch (i) {
    case 0:
      return db->CreateTable("t",
                             {{"a", Type::kInt, false},
                              {"b", Type::kInt, false},
                              {"g", Type::kInt, false}},
                             {"a"});
    case 1:
      return db->BulkLoad("t", TRows(0, 20));
    case 2:
      return db
          ->DefineSummaryTable(
              "ast_g", "select g, count(*) as c, sum(b) as s from t group by g")
          .status();
    case 3:
      return db->Append("t", TRows(20, 10)).status();  // incremental
    case 4:
      return db->BulkLoad("t", TRows(30, 10));  // ast_g goes stale
    case 5:
      return db->Append("t", TRows(40, 5)).status();  // stale -> recompute
    case 6:
      return db->Stats().durability.enabled ? db->Checkpoint() : Status::OK();
    case 7:
      return db->SetMaxStaleness("ast_g", 2);
    case 8:
      return db->BulkLoad("t", TRows(45, 5));  // stale, within budget
    case 9:
      return db->RefreshSummaryTable("ast_g");
    case 10:
      return db
          ->DefineSummaryTable("ast_b",
                               "select b, count(*) as c from t group by b")
          .status();
    case 11:
      return db->Append("t", TRows(50, 10)).status();
    case 12:
      return db->Stats().durability.enabled ? db->Checkpoint() : Status::OK();
    case 13:
      return db->DropSummaryTable("ast_b");
    case 14:
      return db->Append("t", TRows(60, 5)).status();
    case 15:
      return db->CreateTable(
          "u", {{"k", Type::kInt, false}, {"v", Type::kInt, false}}, {"k"});
    case 16:
      return db->BulkLoad("u", URows(0, 12));
    case 17:
      return db
          ->DefineSummaryTable("ast_u",
                               "select v, count(*) as c from u group by v")
          .status();
    case 18:
      return db->Append("u", URows(12, 6)).status();
    case 19:
      return db->Stats().durability.enabled ? db->Checkpoint() : Status::OK();
    case 20:
      return db->Append("t", TRows(65, 10)).status();
    case 21:
      return db->SetMaxStaleness("ast_g", 0);
    case 22:
      return db->BulkLoad("t", TRows(75, 5));  // stale again
    case 23:
      return db->RefreshSummaryTable("ast_g");
    case 24:
      return db->Append("t", TRows(80, 10)).status();
    case 25: {
      // Deferred append: ast_g goes stale-but-compensatable. The recovered
      // database and the twin must then agree through the COMPENSATED
      // rewrite path (kAppendDeferred replay must not maintain the AST).
      Database::AppendOptions deferred;
      deferred.maintain = false;
      return db->Append("t", TRows(90, 8), deferred).status();
    }
    case 26:
      return db->Stats().durability.enabled ? db->Checkpoint() : Status::OK();
    case 27: {
      // Second deferred epoch AFTER the checkpoint: recovery has to stitch
      // the retained range from a kDeltaPartition section plus WAL replay.
      Database::AppendOptions deferred;
      deferred.maintain = false;
      return db->Append("t", TRows(98, 7), deferred).status();
    }
    case 28:
      return db->RefreshSummaryTable("ast_g");  // absorbs the retained range
    case 29: {
      Database::AppendOptions deferred;
      deferred.maintain = false;
      return db->Append("t", TRows(105, 6), deferred).status();
    }
    case 30:
      // Eager append onto the deferred AST: catches up by merging the
      // retained slice with its own delta, logged and replayed as one
      // kAppend record.
      return db->Append("t", TRows(111, 9)).status();
    default:
      return Status::InvalidArgument("op index out of range");
  }
}

/// Queries the differential matrix compares between the recovered database
/// and its never-crashed twin. Some reference tables that do not exist at
/// small prefixes — both sides must then fail identically.
inline std::vector<std::string> CheckQueries() {
  return {
      "select g, count(*) as c, sum(b) as s from t group by g",
      "select b, count(*) as c from t group by b",
      "select g, b, count(*) as c from t group by g, b",
      "select count(*) as c from t",
      "select v, count(*) as c from u group by v",
  };
}

}  // namespace crash_script
}  // namespace sumtab

#endif  // SUMTAB_BENCH_CRASH_SCRIPT_H_
