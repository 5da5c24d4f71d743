// Shared helpers for the test suite.
#ifndef SUMTAB_TESTS_TEST_UTIL_H_
#define SUMTAB_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/card_schema.h"
#include "engine/aggregator.h"
#include "engine/relation.h"
#include "sql/lexer.h"
#include "sumtab/database.h"

namespace sumtab {
namespace testing {

/// A small credit-card database (fast to build, still exercises skew).
inline std::unique_ptr<Database> MakeCardDb(int64_t num_trans = 5000,
                                            uint64_t seed = 42) {
  auto db = std::make_unique<Database>();
  data::CardSchemaParams params;
  params.num_trans = num_trans;
  params.seed = seed;
  Status st = data::SetupCardSchema(db.get(), params);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

/// Runs `sql` twice — rewriting disabled and enabled — and asserts both that
/// the rewrite HAPPENED (when expect_rewrite) and that the results agree as
/// row multisets. Returns the rewritten SQL for inspection.
inline std::string ExpectRewriteEquivalent(Database* db,
                                           const std::string& sql,
                                           bool expect_rewrite = true) {
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  StatusOr<QueryResult> direct = db->Query(sql, no_rewrite);
  EXPECT_TRUE(direct.ok()) << direct.status().ToString() << "\n" << sql;
  if (!direct.ok()) return "";
  StatusOr<QueryResult> routed = db->Query(sql);
  EXPECT_TRUE(routed.ok()) << routed.status().ToString() << "\n" << sql;
  if (!routed.ok()) return "";
  EXPECT_EQ(routed->used_summary_table, expect_rewrite)
      << sql << "\nrewritten: " << routed->rewritten_sql;
  EXPECT_TRUE(engine::SameRowMultiset(direct->relation, routed->relation))
      << sql << "\nrewritten: " << routed->rewritten_sql << "\ndirect:\n"
      << direct->relation.ToString(20) << "\nrouted:\n"
      << routed->relation.ToString(20);
  return routed->rewritten_sql;
}

/// `sql` with every integer literal before its ORDER BY raised by `delta`.
/// All move by the same amount, so equal literals stay equal and the query
/// keeps its plan template (DESIGN.md §8).
inline std::string ShiftIntLiterals(const std::string& sql, int64_t delta) {
  StatusOr<std::vector<sql::Token>> tokens = sql::Lex(sql);
  if (!tokens.ok()) return sql;
  std::string out;
  size_t at = 0;
  for (const sql::Token& token : *tokens) {
    if (token.type == sql::TokenType::kKeyword && token.text == "order") break;
    if (token.type != sql::TokenType::kIntLiteral) continue;
    const size_t position = static_cast<size_t>(token.position);
    out += sql.substr(at, position - at);
    out += std::to_string(token.int_value + delta);
    at = position + token.text.size();
  }
  return out + sql.substr(at);
}

/// engine::AggregateBatch's packed output as rows, the form
/// reference::Aggregate answers in.
inline StatusOr<std::vector<Row>> AggregateRows(
    const engine::Batch& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& sets,
    const std::vector<engine::AggSpec>& aggs, int max_threads = 1) {
  SUMTAB_ASSIGN_OR_RETURN(
      engine::Batch out,
      engine::AggregateBatch(input, grouping_cols, sets, aggs, max_threads));
  return engine::BatchToRelation(out, {}).rows;
}

}  // namespace testing
}  // namespace sumtab

#endif  // SUMTAB_TESTS_TEST_UTIL_H_
