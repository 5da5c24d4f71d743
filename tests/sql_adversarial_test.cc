// Adversarial-input corpus for the SQL front end. The contract under test:
// sql::Parse never crashes, hangs, or blows the stack — every malformed or
// hostile input comes back as kInvalidArgument, and inputs that are
// syntactically fine but absurdly nested come back as kResourceExhausted
// (the recursive-descent depth guardrail). Run under ASan/UBSan in CI.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace sumtab {
namespace sql {
namespace {

Status ParseStatus(const std::string& input, const ParseOptions& opts = {}) {
  StatusOr<std::shared_ptr<SelectStmt>> parsed = Parse(input, opts);
  return parsed.ok() ? Status::OK() : parsed.status();
}

void ExpectCleanRejection(const std::string& input) {
  Status st = ParseStatus(input);
  EXPECT_FALSE(st.ok()) << "accepted: " << input;
  EXPECT_TRUE(st.code() == Status::Code::kInvalidArgument ||
              st.code() == Status::Code::kResourceExhausted)
      << st.ToString() << "\ninput: " << input;
}

TEST(SqlAdversarialTest, MalformedCorpusIsCleanlyRejected) {
  const std::vector<std::string> corpus = {
      "",
      "   \t\n  ",
      "select",
      "select from",
      "select a from",
      "select a from t where",
      "select a from t group by",
      "select a from t order by",
      "select count( from t",
      "select count(*) as from t",
      "select a, from t",
      "select a from t where a >",
      "select a from t where a > 1 and",
      "select a from t having",
      "select a from (select from x) d",
      "select a from t where a in",
      "select * * from t",
      "select a from t t2 t3",
      "selekt a from t",
      "select a frm t",
      "select a from t;; drop table t",
      "select a from t extra trailing garbage",
      "select 'unterminated from t",
      "select \"unterminated from t",
      "select a from t where a = 'abc",
      "select 1..2 from t",
      "select . from t",
      "select a from t where a = @",
      "select a from t where a = #b",
      "select ~!$%^&* from t",
      "select a from t where ((a = 1)",
      "select a from t where (a = 1))",
      "select (a from t",
      "select a) from t",
      "group by select from where",
      ")))(((",
      "select \x01\x02\x7f from t",
      std::string("select a\0from t", 15),
      // Numeric literals beyond int64 / double range.
      "select 99999999999999999999 from t",
      "select a from t where a < " + std::string(400, '9') + ".5",
  };
  for (const std::string& input : corpus) {
    ExpectCleanRejection(input);
  }
}

TEST(SqlAdversarialTest, EveryPrefixOfAValidQueryIsSafe) {
  const std::string sql =
      "select faid, year(date) as y, count(*) as c from trans "
      "where qty > 3 and price < 100.0 group by faid, year(date) "
      "having count(*) > 1 order by c desc";
  for (size_t len = 0; len <= sql.size(); ++len) {
    Status st = ParseStatus(sql.substr(0, len));
    if (!st.ok()) {
      EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
          << st.ToString() << "\nprefix length " << len;
    }
  }
}

TEST(SqlAdversarialTest, DeepParenNestingHitsDepthLimitNotTheStack) {
  // Far deeper than any real query, far shallower than a stack overflow
  // would need without the guardrail.
  std::string sql = "select " + std::string(100000, '(') + "1" +
                    std::string(100000, ')') + " as x from t";
  Status st = ParseStatus(sql);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted) << st.ToString();
}

TEST(SqlAdversarialTest, UnclosedDeepNestingIsAlsoBounded) {
  std::string sql = "select " + std::string(100000, '(') + "1 from t";
  ExpectCleanRejection(sql);
}

TEST(SqlAdversarialTest, DeepSubqueryNestingHitsDepthLimit) {
  std::string sql = "select a from t";
  for (int i = 0; i < 500; ++i) {
    sql = "select a from (" + sql + ") d";
  }
  Status st = ParseStatus(sql);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted) << st.ToString();
}

TEST(SqlAdversarialTest, DeepNotChainHitsDepthLimit) {
  std::string nots;
  for (int i = 0; i < 100000; ++i) nots += "not ";
  Status st = ParseStatus("select a from t where " + nots + "a = 1");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted) << st.ToString();
}

TEST(SqlAdversarialTest, DeepUnaryMinusChainHitsDepthLimit) {
  // "- " with a space each time: adjacent "--" would lex as a line comment.
  std::string minuses;
  for (int i = 0; i < 100000; ++i) minuses += "- ";
  Status st = ParseStatus("select " + minuses + "1 as x from t");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted) << st.ToString();
}

TEST(SqlAdversarialTest, DepthLimitIsConfigurable) {
  const std::string modest = "select ((((1)))) as x from t";
  EXPECT_TRUE(ParseStatus(modest).ok());
  ParseOptions tight;
  tight.max_depth = 3;
  Status st = ParseStatus(modest, tight);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kResourceExhausted);
  ParseOptions roomy;
  roomy.max_depth = 1000;
  std::string nested = "select " + std::string(200, '(') + "1" +
                       std::string(200, ')') + " as x from t";
  EXPECT_TRUE(ParseStatus(nested, roomy).ok());
}

TEST(SqlAdversarialTest, RealisticQueriesStayUnderTheDefaultLimit) {
  // The guardrail must never reject the kind of SQL the test suite and the
  // paper's examples actually use.
  const std::vector<std::string> realistic = {
      "select faid, count(*) as c from trans group by faid",
      "select state, sum(qty * price * (1 - disc)) as rev "
      "from trans, loc where flid = lid group by state "
      "having sum(qty) > 10 order by rev desc",
      "select a from (select a, b from (select a, b, c from t) x) y "
      "where a > (select min(e) from v) and b in (1, 2, 3)",
      "select faid, count(*) as c from trans "
      "where qty between 2 and 4 and not faid in (7, 11) group by faid",
  };
  for (const std::string& sql : realistic) {
    EXPECT_TRUE(ParseStatus(sql).ok()) << sql;
  }
}

}  // namespace
}  // namespace sql
}  // namespace sumtab
