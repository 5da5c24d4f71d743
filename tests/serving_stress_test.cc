// Many-session stress: snapshot isolation under concurrent maintenance
// (DESIGN.md, "Concurrent serving: sessions, snapshots, admission").
//
// The contract under test: every query observes the database exactly as it
// was at SOME commit point — a pre-append state or a post-append state,
// never a mixture and never a half-written row vector. The appender commits
// fixed-size batches, so the set of legal answers is enumerable:
// count(*) over the hammered table must be start + k * batch for an integer
// k, and a rewrite-eligible GROUP BY must sum to the same lattice. Any other
// total is a torn read. Deferred appends put compensated answers (the AST
// plus retained deltas, through one cached plan shared by every session) on
// the same lattice.
//
// A mixed workload rounds it off: a cheap AST query stream beside heavy
// joins and appends, under admission control and fair-share weights.
//
// This suite is in the CI ThreadSanitizer job's regex ("Serving"): the
// assertions catch semantic tearing, TSan catches the data races that would
// cause it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "data/tpcd_schema.h"
#include "serving/session.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

using serving::AdmissionOptions;
using serving::Server;
using serving::Session;

constexpr int64_t kSeedRows = 1000;
constexpr int64_t kBatchRows = 10;
constexpr int kAppends = 15;
constexpr int kSessions = 8;
constexpr int kQueriesPerSession = 25;

constexpr char kAstDef[] =
    "select faid, flid, count(*) as cnt, sum(qty) as sq "
    "from trans group by faid, flid";
constexpr char kCountQuery[] = "select count(*) as c from trans";
constexpr char kGroupQuery[] =
    "select faid, count(*) as cnt from trans group by faid";

std::vector<Row> MakeTransRows(int start_tid, int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int(start_tid + i), Value::Int(i % 50),
                       Value::Int(i % 12), Value::Int(i % 40),
                       Value::Date(19940101 + (i % 28)), Value::Int(1 + i % 5),
                       Value::Double(10.0), Value::Double(0.0)});
  }
  return rows;
}

/// True iff `total` lies on the commit lattice {start + k*batch, 0<=k<=max}.
bool OnCommitLattice(int64_t total) {
  if (total < kSeedRows) return false;
  int64_t delta = total - kSeedRows;
  return delta % kBatchRows == 0 && delta / kBatchRows <= kAppends;
}

TEST(ServingStressTest, SnapshotsNeverTearUnderConcurrentAppends) {
  FaultInjector::Instance().Reset();
  std::unique_ptr<Database> db = testing::MakeCardDb(kSeedRows);
  ASSERT_TRUE(db->DefineSummaryTable("ast1", kAstDef).ok());

  // Generous admission so nothing is shed: this test is about isolation,
  // not load shedding (serving_test covers the reject paths).
  AdmissionOptions admission;
  admission.max_concurrent = kSessions + 2;
  admission.max_queued = 4 * kSessions;
  admission.max_wait_millis = 30000;
  Server server(db.get(), admission);

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto record_failure = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(message);
  };

  std::atomic<bool> appends_done{false};
  std::atomic<int64_t> rewrites_served{0};
  std::atomic<int64_t> compensated_served{0};

  // Appender: hammers `trans` with fixed-size batches. Two appends in three
  // go through the maintenance path, so ast1 stays fresh and the cached
  // rewrite is served; every third is deferred, so ast1 lags one epoch and
  // the cached compensated plan is served with its delta range re-derived
  // per query, until the next append catches ast1 up. After a deferred
  // append the appender waits (bounded) for one compensated answer, so the
  // shared compensated plans race the appends on every run.
  std::thread appender([&] {
    for (int k = 0; k < kAppends; ++k) {
      Database::AppendOptions options;
      options.maintain = k % 3 != 1;
      const int64_t compensated_before =
          compensated_served.load(std::memory_order_acquire);
      StatusOr<Database::MaintenanceReport> report = db->Append(
          "trans",
          MakeTransRows(1000000 + k * 1000, static_cast<int>(kBatchRows)),
          options);
      if (!report.ok()) {
        record_failure("append " + std::to_string(k) + " failed: " +
                       report.status().ToString());
        break;
      }
      for (int wait = 0; !options.maintain && wait < 2000 &&
                         compensated_served.load(std::memory_order_acquire) ==
                             compensated_before;
           ++wait) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    appends_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> workers;
  for (int s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      std::shared_ptr<Session> session = server.CreateSession();
      // At least kQueriesPerSession queries, and on until the appends stop.
      for (int q = 0; q < kQueriesPerSession ||
                      !appends_done.load(std::memory_order_acquire);
           ++q) {
        // Alternate a cheap scalar count with the rewrite-eligible GROUP BY
        // so both the base-scan path and the AST path race the appender.
        const bool group = (q + s) % 2 == 0;
        StatusOr<QueryResult> result =
            session->Query(group ? kGroupQuery : kCountQuery);
        if (!result.ok()) {
          record_failure("query failed: " + result.status().ToString());
          continue;
        }
        int64_t total = 0;
        if (group) {
          for (const Row& row : result->relation.rows) {
            total += row[1].AsInt();
          }
          if (result->used_summary_table) {
            rewrites_served.fetch_add(1, std::memory_order_relaxed);
          }
          if (result->compensated) {
            compensated_served.fetch_add(1, std::memory_order_acq_rel);
          }
        } else {
          ASSERT_EQ(result->relation.rows.size(), 1u);
          total = result->relation.rows[0][0].AsInt();
        }
        if (!OnCommitLattice(total)) {
          record_failure("torn read: observed " + std::to_string(total) +
                         " rows (session " + std::to_string(s) + ", query " +
                         std::to_string(q) +
                         (result->used_summary_table ? ", via ast" : "") +
                         ")");
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  appender.join();

  {
    std::lock_guard<std::mutex> lock(failures_mu);
    for (const std::string& message : failures) ADD_FAILURE() << message;
    EXPECT_TRUE(failures.empty());
  }
  EXPECT_TRUE(appends_done.load(std::memory_order_acquire));
  EXPECT_GT(compensated_served.load(), 0);

  // After the dust settles the final state is the full lattice endpoint —
  // and the last append was eager, catching the AST up on every batch, so
  // the rewrite path agrees with it.
  StatusOr<QueryResult> final_count = db->Query(kCountQuery);
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->relation.rows[0][0].AsInt(),
            kSeedRows + kAppends * kBatchRows);
  ASSERT_EQ(db->GetSummaryTableInfo("ast1")->state, AstState::kFresh);
}

TEST(ServingStressTest, BulkLoadsAndQueriesRaceWithoutTearing) {
  // BulkLoad (no AST maintenance, epoch bump only) racing cache-warm
  // queries: answers must still land on the lattice. With no AST the cached
  // base-table plans stay valid across loads, and each hit must read its
  // own query's snapshot.
  FaultInjector::Instance().Reset();
  std::unique_ptr<Database> db = testing::MakeCardDb(kSeedRows);
  Server server(db.get());

  std::mutex failures_mu;
  std::vector<std::string> failures;

  std::thread loader([&] {
    for (int k = 0; k < kAppends; ++k) {
      Status st = db->BulkLoad(
          "trans",
          MakeTransRows(2000000 + k * 1000, static_cast<int>(kBatchRows)));
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("bulk load failed: " + st.ToString());
        break;
      }
    }
  });

  std::vector<std::thread> workers;
  for (int s = 0; s < 4; ++s) {
    workers.emplace_back([&] {
      std::shared_ptr<Session> session = server.CreateSession();
      for (int q = 0; q < kQueriesPerSession; ++q) {
        StatusOr<QueryResult> result = session->Query(kCountQuery);
        if (!result.ok()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back("query failed: " + result.status().ToString());
          continue;
        }
        int64_t total = result->relation.rows[0][0].AsInt();
        if (!OnCommitLattice(total)) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back("torn read: " + std::to_string(total));
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  loader.join();

  std::lock_guard<std::mutex> lock(failures_mu);
  for (const std::string& message : failures) ADD_FAILURE() << message;
  EXPECT_TRUE(failures.empty());
}

TEST(ServingStressTest, ConcurrentDdlAndQueriesStayCoherent) {
  // Define/drop an AST in a loop while sessions run the exact query it
  // covers: every query must succeed (through the AST or not) with the
  // correct answer; generation bumps invalidate cached plans in between.
  FaultInjector::Instance().Reset();
  std::unique_ptr<Database> db = testing::MakeCardDb(kSeedRows);
  Server server(db.get());

  // The correct answer is fixed: no data changes in this scenario.
  StatusOr<QueryResult> reference = db->Query(kGroupQuery);
  ASSERT_TRUE(reference.ok());

  std::mutex failures_mu;
  std::vector<std::string> failures;
  std::atomic<bool> stop{false};

  std::thread ddl([&] {
    for (int k = 0; k < 10; ++k) {
      // One name every round: a drop removes the AST's table entry, so each
      // redefinition races the readers under the name they just planned with.
      const std::string name = "flip";
      StatusOr<int64_t> defined = db->DefineSummaryTable(name, kAstDef);
      if (!defined.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("define failed: " + defined.status().ToString());
        break;
      }
      Status dropped = db->DropSummaryTable(name);
      if (!dropped.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back("drop failed: " + dropped.ToString());
        break;
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> workers;
  for (int s = 0; s < 4; ++s) {
    workers.emplace_back([&] {
      std::shared_ptr<Session> session = server.CreateSession();
      while (!stop.load(std::memory_order_acquire)) {
        StatusOr<QueryResult> result = session->Query(kGroupQuery);
        if (!result.ok()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back("query failed: " + result.status().ToString());
          break;
        }
        if (!engine::SameRowMultiset(reference->relation, result->relation)) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back("wrong answer during DDL churn");
          break;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  ddl.join();

  std::lock_guard<std::mutex> lock(failures_mu);
  for (const std::string& message : failures) ADD_FAILURE() << message;
  EXPECT_TRUE(failures.empty());
}

TEST(ServingStressTest, CheapStreamIsServedBesideHeavyJoinsAndAppends) {
  // A cheap warm-cache AST query (weight 2), a heavy four-way join
  // (weight 1) and a background appender share one Server. Each stream runs
  // a fixed number of operations, so the test's length does not depend on
  // the machine's speed.
  FaultInjector::Instance().Reset();
  Database db;
  data::TpcdParams params;
  params.num_lineitems = 4000;
  params.num_orders = 400;
  ASSERT_TRUE(data::SetupTpcdSchema(&db, params).ok());
  ASSERT_TRUE(db.DefineSummaryTable(
                    "ast_order_year",
                    "select year(odate) as y, opriority, count(*) as cnt "
                    "from orders group by year(odate), opriority")
                  .ok());
  constexpr char kCheap[] =
      "select year(odate) as y, count(*) as cnt from orders "
      "group by year(odate)";
  constexpr char kHeavy[] =
      "select rname, sum(lprice) as rev "
      "from lineitem, orders, customer, nation "
      "where lineitem.okey = orders.okey and orders.ckey = customer.ckey "
      "and customer.nkey = nation.nkey group by rname";
  constexpr int kCheapQueries = 200;
  constexpr int kHeavyQueries = 10;
  constexpr int kAppendBatches = 10;
  constexpr int kAppendRows = 100;

  AdmissionOptions admission;
  admission.max_concurrent = 16;
  admission.max_queued = 64;
  admission.max_wait_millis = 30000;
  Server server(&db, admission);
  ASSERT_TRUE(db.Query(kCheap).ok());  // warms the plan cache

  std::vector<engine::Relation> cheap_answers;
  int cheap_rejected = 0, cheap_rewritten = 0;
  int heavy_done = 0, appends_done = 0;
  std::thread cheap([&] {
    std::shared_ptr<Session> session =
        server.CreateSession({.max_in_flight = 64, .weight = 2});
    for (int q = 0; q < kCheapQueries; ++q) {
      StatusOr<QueryResult> result = session->Query(kCheap);
      if (!result.ok()) {
        ++cheap_rejected;
        continue;
      }
      cheap_rewritten += result->used_summary_table;
      cheap_answers.push_back(std::move(result->relation));
    }
  });
  std::thread heavy([&] {
    std::shared_ptr<Session> session = server.CreateSession({.weight = 1});
    for (int q = 0; q < kHeavyQueries; ++q) {
      heavy_done += session->Query(kHeavy).ok();
    }
  });
  std::thread appender([&] {
    for (int k = 0; k < kAppendBatches; ++k) {
      std::vector<Row> rows;
      for (int i = 0; i < kAppendRows; ++i) {
        rows.push_back(Row{Value::Int(1000000 + k * kAppendRows + i),
                           Value::Int(i % params.num_orders),
                           Value::Int(i % params.num_parts),
                           Value::Int(1 + i % 50),
                           Value::Double(900.0 + i), Value::Double(0.05),
                           Value::Date(19940101 + i % 28)});
      }
      appends_done += db.Append("lineitem", std::move(rows)).ok();
    }
  });
  cheap.join();
  heavy.join();
  appender.join();

  EXPECT_EQ(cheap_rejected, 0);
  EXPECT_EQ(static_cast<int>(cheap_answers.size()), kCheapQueries);
  EXPECT_EQ(cheap_rewritten, kCheapQueries);
  EXPECT_GT(heavy_done, 0);
  EXPECT_EQ(appends_done, kAppendBatches);
  EXPECT_EQ(db.TableRows("lineitem"),
            params.num_lineitems + kAppendBatches * kAppendRows);

  // The appends touch lineitem only, so every cheap answer is the final
  // direct answer.
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  StatusOr<QueryResult> direct = db.Query(kCheap, no_rewrite);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  for (const engine::Relation& answer : cheap_answers) {
    EXPECT_TRUE(engine::SameRowMultiset(direct->relation, answer));
  }
}

}  // namespace
}  // namespace sumtab
