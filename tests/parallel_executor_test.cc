// Intra-query parallelism: ThreadPool/ParallelFor primitives, the
// determinism contract (threads=N is bit-identical to threads=1 after
// sorting — see aggregator.h), guardrail accounting from worker threads,
// and thread-safe FaultInjector bookkeeping. Suites are named Parallel* /
// ThreadPool* so the TSan CI job can select them with a ctest regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "data/tpcd_schema.h"
#include "engine/aggregator.h"
#include "tests/test_util.h"

namespace sumtab {
namespace {

// ---- ThreadPool / ParallelFor primitives ----

TEST(ThreadPoolTest, ScheduleRunsEveryTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  // Counted and signalled under `mu`: the last task must be done with `cv`
  // before the waiter can see 64 and destroy it.
  int done = 0;
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 64; ++i) {
    pool.Schedule([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++done == 64) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == 64; });
  EXPECT_EQ(done, 64);
}

TEST(ThreadPoolTest, HardwareParallelismIsPositive) {
  EXPECT_GE(ThreadPool::HardwareParallelism(), 1);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(
      kN, 4,
      [&](int lane, int64_t begin, int64_t end) {
        EXPECT_GE(lane, 0);
        for (int64_t i = begin; i < end; ++i) visits[i].fetch_add(1);
      },
      /*min_chunk=*/16);
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForChunksAreContiguousAndOrdered) {
  // Chunk boundaries must be a pure function of (n, lanes): record them and
  // verify lane i's range is [boundaries[i], boundaries[i+1]).
  constexpr int64_t kN = 5000;
  int lanes = ParallelLanes(kN, 4, /*min_chunk=*/16);
  std::vector<std::pair<int64_t, int64_t>> ranges(lanes, {-1, -1});
  std::mutex mu;
  ParallelFor(
      kN, 4,
      [&](int lane, int64_t begin, int64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(lane, lanes);
        ranges[lane] = {begin, end};
      },
      /*min_chunk=*/16);
  int64_t expect_begin = 0;
  for (int lane = 0; lane < lanes; ++lane) {
    EXPECT_EQ(ranges[lane].first, expect_begin) << "lane " << lane;
    EXPECT_GT(ranges[lane].second, ranges[lane].first);
    expect_begin = ranges[lane].second;
  }
  EXPECT_EQ(expect_begin, kN);
}

TEST(ThreadPoolTest, SmallInputsRunInline) {
  EXPECT_EQ(ParallelLanes(10, 8), 1);          // below min_chunk * 2
  EXPECT_EQ(ParallelLanes(1 << 20, 1), 1);     // max_parallel == 1
  EXPECT_EQ(ParallelLanes(0, 8), 1);
  int calls = 0;
  ParallelFor(100, 8, [&](int lane, int64_t begin, int64_t end) {
    ++calls;
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(
      4096, 4,
      [&](int, int64_t begin, int64_t end) {
        // A lane that fans out again must not wait on pool peers.
        ParallelFor(
            end - begin, 4,
            [&](int, int64_t b, int64_t e) { total.fetch_add(e - b); },
            /*min_chunk=*/1);
      },
      /*min_chunk=*/16);
  EXPECT_EQ(total.load(), 4096);
}

TEST(ThreadPoolTest, ManyShortParallelForCallsReleaseTheirLatch) {
  // Every call's completion latch lives on the caller's stack. Near-empty
  // lanes make the last worker's decrement race the caller's return, so a
  // worker that touched the latch after the caller saw it reach zero would
  // use a destroyed mutex (ThreadSanitizer flags it; release builds could
  // abort in pthread_mutex_lock).
  std::atomic<int64_t> total{0};
  constexpr int kCalls = 2000;
  for (int call = 0; call < kCalls; ++call) {
    ParallelFor(
        8, 4,
        [&](int, int64_t begin, int64_t end) { total.fetch_add(end - begin); },
        /*min_chunk=*/1);
  }
  EXPECT_EQ(total.load(), 8 * kCalls);
}

// ---- parallel aggregation determinism ----

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  });
  return rows;
}

::testing::AssertionResult BitIdentical(const std::vector<Row>& serial,
                                        const std::vector<Row>& parallel) {
  std::vector<Row> a = SortedRows(serial);
  std::vector<Row> b = SortedRows(parallel);
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "row count " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {  // Value::operator== is exact, not approximate
      return ::testing::AssertionFailure()
             << "row " << i << " differs: " << RowToString(a[i]) << " vs "
             << RowToString(b[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

// Skewed, duplicate-heavy input: one giant group, a few medium ones, a long
// tail, and doubles whose sum is order-sensitive in the last bits.
std::vector<Row> SkewedInput(int64_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int64_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    int64_t r = static_cast<int64_t>(state >> 40);
    int64_t key = (r % 100 < 60) ? 0 : (r % 100 < 85) ? 1 + r % 3 : r % 997;
    double v = 1.0 + static_cast<double>(r % 1000) * 1e-7;
    rows.push_back(Row{Value::Int(key), Value::Double(v), Value::Int(r % 7)});
  }
  return rows;
}

/// AggregateBatch over `input` at `threads` lanes.
StatusOr<std::vector<Row>> AggregateAt(
    const std::vector<Row>& input, const std::vector<int>& grouping_cols,
    const std::vector<std::vector<int>>& sets,
    const std::vector<engine::AggSpec>& aggs, int threads) {
  engine::Batch batch = engine::BatchFromRows(input, 3);
  return engine::AggregateBatch(batch, grouping_cols, sets, aggs, threads);
}

TEST(ParallelAggregateTest, SkewedGroupsBitIdenticalToSerial) {
  std::vector<Row> input = SkewedInput(50000);
  std::vector<int> grouping_cols = {0};
  std::vector<std::vector<int>> sets = {{0}};
  std::vector<engine::AggSpec> aggs = {
      {expr::AggFunc::kCount, false, true, -1},
      {expr::AggFunc::kSum, false, false, 1},
      {expr::AggFunc::kMin, false, false, 1},
      {expr::AggFunc::kMax, false, false, 2},
  };
  auto serial = AggregateAt(input, grouping_cols, sets, aggs, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int threads : {2, 4, 8}) {
    auto parallel = AggregateAt(input, grouping_cols, sets, aggs, threads);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(BitIdentical(*serial, *parallel)) << threads << " threads";
  }
}

TEST(ParallelAggregateTest, GroupingSetsBitIdenticalToSerial) {
  std::vector<Row> input = SkewedInput(40000);
  std::vector<int> grouping_cols = {0, 2};
  // Cube-style sets incl. the serial-only empty (global) set.
  std::vector<std::vector<int>> sets = {{0, 1}, {0}, {1}, {}};
  std::vector<engine::AggSpec> aggs = {
      {expr::AggFunc::kSum, false, false, 1},
      {expr::AggFunc::kCount, false, false, 1},
  };
  auto serial = AggregateAt(input, grouping_cols, sets, aggs, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = AggregateAt(input, grouping_cols, sets, aggs, 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(BitIdentical(*serial, *parallel));
}

TEST(ParallelAggregateTest, DistinctAndAvgBitIdenticalToSerial) {
  std::vector<Row> input = SkewedInput(30000);
  std::vector<int> grouping_cols = {0};
  std::vector<std::vector<int>> sets = {{0}};
  std::vector<engine::AggSpec> aggs = {
      {expr::AggFunc::kCount, /*distinct=*/true, false, 2},
      {expr::AggFunc::kAvg, false, false, 1},
  };
  auto serial = AggregateAt(input, grouping_cols, sets, aggs, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = AggregateAt(input, grouping_cols, sets, aggs, 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_TRUE(BitIdentical(*serial, *parallel));
}

TEST(ParallelAggregateTest, EmptyInputStillYieldsGlobalRow) {
  std::vector<Row> input;
  auto out = AggregateAt(input, {}, {{}},
                         {{expr::AggFunc::kCount, false, true, -1}}, 4);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0][0].AsInt(), 0);
}

// ---- end-to-end: full queries at threads=1 vs threads=N ----

class ParallelQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    db_ = testing::MakeCardDb(20000);
  }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  engine::Relation RunAt(const std::string& sql, int threads) {
    QueryOptions opts;
    opts.max_threads = threads;
    opts.enable_plan_cache = false;  // isolate the executor under test
    StatusOr<QueryResult> result = db_->Query(sql, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? std::move(result->relation) : engine::Relation{};
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ParallelQueryTest, FilterScanPreservesSerialRowOrder) {
  // Morsel outputs are concatenated in chunk order: not just the same
  // multiset — the same sequence.
  const char* sql = "select tid, qty, price from trans where qty > 2";
  engine::Relation serial = RunAt(sql, 1);
  engine::Relation parallel = RunAt(sql, 4);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_TRUE(serial.rows[i] == parallel.rows[i]) << "row " << i;
  }
}

TEST_F(ParallelQueryTest, GroupByJoinHavingBitIdentical) {
  const char* sql =
      "select l.state, year(t.date) as y, count(*) as cnt, sum(t.qty) as sq, "
      "sum(t.price * t.qty) as rev from trans t, loc l "
      "where t.flid = l.lid and t.qty > 1 "
      "group by l.state, year(t.date) having count(*) > 10";
  engine::Relation serial = RunAt(sql, 1);
  engine::Relation parallel = RunAt(sql, 4);
  EXPECT_GT(serial.rows.size(), 0u);
  EXPECT_TRUE(BitIdentical(serial.rows, parallel.rows));
}

TEST_F(ParallelQueryTest, CubeBitIdentical) {
  const char* sql =
      "select faid, flid, sum(qty) as sq, count(*) as cnt from trans "
      "group by cube(faid, flid)";
  engine::Relation serial = RunAt(sql, 1);
  engine::Relation parallel = RunAt(sql, 8);
  EXPECT_TRUE(BitIdentical(serial.rows, parallel.rows));
}

TEST_F(ParallelQueryTest, DefaultThreadsMatchesSerialReference) {
  // max_threads = 0 resolves to hardware concurrency; answers must agree.
  const char* sql =
      "select faid, avg(price) as ap, min(qty) as mn from trans group by faid";
  engine::Relation serial = RunAt(sql, 1);
  engine::Relation def = RunAt(sql, 0);
  EXPECT_TRUE(BitIdentical(serial.rows, def.rows));
}

TEST_F(ParallelQueryTest, RowBudgetEnforcedAcrossLanes) {
  // Charge() is shared, atomic state: parallel lanes must still trip it.
  QueryOptions opts;
  opts.max_threads = 4;
  opts.max_rows = 100;
  opts.enable_rewrite = false;
  auto result =
      db_->Query("select tid, qty from trans where qty >= 1", opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), Status::Code::kResourceExhausted);
}

TEST_F(ParallelQueryTest, RewritePlusParallelStillEquivalent) {
  ASSERT_TRUE(db_->DefineSummaryTable(
                    "p1",
                    "select faid, flid, year(date) as y, count(*) as cnt, "
                    "sum(qty) as sq from trans group by faid, flid, year(date)")
                  .ok());
  const char* sql =
      "select faid, year(date) as y, sum(qty) as sq from trans "
      "group by faid, year(date)";
  QueryOptions par;
  par.max_threads = 4;
  StatusOr<QueryResult> routed = db_->Query(sql, par);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_TRUE(routed->used_summary_table);
  QueryOptions base;
  base.enable_rewrite = false;
  base.max_threads = 1;
  StatusOr<QueryResult> direct = db_->Query(sql, base);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(
      engine::SameRowMultiset(direct->relation, routed->relation));
}

// ---- FaultInjector under concurrency (regression for the worker-thread
//      bookkeeping fix: hits/trips are atomic, the times=k budget is claimed
//      by CAS, and PointState nodes are never freed under readers) ----

TEST(ParallelFaultInjectorTest, ConcurrentChecksTripExactlyBudget) {
  auto& fi = FaultInjector::Instance();
  fi.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  constexpr int kBudget = 57;
  fi.Arm("test/concurrent", Status::Internal("boom"), kBudget);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!fi.Check("test/concurrent").ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Exactly kBudget Checks failed — no lost or double-counted trips.
  EXPECT_EQ(failures.load(), kBudget);
  EXPECT_EQ(fi.Trips("test/concurrent"), kBudget);
  EXPECT_EQ(fi.Hits("test/concurrent"),
            static_cast<int64_t>(kThreads) * kPerThread);
  fi.Reset();
}

TEST(ParallelFaultInjectorTest, ResetWhileWorkersCheckIsSafe) {
  auto& fi = FaultInjector::Instance();
  fi.Reset();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) (void)fi.Check("test/reset-race");
    });
  }
  // Arm/Reset churn while workers hammer Check: PointState nodes persist, so
  // this must be free of use-after-free (TSan/ASan verify on CI).
  for (int i = 0; i < 200; ++i) {
    fi.Arm("test/reset-race", Status::Internal("boom"), 3);
    fi.Reset();
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(fi.Check("test/reset-race").ok());
}

TEST(ParallelFaultInjectorTest, UnlimitedFaultAlwaysTrips) {
  auto& fi = FaultInjector::Instance();
  fi.Reset();
  fi.Arm("test/unlimited", Status::Internal("boom"), -1);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        if (!fi.Check("test/unlimited").ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 2000);
  EXPECT_EQ(fi.Trips("test/unlimited"), 2000);
  fi.Reset();
}

// ---- concurrent read-only queries against one Database ----

TEST(ParallelQueryConcurrencyTest, ParallelQueriesOnTpcdAgree) {
  auto db = std::make_unique<Database>();
  data::TpcdParams params;
  params.num_lineitems = 5000;
  ASSERT_TRUE(data::SetupTpcdSchema(db.get(), params).ok());
  const char* sql =
      "select pkey, count(*) as cnt, sum(lqty) as sq from lineitem "
      "group by pkey";
  QueryOptions serial_opts;
  serial_opts.max_threads = 1;
  serial_opts.enable_plan_cache = false;
  StatusOr<QueryResult> reference = db->Query(sql, serial_opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : {2, 4}) {
    QueryOptions opts;
    opts.max_threads = threads;
    opts.enable_plan_cache = false;
    StatusOr<QueryResult> result = db->Query(sql, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(BitIdentical(reference->relation.rows, result->relation.rows));
  }
}

}  // namespace
}  // namespace sumtab
