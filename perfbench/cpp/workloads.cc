#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "engine/executor.h"
#include "matching/rewriter.h"
#include "qgm/qgm_builder.h"
#include "sql/parser.h"
#include "stream.h"
#include "sumtab/database.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using sumtab::Database;
using sumtab::QueryOptions;
using sumtab::QueryResult;
using sumtab::engine::Relation;

constexpr int kAppendRows = 200;
constexpr int kQueriesPerAppend = 4;
constexpr int kAppendsPerCycle = 4;  // the last append of a cycle is deferred
constexpr int kCyclesPerCheckpoint = 2;
constexpr int kRestartCheckTiles = 8;

// The closed loops run every query on one lane. At more lanes ParallelFor
// (src/common/thread_pool.cc) lets a finished lane lock the caller's
// stack-local done_mu after the caller may already have returned:
// ThreadSanitizer reports the race, and release builds aborted in about one
// full-size dashboard run in twenty ("pthread_mutex_lock: Assertion
// `mutex->__data.__owner == 0' failed"). Lane scaling is measured by the
// per-shape probes (engine.<shape>.ns_per_row.tN) until that is fixed.
constexpr int kLoopLanes = 1;

QueryOptions LoopOptions() {
  QueryOptions options;
  options.max_threads = kLoopLanes;
  return options;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// "p50 a  p90 b ..." for every percentile that has ten samples beyond it.
std::string Ladder(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::string out;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    size_t index = static_cast<size_t>(p / 100 * values.size());
    if (values.size() - index < 10) break;
    out += Format("p%g %.4f  ", p, values[index]);
  }
  return out;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

/// Executor options matching what Database::Query uses for `max_threads`
/// (0 = every hardware lane).
sumtab::engine::ExecOptions ExecOptionsFor(int max_threads) {
  sumtab::engine::ExecOptions options;
  options.vectorized = true;
  options.max_threads = max_threads == 0
                            ? sumtab::ThreadPool::HardwareParallelism()
                            : max_threads;
  return options;
}

/// Times spent in replayed layer calls, summed over traced ops.
struct LayerTotals {
  int64_t calls = 0;
  int64_t ns = 0;
  void Add(int64_t start, int64_t end) {
    ++calls;
    ns += end - start;
  }
  double MeanUs() const { return Ratio(static_cast<double>(ns) / 1e3, calls); }
};

class Run {
 public:
  explicit Run(const Config& config)
      : cfg_(config), check_rng_(config.seed * 0xc3a5c85c97cb3127ULL + 3) {}

  RunResult Execute();

 private:
  bool SetUp();
  std::string DataDir(int k) const;
  bool Durable() const { return cfg_.workload == "ingest"; }

  /// Elapsed loop time that counts against --seconds: answer checks run
  /// outside it.
  double LoopSeconds(int64_t start) const {
    return static_cast<double>(NowNs() - start - check_ns_) / 1e9;
  }

  /// Issues one query of the stream. `check` forces an answer check (the
  /// seeded sample adds more). Returns the result when it succeeded.
  std::optional<QueryResult> Query(const QueryOp& op, bool traced,
                                   bool check = false);
  void ReplayLayers(const QueryOp& op, const QueryResult& result,
                    int64_t op_id, int64_t start, int64_t end);
  void CheckAnswer(const std::string& sql, const Relation& got);
  void RunPendingChecks();
  void Warm(const std::vector<QueryOp>& ops);
  void Fail(const std::string& what);

  template <typename Stream>
  void RunRounds(Stream* stream);
  void RunDashboard();
  void RunAdhoc();
  void RunIngest();
  void Restart(const std::vector<QueryOp>& tiles);
  void ProbeShapes();
  void Report();

  const Config& cfg_;
  RunResult out_;
  std::unique_ptr<Database> db_;
  std::vector<sumtab::qgm::Graph> ast_graphs_;
  Tracer tracer_;
  Rng check_rng_;
  double check_share_ = 0;
  // dashboard checks its sampled answers after the loop, so a base-table
  // reference scan never evicts the small ASTs the next timed query reads.
  // Elsewhere answers are checked at once: adhoc_scan's run up to 100k rows,
  // too many to hold, and ingest's database changes under them.
  bool defer_checks_ = false;
  std::vector<std::pair<std::string, Relation>> pending_checks_;
  int64_t next_op_ = 0;

  std::vector<double> setup_s_;
  int64_t loop_ops_ = 0;
  int64_t loop_ns_ = 0;   // loop wall time, answer checks excluded
  int64_t check_ns_ = 0;  // time spent in answer checks
  int64_t replay_ns_ = 0;

  // Queries.
  std::vector<double> query_ms_;     // untraced queries
  std::vector<double> traced_ms_;    // queries whose layers were replayed
  std::vector<double> compensated_ms_;
  int64_t queries_ = 0, rewritten_ = 0, cache_hits_ = 0, compensated_ = 0;
  int64_t comp_delta_rows_ = 0, checks_ = 0;
  std::map<std::string, int64_t> base_answers_;  // by template: not rewritten
  std::map<std::string, std::vector<double>> template_ms_;  // untraced, by template

  // Layer replays (traced ops only).
  LayerTotals parse_, build_, rewrite_, execute_, first_execute_;
  int64_t traced_queries_ = 0, rewrite_accepts_ = 0;
  int64_t attributed_ns_ = 0, attributed_query_ns_ = 0;

  // Writes (ingest).
  std::vector<double> append_ms_, first_after_append_ms_, checkpoint_ms_;
  double incremental_ms_ = 0, recompute_ms_ = 0, append_base_ms_ = 0;
  int64_t appended_rows_ = 0, plan_invalidations_ = 0, wal_bytes_ = 0;
  double recovery_s_ = 0, open_s_ = 0, replayed_records_ = 0;

  // Per-operator probes.
  std::vector<std::pair<std::string, std::pair<double, double>>> shape_ms_;
  int64_t probe_rows_ = 0;
};

void Run::Fail(const std::string& what) {
  ++out_.failed;
  out_.correct = false;
  if (out_.failed <= 5) out_.notes.push_back("FAILED " + what);
}

std::string Run::DataDir(int k) const {
  return cfg_.work_dir + "/ingest-" + std::to_string(getpid()) + "-" +
         std::to_string(k);
}

bool Run::SetUp() {
  for (int k = 0; k < cfg_.setups; ++k) {
    db_.reset();
    if (Durable() && k > 0) fs::remove_all(DataDir(k - 1));
    int64_t start = NowNs();
    std::unique_ptr<Database> db;
    if (Durable()) {
      fs::remove_all(DataDir(k));
      sumtab::DatabaseOptions options;
      options.data_dir = DataDir(k);
      auto opened = Database::Open(options);
      if (!opened.ok()) {
        Fail("open: " + opened.status().ToString());
        return false;
      }
      db = std::move(*opened);
    } else {
      db = std::make_unique<Database>();
    }
    sumtab::Status st = sumtab::data::SetupCardSchema(db.get(), cfg_.data);
    if (!st.ok()) {
      Fail("load: " + st.ToString());
      return false;
    }
    for (const AstDef& ast : SummaryTables()) {
      auto rows = db->DefineSummaryTable(ast.name, ast.sql);
      if (!rows.ok()) {
        Fail(std::string("define ") + ast.name + ": " +
             rows.status().ToString());
        return false;
      }
    }
    setup_s_.push_back(static_cast<double>(NowNs() - start) / 1e9);
    db_ = std::move(db);
  }
  // The AST graphs the matching replays try, built once, untimed.
  for (const AstDef& ast : SummaryTables()) {
    auto stmt = sumtab::sql::Parse(ast.sql);
    auto graph = stmt.ok() ? sumtab::qgm::BuildGraph(**stmt, db_->catalog())
                           : sumtab::StatusOr<sumtab::qgm::Graph>(stmt.status());
    if (!graph.ok()) {
      Fail(std::string("ast graph ") + ast.name);
      return false;
    }
    ast_graphs_.push_back(std::move(*graph));
  }
  return true;
}

std::optional<QueryResult> Run::Query(const QueryOp& op, bool traced,
                                      bool check) {
  int64_t op_id = next_op_++;
  ++out_.attempted;
  ++loop_ops_;
  // Drawn for every op, so the sample depends only on the seed.
  bool sampled = static_cast<double>(check_rng_.Next() % 1000000) / 1e6 <
                 check_share_;
  int64_t start = NowNs();
  auto result = db_->Query(op.sql, LoopOptions());
  int64_t end = NowNs();
  if (!result.ok()) {
    Fail("query " + op.tmpl + ": " + result.status().ToString());
    return std::nullopt;
  }
  double ms = Ms(end - start);
  ++queries_;
  (traced ? traced_ms_ : query_ms_).push_back(ms);
  if (!traced) template_ms_[op.tmpl].push_back(ms);
  if (result->used_summary_table) {
    ++rewritten_;
  } else {
    ++base_answers_[op.tmpl];
  }
  if (result->plan_cache_hit) ++cache_hits_;
  if (result->compensated) {
    ++compensated_;
    comp_delta_rows_ += result->compensation_delta_rows;
    compensated_ms_.push_back(ms);
  }
  if (traced) ReplayLayers(op, *result, op_id, start, end);
  if (check || sampled) {
    if (defer_checks_) {
      pending_checks_.push_back({op.sql, result->relation});
    } else {
      CheckAnswer(op.sql, result->relation);
    }
  }
  return std::move(*result);
}

void Run::RunPendingChecks() {
  for (const auto& [sql, relation] : pending_checks_) CheckAnswer(sql, relation);
  pending_checks_.clear();
}

// Times each layer from outside, through its public entry point, on the
// op's SQL: what Database::Query ran inside for this op. A plan-cache hit
// skipped parse, QGM build and matching, so only execution is replayed. A
// compensated answer runs two legs the facade does not expose; only its
// Query span is kept.
void Run::ReplayLayers(const QueryOp& op, const QueryResult& result,
                       int64_t op_id, int64_t start, int64_t end) {
  namespace sql = sumtab::sql;
  namespace qgm = sumtab::qgm;
  int64_t begin = NowNs();
  ++traced_queries_;
  int64_t root = tracer_.Record("op", op_id, -1, start, end);
  tracer_.Record("query", op_id, root, start, end);
  if (result.compensated) {
    replay_ns_ += NowNs() - begin;
    return;
  }
  int64_t layer_ns = 0;
  std::optional<qgm::Graph> original;
  if (!result.plan_cache_hit) {
    int64_t a = NowNs();
    auto stmt = sql::Parse(op.sql);
    int64_t b = NowNs();
    tracer_.Record("sql.parse", op_id, root, a, b);
    parse_.Add(a, b);
    if (!stmt.ok()) return Fail("replay parse: " + stmt.status().ToString());
    auto graph = qgm::BuildGraph(**stmt, db_->catalog());
    int64_t c = NowNs();
    tracer_.Record("qgm.build", op_id, root, b, c);
    build_.Add(b, c);
    if (!graph.ok()) return Fail("replay build: " + graph.status().ToString());
    layer_ns += c - a;
    for (size_t i = 0; i < ast_graphs_.size(); ++i) {
      sumtab::matching::SummaryTableDef def{SummaryTables()[i].name,
                                            &ast_graphs_[i]};
      int64_t d = NowNs();
      auto rewrite = sumtab::matching::RewriteQuery(*graph, def, db_->catalog());
      int64_t e = NowNs();
      tracer_.Record("matching.rewrite", op_id, root, d, e);
      rewrite_.Add(d, e);
      layer_ns += e - d;
      if (rewrite.ok() && rewrite->rewritten) ++rewrite_accepts_;
    }
    original = std::move(*graph);
  }
  // The executed plan: the rewritten SQL's graph, else the original's.
  // Building it here is preparation, not attributed to any layer.
  qgm::Graph plan;
  if (!result.used_summary_table && original.has_value()) {
    plan = std::move(*original);
  } else {
    auto stmt = sql::Parse(result.used_summary_table ? result.rewritten_sql
                                                     : op.sql);
    auto graph = stmt.ok() ? qgm::BuildGraph(**stmt, db_->catalog())
                           : sumtab::StatusOr<qgm::Graph>(stmt.status());
    if (!graph.ok()) return Fail("replay plan: " + graph.status().ToString());
    plan = std::move(*graph);
  }
  int64_t x = NowNs();
  auto rel = sumtab::engine::Executor(db_->storage(),
                                      ExecOptionsFor(kLoopLanes))
                 .Execute(plan);
  int64_t y = NowNs();
  tracer_.Record("engine.execute", op_id, root, x, y);
  execute_.Add(x, y);
  if (!rel.ok()) return Fail("replay execute: " + rel.status().ToString());
  layer_ns += y - x;
  attributed_ns_ += layer_ns;
  attributed_query_ns_ += end - start;
  tracer_.Extend(root, NowNs());
  replay_ns_ += NowNs() - begin;
}

void Run::CheckAnswer(const std::string& sql, const Relation& got) {
  int64_t start = NowNs();
  ++checks_;
  QueryOptions direct = LoopOptions();
  direct.enable_rewrite = false;
  direct.enable_plan_cache = false;
  direct.record_workload = false;
  auto want = db_->Query(sql, direct);
  if (!want.ok()) {
    Fail("reference query: " + want.status().ToString());
  } else if (!sumtab::engine::SameRowMultiset(got, want->relation)) {
    Fail("answer differs from base-table execution: " + sql);
  }
  check_ns_ += NowNs() - start;
}

// Lets lazily built state settle before timing: the columnar twins of the
// base table and every AST, and a plan-cache entry per tile.
void Run::Warm(const std::vector<QueryOp>& ops) {
  for (const QueryOp& op : ops) {
    auto result = db_->Query(op.sql, LoopOptions());
    if (!result.ok()) Fail("warm-up " + op.tmpl + ": " + result.status().ToString());
  }
  QueryOptions direct = LoopOptions();
  direct.enable_rewrite = false;
  direct.record_workload = false;
  auto base = db_->Query("select count(*) as cnt from trans", direct);
  if (!base.ok()) Fail("warm-up scan: " + base.status().ToString());
}

// Whole rounds until --seconds of loop time have passed.
template <typename Stream>
void Run::RunRounds(Stream* stream) {
  check_share_ = cfg_.check_share;
  int64_t start = NowNs();
  for (int64_t round = 0; LoopSeconds(start) < cfg_.seconds; ++round) {
    bool traced = cfg_.trace && round % 2 == 1;
    for (const QueryOp& op : stream->NextRound()) Query(op, traced);
  }
  loop_ns_ = NowNs() - start - check_ns_;
  RunPendingChecks();
}

void Run::RunDashboard() {
  DashboardStream stream(cfg_.seed, cfg_.data);
  Warm(stream.tiles());
  defer_checks_ = true;
  RunRounds(&stream);
}

void Run::RunAdhoc() {
  AdhocStream stream(cfg_.seed);
  Warm({});
  RunRounds(&stream);
}

// Whole periods until --seconds of loop time have passed. A period is a
// checkpoint and kCyclesPerCheckpoint cycles; a cycle is kAppendsPerCycle
// appends, the last deferred, each followed by kQueriesPerAppend tile
// queries. Query slot s reads tile (s mod 10 templates, variant s/10 mod 4),
// so every seed runs the same op mix, and the restart always replays one
// period's appends; only literals and appended rows follow the seed.
void Run::RunIngest() {
  DashboardStream stream(cfg_.seed, cfg_.data);
  const std::vector<QueryOp>& tiles = stream.tiles();
  const size_t templates = tiles.size() / DashboardStream::kTilesPerTemplate;
  Rng rng(cfg_.seed * 0xd1b54a32d192ed03ULL + 5);
  check_share_ = cfg_.check_share;
  Warm(tiles);
  int64_t next_tid = db_->TableRows("trans");
  sumtab::DatabaseStats before = db_->Stats();
  size_t slot = 0;
  int64_t unit = 0;
  int64_t start = NowNs();
  while (LoopSeconds(start) < cfg_.seconds) {
    ++out_.attempted;
    ++loop_ops_;
    int64_t c0 = NowNs();
    sumtab::Status st = db_->Checkpoint();
    checkpoint_ms_.push_back(Ms(NowNs() - c0));
    if (!st.ok()) Fail("checkpoint: " + st.ToString());
    for (int cycle = 0; cycle < kCyclesPerCheckpoint; ++cycle) {
      bool traced = cfg_.trace && unit++ % 2 == 1;
      for (int a = 0; a < kAppendsPerCycle; ++a) {
        Database::AppendOptions options;
        options.maintain = a != kAppendsPerCycle - 1;
        std::vector<sumtab::Row> rows =
            AppendBatch(&rng, next_tid, kAppendRows, cfg_.data);
        next_tid += kAppendRows;
        ++out_.attempted;
        ++loop_ops_;
        int64_t a0 = NowNs();
        auto report = db_->Append("trans", std::move(rows), options);
        int64_t a1 = NowNs();
        if (!report.ok()) {
          Fail("append: " + report.status().ToString());
          continue;
        }
        appended_rows_ += kAppendRows;
        append_ms_.push_back(Ms(a1 - a0));
        double entries_ms = 0;
        for (const Database::RefreshEntry& e : report->entries) {
          if (e.mode == Database::RefreshMode::kIncremental) {
            incremental_ms_ += e.millis;
          } else if (e.mode == Database::RefreshMode::kRecompute) {
            recompute_ms_ += e.millis;
          } else if (e.mode == Database::RefreshMode::kFailed) {
            Fail("maintenance of " + e.summary_table + ": " + e.error);
          }
          entries_ms += e.millis;
        }
        append_base_ms_ += Ms(a1 - a0) - entries_ms;
        if (traced) {
          int64_t root =
              tracer_.Record("op", next_op_, -1, a0, a1);
          tracer_.Record("append", next_op_, root, a0, a1);
          ++next_op_;
        }
        for (int q = 0; q < kQueriesPerAppend; ++q) {
          const QueryOp& op =
              tiles[(slot % templates) * DashboardStream::kTilesPerTemplate +
                    (slot / templates) % DashboardStream::kTilesPerTemplate];
          ++slot;
          // The first answer after a deferred append is compensated, the
          // first after the next (recomputing) append reads fresh ASTs:
          // both are always checked.
          bool check = q == 0 && (a == 0 || a == kAppendsPerCycle - 1);
          int64_t before_exec = execute_.ns;
          auto result = Query(op, traced, check);
          if (q == 0 && result.has_value()) {
            first_after_append_ms_.push_back(traced ? traced_ms_.back()
                                                    : query_ms_.back());
            if (traced && !result->compensated) {
              first_execute_.Add(before_exec, execute_.ns);
            }
          }
        }
      }
    }
  }
  loop_ns_ = NowNs() - start - check_ns_;
  sumtab::DatabaseStats after = db_->Stats();
  plan_invalidations_ =
      after.plan_cache_invalidations - before.plan_cache_invalidations;
  wal_bytes_ = after.durability.wal_bytes - before.durability.wal_bytes;
  Restart(tiles);
}

// Closes the database, reopens it and times Open() to the first answered
// query; then checks the reopened database answers like before.
void Run::Restart(const std::vector<QueryOp>& tiles) {
  std::vector<Relation> before;
  for (int k = 0; k < kRestartCheckTiles; ++k) {
    auto result = db_->Query(tiles[static_cast<size_t>(k)].sql, LoopOptions());
    if (!result.ok()) return Fail("pre-restart query: " + result.status().ToString());
    before.push_back(std::move(result->relation));
  }
  db_.reset();
  ++out_.attempted;
  sumtab::DatabaseOptions options;
  options.data_dir = DataDir(cfg_.setups - 1);
  int64_t start = NowNs();
  auto reopened = Database::Open(options);
  int64_t opened = NowNs();
  if (!reopened.ok()) return Fail("reopen: " + reopened.status().ToString());
  db_ = std::move(*reopened);
  auto first = db_->Query(tiles[0].sql, LoopOptions());
  int64_t end = NowNs();
  if (!first.ok()) return Fail("first query after reopen: " + first.status().ToString());
  recovery_s_ = static_cast<double>(end - start) / 1e9;
  open_s_ = static_cast<double>(opened - start) / 1e9;
  replayed_records_ =
      static_cast<double>(db_->Stats().durability.recovery_replayed_records);
  for (const sumtab::RecoveryEvent& event : db_->recovery_events()) {
    out_.notes.push_back("recovery event " + event.kind + ": " + event.detail);
  }
  for (int k = 0; k < kRestartCheckTiles; ++k) {
    auto result = db_->Query(tiles[static_cast<size_t>(k)].sql, LoopOptions());
    if (!result.ok() ||
        !sumtab::engine::SameRowMultiset(before[static_cast<size_t>(k)],
                                         result->relation)) {
      Fail("answer changed across restart: " + tiles[static_cast<size_t>(k)].sql);
    }
  }
}

// Executor::Execute on each adhoc_scan shape, at one lane and at every
// hardware lane, over this workload's trans table.
void Run::ProbeShapes() {
  AdhocStream stream(cfg_.seed);
  probe_rows_ = db_->TableRows("trans");
  for (const QueryOp& probe : stream.ShapeProbes()) {
    auto stmt = sumtab::sql::Parse(probe.sql);
    auto graph = stmt.ok() ? sumtab::qgm::BuildGraph(**stmt, db_->catalog())
                           : sumtab::StatusOr<sumtab::qgm::Graph>(stmt.status());
    if (!graph.ok()) return Fail("probe " + probe.tmpl);
    double ms[2] = {0, 0};
    Relation answers[2];
    for (int lanes = 0; lanes < 2; ++lanes) {
      std::vector<double> runs;
      for (int r = 0; r < cfg_.probe_reps; ++r) {
        int64_t start = NowNs();
        auto rel = sumtab::engine::Executor(db_->storage(),
                                            ExecOptionsFor(lanes == 0 ? 1 : 0))
                       .Execute(*graph);
        runs.push_back(Ms(NowNs() - start));
        if (!rel.ok()) return Fail("probe " + probe.tmpl + ": " + rel.status().ToString());
        answers[lanes] = std::move(*rel);
      }
      ms[lanes] = Median(runs);
    }
    if (!sumtab::engine::SameRowMultiset(answers[0], answers[1])) {
      Fail("probe " + probe.tmpl + ": 1 lane and all lanes disagree");
    }
    shape_ms_.push_back({probe.shape, {ms[0], ms[1]}});
  }
}

void Run::Report() {
  MetricSet& e2e = out_.end_to_end;
  Tail tail = TailOf(query_ms_);
  double query_s = std::accumulate(query_ms_.begin(), query_ms_.end(), 0.0) / 1e3;
  double loop_s = static_cast<double>(loop_ns_ - replay_ns_) / 1e9;
  e2e.Set("query_p50_ms", Median(query_ms_), "ms");
  e2e.Set("query_tail_ms", tail.value, "ms");
  e2e.Set("queries_per_s", Ratio(static_cast<double>(query_ms_.size()), query_s),
          "1/s");
  e2e.Set("ops_per_s", Ratio(static_cast<double>(loop_ops_), loop_s), "1/s");
  e2e.Set("setup_s", Median(setup_s_), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Set("rewrite_rate", Ratio(rewritten_, queries_), "ratio");
  e2e.Set("failed_op_ratio", Ratio(out_.failed, out_.attempted), "ratio");
  out_.notes.push_back(Format("query_tail_ms is p%.3f of %zu untraced queries",
                              tail.percentile, tail.samples));
  out_.notes.push_back("query latency ms: " + Ladder(query_ms_));
  std::string medians = "median ms by template:";
  for (const auto& [tmpl, ms] : template_ms_) {
    medians += Format(" %s %.4g", tmpl.c_str(), Median(ms));
  }
  out_.notes.push_back(medians);
  if (cfg_.workload == "ingest") {
    Tail append_tail = TailOf(append_ms_);
    e2e.Set("append_p50_ms", Median(append_ms_), "ms");
    e2e.Set("append_tail_ms", append_tail.value, "ms");
    e2e.Set("first_query_after_append_ms", Median(first_after_append_ms_), "ms");
    e2e.Set("recovery_s", recovery_s_, "s");
    out_.notes.push_back(Format("append_tail_ms is p%.3f of %zu appends",
                                append_tail.percentile, append_tail.samples));
  }
  out_.notes.push_back(Format(
      "%lld ops, %lld queries (%lld plan-cache hits, %lld compensated), "
      "%zu appends, %lld answer checks",
      static_cast<long long>(loop_ops_), static_cast<long long>(queries_),
      static_cast<long long>(cache_hits_), static_cast<long long>(compensated_),
      append_ms_.size(), static_cast<long long>(checks_)));
  if (rewritten_ > 0 && !base_answers_.empty()) {
    std::string line = "answered from base tables:";
    for (const auto& [tmpl, count] : base_answers_) {
      line += Format(" %s x%lld", tmpl.c_str(), static_cast<long long>(count));
    }
    out_.notes.push_back(line);
  }
  if (!cfg_.trace) return;

  MetricSet& layer = out_.per_layer;
  for (const std::string& name : PerLayerNames()) layer.Set(name, 0, "");
  double appends = static_cast<double>(append_ms_.size());
  double incremental = Ratio(incremental_ms_, appends);
  double recompute = Ratio(recompute_ms_, appends);
  layer.Set("sql.parse_us", parse_.MeanUs(), "us");
  layer.Set("qgm.build_us", build_.MeanUs(), "us");
  layer.Set("matching.rewrite_us", rewrite_.MeanUs(), "us");
  layer.Set("matching.asts_tried", Ratio(rewrite_.calls, traced_queries_),
            "count");
  layer.Set("matching.accept_ratio", Ratio(rewrite_accepts_, rewrite_.calls),
            "ratio");
  layer.Set("plan_cache.hit_ratio", Ratio(cache_hits_, queries_), "ratio");
  layer.Set("plan_cache.invalidations_per_append",
            Ratio(plan_invalidations_, appends), "count");
  layer.Set("engine.execute_ms", execute_.MeanUs() / 1e3, "ms");
  double t1_sum = 0, tn_sum = 0;
  for (const auto& [shape, ms] : shape_ms_) {
    double rows = static_cast<double>(probe_rows_);
    layer.Set("engine." + shape + ".ns_per_row.t1", Ratio(ms.first * 1e6, rows),
              "ns");
    layer.Set("engine." + shape + ".ns_per_row.tN",
              Ratio(ms.second * 1e6, rows), "ns");
    t1_sum += ms.first;
    tn_sum += ms.second;
  }
  layer.Set("engine.parallel_speedup", Ratio(t1_sum, tn_sum), "ratio");
  layer.Set("engine.first_execute_after_append_ms",
            first_execute_.MeanUs() / 1e3, "ms");
  layer.Set("maintenance.incremental_ms", incremental, "ms");
  layer.Set("maintenance.recompute_ms", recompute, "ms");
  layer.Set("maintenance.incremental_share",
            Ratio(incremental, incremental + recompute), "ratio");
  layer.Set("append.base_ms", Ratio(append_base_ms_, appends), "ms");
  layer.Set("compensation.query_ms", Mean(compensated_ms_), "ms");
  layer.Set("compensation.delta_rows", Ratio(comp_delta_rows_, compensated_),
            "count");
  layer.Set("compensation.share", Ratio(compensated_, queries_), "ratio");
  layer.Set("wal.bytes_per_appended_row", Ratio(wal_bytes_, appended_rows_),
            "B");
  layer.Set("wal.checkpoint_ms", Median(checkpoint_ms_), "ms");
  layer.Set("wal.replay_records_per_s", Ratio(replayed_records_, open_s_),
            "1/s");
  layer.Set("wal.open_s", open_s_, "s");
  layer.Set("query.unattributed_share",
            1 - Ratio(attributed_ns_, attributed_query_ns_), "ratio");
  layer.Set("trace.query_p50_delta", Median(traced_ms_) - Median(query_ms_),
            "ms");
  layer.Set("rewrite_rate", Ratio(rewritten_, queries_), "ratio");

  for (const auto& [name, t] : SelfTimeByName(tracer_.spans())) {
    out_.notes.push_back(Format("span %-18s calls %8lld  total %10.3f ms  "
                                "self %10.3f ms",
                                name.c_str(), static_cast<long long>(t.calls),
                                Ms(t.total_ns), Ms(t.self_ns)));
  }
  std::string path = cfg_.work_dir + "/spans-" + cfg_.workload + "-seed" +
                     std::to_string(cfg_.seed) + ".jsonl";
  if (tracer_.WriteJsonLines(path)) {
    out_.notes.push_back("spans written to " + path);
  }
}

RunResult Run::Execute() {
  if (SetUp()) {
    if (cfg_.workload == "dashboard") {
      RunDashboard();
    } else if (cfg_.workload == "adhoc_scan") {
      RunAdhoc();
    } else {
      RunIngest();
    }
    if (cfg_.trace && db_ != nullptr) ProbeShapes();
  }
  Report();
  db_.reset();
  if (Durable()) fs::remove_all(DataDir(cfg_.setups - 1));
  return std::move(out_);
}

}  // namespace

bool DefaultConfig(const std::string& workload, Config* config) {
  config->workload = workload;
  config->data.num_trans = 1000000;
  if (workload == "dashboard") {
    config->check_share = 0.002;
  } else if (workload == "adhoc_scan") {
    config->data.num_trans = 200000;
    config->data.num_accounts = 100000;
    config->data.num_customers = 20000;
    config->check_share = 0.1;
  } else if (workload == "ingest") {
    config->data.num_trans = 200000;
    config->check_share = 0;
  } else {
    return false;
  }
  return true;
}

RunResult RunWorkload(const Config& config) {
  Config seeded = config;
  seeded.data.seed = config.seed;
  return Run(seeded).Execute();
}

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> kNames = {
      "query_p50_ms", "query_tail_ms", "queries_per_s",
      "ops_per_s",    "setup_s",       "peak_rss_mb"};
  return kNames;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names = {
        "sql.parse_us",         "qgm.build_us",
        "matching.rewrite_us",  "matching.asts_tried",
        "matching.accept_ratio", "plan_cache.hit_ratio",
        "plan_cache.invalidations_per_append", "engine.execute_ms"};
    for (const char* shape :
         {"scan", "filter", "join", "group_low", "group_high", "cube"}) {
      names.push_back(std::string("engine.") + shape + ".ns_per_row.t1");
      names.push_back(std::string("engine.") + shape + ".ns_per_row.tN");
    }
    for (const char* name :
         {"engine.parallel_speedup", "engine.first_execute_after_append_ms",
          "maintenance.incremental_ms", "maintenance.recompute_ms",
          "maintenance.incremental_share", "append.base_ms",
          "compensation.query_ms", "compensation.delta_rows",
          "compensation.share", "wal.bytes_per_appended_row",
          "wal.checkpoint_ms", "wal.replay_records_per_s", "wal.open_s",
          "query.unattributed_share", "trace.query_p50_delta",
          "rewrite_rate"}) {
      names.push_back(name);
    }
    return names;
  }();
  return kNames;
}

}  // namespace perfbench
