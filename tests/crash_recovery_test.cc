// Crash-recovery harness: a child process (bench/crash_driver) applies a
// deterministic op script against a durable Database and is SIGKILLed at a
// FaultInjector-chosen point — mid-append, mid-fsync, mid-checkpoint, with a
// torn final write, or in the middle of a later recovery. The parent (this
// test) recovers the directory in-process and requires the result to be
// equivalent (same answers across the no-rewrite/rewrite/parallel matrix
// and against the reference evaluator, same rewrite decisions) to a
// never-crashed in-memory twin of SOME valid operation prefix:
//
//   k  in  { acked,  acked + 1 }
//
// Strict WAL mode acks an op only after its record is fsync'd, so every
// acked op must survive; the single in-flight op may or may not have made it
// to disk. Anything else — a lost acked op, a resurrected half-op, a wrong
// merge — fails the matrix.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/crash_script.h"
#include "engine/relation.h"
#include "sumtab/database.h"
#include "tests/reference.h"

#ifndef SUMTAB_CRASH_DRIVER
#error "SUMTAB_CRASH_DRIVER (path to the crash_driver binary) must be defined"
#endif

namespace sumtab {
namespace {

namespace fs = std::filesystem;

struct ChildResult {
  bool killed = false;   // terminated by SIGKILL (the armed crash fired)
  int exit_code = -1;    // valid when !killed
};

ChildResult RunDriver(const std::vector<std::string>& args) {
  std::vector<std::string> argv_strings = args;
  argv_strings.insert(argv_strings.begin(), SUMTAB_CRASH_DRIVER);
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  EXPECT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  ChildResult result;
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGKILL) << "child died of unexpected signal";
    result.killed = true;
  } else {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

/// Number of acked ops; the file must hold exactly 0,1,...,m-1.
int ReadAcks(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  int expected = 0;
  int value = 0;
  while (in >> value) {
    EXPECT_EQ(value, expected) << "ack file skipped an op";
    ++expected;
  }
  return expected;
}

std::unique_ptr<Database> Twin(int k) {
  auto db = std::make_unique<Database>();
  for (int i = 0; i < k; ++i) {
    Status st = crash_script::ApplyOp(db.get(), i);
    EXPECT_TRUE(st.ok()) << "twin op " << i << ": " << st.ToString();
    if (!st.ok()) return nullptr;
  }
  return db;
}

/// Differential: every check query with rewriting off, on, and
/// on+parallel, recovered vs twin, plus the recovered answer against the
/// reference evaluator over the twin. Returns a description of the first
/// divergence, empty when equivalent.
std::string MatrixDiff(Database* recovered, Database* twin) {
  struct Leg {
    const char* name;
    QueryOptions options;
  };
  QueryOptions no_rewrite;
  no_rewrite.enable_rewrite = false;
  no_rewrite.max_threads = 1;
  QueryOptions rewrite;
  rewrite.max_threads = 1;
  QueryOptions parallel;
  parallel.max_threads = 4;
  const std::vector<Leg> legs = {
      {"no-rewrite", no_rewrite}, {"rewrite", rewrite}, {"parallel", parallel}};
  for (const std::string& sql : crash_script::CheckQueries()) {
    for (const Leg& leg : legs) {
      StatusOr<QueryResult> a = recovered->Query(sql, leg.options);
      StatusOr<QueryResult> b = twin->Query(sql, leg.options);
      if (a.ok() != b.ok()) {
        return std::string(leg.name) + " \"" + sql + "\": recovered " +
               (a.ok() ? "succeeded" : a.status().ToString()) + ", twin " +
               (b.ok() ? "succeeded" : b.status().ToString());
      }
      if (!a.ok()) continue;  // both failed identically (table not yet made)
      if (a->used_summary_table != b->used_summary_table) {
        return std::string(leg.name) + " \"" + sql +
               "\": rewrite decisions diverge (recovered=" +
               (a->used_summary_table ? "rewrote" : "base") + ")";
      }
      if (!engine::SameRowMultiset(a->relation, b->relation)) {
        return std::string(leg.name) + " \"" + sql +
               "\": answers diverge\nrecovered:\n" + a->relation.ToString(30) +
               "twin:\n" + b->relation.ToString(30);
      }
    }
    StatusOr<QueryResult> got = recovered->Query(sql, no_rewrite);
    StatusOr<engine::Relation> want = reference::Query(*twin, sql);
    if (got.ok() != want.ok()) {
      return "reference \"" + sql + "\": recovered " +
             (got.ok() ? "succeeded" : got.status().ToString()) +
             ", reference over twin " +
             (want.ok() ? "succeeded" : want.status().ToString());
    }
    if (got.ok()) {
      ::testing::AssertionResult same =
          reference::MatchesReference(got->relation, *want);
      if (!same) {
        return "reference \"" + sql + "\": " + same.message() +
               "\nrecovered:\n" + got->relation.ToString(30) +
               "reference over twin:\n" + want->ToString(30);
      }
    }
  }
  return "";
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "sumtab_crash_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// One kill iteration: run the child against a fresh dir until it dies at
  /// `point` (hit `n`), recover in-process, and demand equivalence with some
  /// twin prefix. Returns whether the child was actually killed.
  bool RunOneCrash(const std::string& point, int n, int iteration) {
    const std::string dir = root_ + "/run" + std::to_string(iteration);
    const std::string acks = dir + ".acks";
    ChildResult child = RunDriver({"run", dir, acks, point, std::to_string(n)});
    if (!child.killed) {
      // The armed hit count was never reached: the whole script committed.
      EXPECT_EQ(child.exit_code, 0)
          << point << " hit " << n << ": child failed without crashing";
    }
    const int acked = ReadAcks(acks);
    const int total = crash_script::ScriptLength();
    EXPECT_LE(acked, total);

    StatusOr<std::unique_ptr<Database>> recovered = Database::Open(
        DatabaseOptions{.data_dir = dir});
    EXPECT_TRUE(recovered.ok())
        << point << " hit " << n << ": recovery failed: "
        << recovered.status().ToString();
    if (!recovered.ok()) return child.killed;

    std::vector<int> candidates;
    if (!child.killed) {
      candidates = {total};
    } else {
      candidates = {acked, std::min(acked + 1, total)};
    }
    std::string diffs;
    int matched = -1;
    for (int k : candidates) {
      auto twin = Twin(k);
      if (twin == nullptr) return child.killed;
      std::string diff = MatrixDiff(recovered->get(), twin.get());
      if (diff.empty()) {
        matched = k;
        // The recovered database must stay fully functional: finish the
        // script on BOTH and compare again.
        for (int i = k; i < total; ++i) {
          Status ra = crash_script::ApplyOp(recovered->get(), i);
          Status rb = crash_script::ApplyOp(twin.get(), i);
          EXPECT_EQ(ra.ok(), rb.ok())
              << point << " hit " << n << ": post-recovery op " << i
              << " diverged: " << ra.ToString() << " vs " << rb.ToString();
          if (ra.ok() != rb.ok()) return child.killed;
        }
        std::string final_diff = MatrixDiff(recovered->get(), twin.get());
        EXPECT_TRUE(final_diff.empty())
            << point << " hit " << n
            << ": diverged after finishing the script on the recovered "
               "database:\n"
            << final_diff;
        break;
      }
      diffs += "\n  k=" + std::to_string(k) + ": " + diff;
    }
    EXPECT_GE(matched, 0) << point << " hit " << n << " (acked " << acked
                          << "): recovered state matches no valid prefix:"
                          << diffs;
    return child.killed;
  }

  std::string root_;
};

// gtest cannot use ASSERT_* in functions returning non-void; wrap.
#define RUN_ONE(point, n, it, kills)        \
  do {                                      \
    if (RunOneCrash(point, n, it)) ++kills; \
    if (HasFatalFailure()) return;          \
  } while (false)

TEST_F(CrashRecoveryTest, KillMatrixRecoversToValidPrefix) {
  int iteration = 0;
  int kills = 0;
  // SIGKILL at the n-th WAL append, the n-th fsync batch, and the n-th
  // checkpoint section write.
  for (const char* point : {"wal/append", "wal/fsync", "checkpoint/write"}) {
    for (int n = 1; n <= 6; ++n) {
      RUN_ONE(point, n, iteration++, kills);
    }
  }
  // Torn final write at several script positions: the op's frame reaches
  // disk only halfway, then power dies; recovery must truncate the tail.
  for (int arm_at : {1, 3, 5, 11, 20}) {
    RUN_ONE("wal/torn_write", arm_at, iteration++, kills);
  }
  // The harness only proves something if the children actually died at the
  // armed points (a too-high hit count silently completes the script).
  EXPECT_GE(kills, 20) << "crash harness lost its teeth";
}

TEST_F(CrashRecoveryTest, RepeatedCrashesDuringRecoveryConverge) {
  const std::string dir = root_ + "/redo";
  const std::string acks = dir + ".acks";
  // Baseline: the full script commits cleanly (no fault armed).
  ChildResult child = RunDriver({"run", dir, acks, "none", "0"});
  ASSERT_FALSE(child.killed);
  ASSERT_EQ(child.exit_code, 0);
  ASSERT_EQ(ReadAcks(acks), crash_script::ScriptLength());

  // Now crash DURING recovery, repeatedly, at different replay depths.
  // Replay writes nothing, so every attempt sees the same directory and the
  // final recovery must land on the full state.
  int kills = 0;
  for (int n = 1; n <= 3; ++n) {
    ChildResult redo =
        RunDriver({"recover", dir, "recovery/replay", std::to_string(n)});
    if (redo.killed) {
      ++kills;
    } else {
      EXPECT_EQ(redo.exit_code, 0);
    }
  }
  EXPECT_GE(kills, 1) << "no recovery attempt was actually killed";

  StatusOr<std::unique_ptr<Database>> recovered =
      Database::Open(DatabaseOptions{.data_dir = dir});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto twin = Twin(crash_script::ScriptLength());
  ASSERT_NE(twin, nullptr);
  std::string diff = MatrixDiff(recovered->get(), twin.get());
  EXPECT_TRUE(diff.empty()) << diff;
}

TEST_F(CrashRecoveryTest, KillDuringTornWriteThenRecoveryCrashThenRecover) {
  // Compound scenario: torn write kills the first incarnation, the first
  // recovery attempt is itself killed mid-replay, and only the third
  // incarnation survives. It must still land on a valid prefix.
  const std::string dir = root_ + "/compound";
  const std::string acks = dir + ".acks";
  ChildResult child = RunDriver({"run", dir, acks, "wal/torn_write", "11"});
  ASSERT_TRUE(child.killed) << "torn-write child was not killed";
  const int acked = ReadAcks(acks);

  ChildResult redo = RunDriver({"recover", dir, "recovery/replay", "2"});
  // Killed if at least 2 records replay; either way the dir must recover.
  (void)redo;

  StatusOr<std::unique_ptr<Database>> recovered =
      Database::Open(DatabaseOptions{.data_dir = dir});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  bool matched = false;
  std::string diffs;
  for (int k : {acked, acked + 1}) {
    auto twin = Twin(std::min(k, crash_script::ScriptLength()));
    ASSERT_NE(twin, nullptr);
    std::string diff = MatrixDiff(recovered->get(), twin.get());
    if (diff.empty()) {
      matched = true;
      break;
    }
    diffs += "\n  k=" + std::to_string(k) + ": " + diff;
  }
  EXPECT_TRUE(matched) << "no valid prefix after compound crash:" << diffs;
}

}  // namespace
}  // namespace sumtab
