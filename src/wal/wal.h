// Write-ahead log: CRC-framed, length-prefixed records appended to numbered
// segment files, hardened by an fsync'd group-commit flusher with a bounded
// flush interval.
//
// On-disk framing, per record:
//
//     [u32 frame_len][u32 crc32(payload)][payload]
//     payload = [u64 lsn][u8 record_type][body...]
//
// LSNs are assigned by the writer and strictly increase across segments.
// A record is *committed* once Harden(lsn) returns OK: its bytes (and all
// earlier records') have been write(2)n and fsync(2)ed. The Database facade
// hardens each mutation's record BEFORE publishing the corresponding
// in-memory version under the catalog lock, so the on-disk commit lattice
// matches the in-memory one: recovery can never surface state a concurrent
// reader could not have observed.
//
// Group commit: appends buffer in memory; a background flusher batches
// everything pending into one write+fsync, triggered by Harden() waiters or
// by the bounded flush interval (relaxed mode's data-loss window). IO
// failures are sticky — a writer that failed a flush refuses further
// appends, mirroring a real log device going away.
//
// Fault points: "wal/append" (fail an append), "wal/fsync" (fail or crash
// before the batch reaches disk — records buffered but never written are
// lost, exactly like power failing before the flush), and "wal/torn_write"
// (write only a prefix of the frame, simulating a torn sector; recovery
// truncates the tail).
#ifndef SUMTAB_WAL_WAL_H_
#define SUMTAB_WAL_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sumtab {
namespace wal {

/// Logical operation types recorded in the log. Stable on-disk constants.
enum class RecordType : uint8_t {
  kCreateTable = 1,
  kAddForeignKey = 2,
  kBulkLoad = 3,
  kAppend = 4,
  kDefineSummary = 5,
  kDropSummary = 6,
  kRefreshSummary = 7,
  kSetMaxStaleness = 8,
  /// An append committed WITHOUT synchronous AST maintenance (deferred
  /// mode): replay re-appends the rows and re-retains the delta slice, but
  /// runs no refresh — dependent ASTs recover stale-but-compensatable.
  kAppendDeferred = 9,
};

struct Record {
  uint64_t lsn = 0;
  uint8_t type = 0;
  std::string body;
};

/// "wal-00000042.log" — zero-padded so lexicographic order == numeric order.
std::string SegmentFileName(uint64_t seq);

class Writer {
 public:
  struct Options {
    /// True: Harden() is required for commit (the Database hardens before
    /// every publish). False: appends are buffered and flushed within
    /// `flush_interval_micros` — a bounded window of committed-in-memory but
    /// not-yet-durable operations that a crash may lose (always a clean
    /// prefix cut, never a torn state).
    bool sync = true;
    /// Upper bound on how long an appended record may sit unflushed.
    int64_t flush_interval_micros = 2000;
  };

  /// Opens (creating if needed) segment `segment_seq` in `dir` for append
  /// and starts the flusher. `next_lsn` continues the recovered sequence.
  static StatusOr<std::unique_ptr<Writer>> Open(const std::string& dir,
                                                uint64_t segment_seq,
                                                uint64_t next_lsn,
                                                const Options& options);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Frames and buffers one record; returns its LSN. The record is NOT
  /// durable until Harden(lsn) (or, relaxed mode, the next flush).
  StatusOr<uint64_t> Append(RecordType type, const std::string& body);

  /// Blocks until every record with LSN <= `lsn` is written and fsync'd.
  Status Harden(uint64_t lsn);

  /// Flushes + fsyncs everything pending, closes the current segment, and
  /// starts appending to segment `new_seq`. Used by checkpointing to bound
  /// the set of segments a checkpoint must cover.
  Status Roll(uint64_t new_seq);

  uint64_t last_lsn() const;
  uint64_t durable_lsn() const;
  uint64_t segment_seq() const;
  int64_t records_appended() const;
  int64_t bytes_appended() const;

 private:
  Writer(std::string dir, uint64_t segment_seq, uint64_t next_lsn,
         const Options& options);

  Status OpenSegmentLocked();
  void FlusherLoop();

  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // wakes the flusher
  std::condition_variable done_cv_;   // wakes Harden()/Roll() waiters
  int fd_ = -1;
  uint64_t seq_;
  uint64_t next_lsn_;
  uint64_t last_lsn_ = 0;     // last appended
  uint64_t durable_lsn_ = 0;  // last fsync'd
  std::string pending_;       // framed bytes not yet handed to the flusher
  bool flush_requested_ = false;
  bool stop_ = false;
  bool flush_in_progress_ = false;
  Status io_status_;  // sticky first IO failure
  int64_t records_ = 0;
  int64_t bytes_ = 0;
  std::thread flusher_;
};

/// Result of scanning every segment in a directory, in order.
struct ScanResult {
  std::vector<Record> records;
  /// Highest segment sequence present (0 when the directory has none).
  uint64_t max_segment_seq = 0;
  /// Bytes removed by torn-tail truncation (repair mode).
  int64_t truncated_bytes = 0;
  /// Number of torn/corrupt regions encountered (the scan stops at the
  /// first one — everything after it is an unreachable suffix).
  int64_t torn_events = 0;
};

/// Reads every record from every `wal-*.log` segment under `dir`. A torn or
/// corrupt frame ends the scan (records are a clean prefix of the log);
/// with `repair` set the torn tail is truncated off its segment so repeated
/// recoveries are idempotent. Fault point: "recovery/replay" is NOT checked
/// here — the Database checks it per applied record.
StatusOr<ScanResult> ScanDir(const std::string& dir, bool repair);

/// Deletes every segment with sequence <= `seq` (post-checkpoint pruning).
Status RemoveSegmentsThrough(const std::string& dir, uint64_t seq);

/// The whole file at `path`, read into `out` with one sized read (WAL
/// segments and checkpoints); kIoError when it cannot be opened or read.
Status ReadFileContents(const std::string& path, std::string* out);

}  // namespace wal
}  // namespace sumtab

#endif  // SUMTAB_WAL_WAL_H_
