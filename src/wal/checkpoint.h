// Checkpoints: a point-in-time snapshot of the whole database — base tables,
// AST contents, AND the freshness bookkeeping (catalog generation, per-table
// epochs, each AST's materialized_epochs / max_staleness / quarantine state)
// — so a summary table that was stale before a crash is still known-stale
// after recovery instead of silently serving wrong rewrites.
//
// On-disk layout of `ckpt-NNNNNNNN.stck`:
//
//     "STCK" [u32 version]
//     section*          where section = [u8 type][u32 len][u32 crc][payload]
//
// Section types: kMeta (one, first: last_lsn / generation / foreign keys),
// kBaseTable (one per base table), kAstMeta + kAstData (paired, meta first),
// kDeltaPartition (one per retained append slice), kWorkloadLog (at most
// one), kEnd (one, last — its presence proves the file is complete).
//
// Table payloads (kBaseTable, kAstData, kDeltaPartition) are columnar since
// v3: codec.h's PutBatch — column names, row count, then per column its
// kind, its null bitmap when it holds a NULL, and its typed payload in one
// bulk copy (a dictionary column writes its dictionary once, then int32
// codes). A delta slice's dictionary columns write only their codes into
// the base table's dictionary, which the reader has decoded by then, so the
// recovered slice shares the recovered table's dictionary objects. v2 files
// (tables as tagged rows) are still read, never written.
//
// Each section carries its own CRC so corruption is attributable: a bad
// kAstData section drops ONLY that AST (recovery registers it kDisabled with
// reject subcode ast_dropped_on_recovery and the database keeps serving from
// base tables), a bad kDeltaPartition only that slice, a bad kWorkloadLog
// only the telemetry; a bad kMeta/kBaseTable/kAstMeta/kEnd section fails
// recovery with checkpoint_corruption, and an unknown version with
// checkpoint_version_mismatch. "Bad" is a CRC mismatch or a payload that
// does not decode: a length, row count or dictionary code that overruns.
//
// Writes go to a tmp file, fsync, then rename + directory fsync — a crash
// mid-checkpoint leaves the previous checkpoint untouched. Fault point:
// "checkpoint/write" (checked per section and before the final rename).
#ifndef SUMTAB_WAL_CHECKPOINT_H_
#define SUMTAB_WAL_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/column_vector.h"
#include "sumtab/workload_log.h"

namespace sumtab {
namespace wal {

/// Checkpoint format version; bump on incompatible layout changes.
/// v2: kAstMeta grew the advisor-owned flag; kWorkloadLog sections carry the
/// observed-workload telemetry across restarts.
/// v3: table payloads are PutBatch columns instead of rows.
constexpr uint32_t kCheckpointVersion = 3;
/// The oldest version LoadLatestCheckpoint still reads.
constexpr uint32_t kOldestReadableCheckpointVersion = 2;

/// Section type tags. Stable on-disk constants.
enum class SectionType : uint8_t {
  kMeta = 1,
  kBaseTable = 2,
  kAstMeta = 3,
  kAstData = 4,
  kEnd = 5,
  /// One retained append-delta slice (table, epoch, rows). Absent in
  /// checkpoints written before delta compensation existed; readers treat
  /// absence as "no retained deltas" — same version, no migration.
  kDeltaPartition = 6,
  /// The workload log (src/sumtab/workload_log.h): observed query/append
  /// telemetry the advisor mines. At most one per checkpoint; absence reads
  /// as an empty log, and corruption drops ONLY the telemetry (reported as
  /// workload_dropped_on_recovery) — the log is advisory, never load-bearing
  /// for correctness.
  kWorkloadLog = 7,
};

struct CheckpointBaseTable {
  catalog::Table table;
  int64_t epoch = 0;
  std::vector<std::string> column_names;
  std::shared_ptr<const engine::Batch> data;
};

struct CheckpointAst {
  std::string name;
  std::string sql;
  catalog::Table table;  // registered schema (is_summary_table = true)
  std::map<std::string, int64_t> materialized_epochs;
  int64_t max_staleness = 0;
  int32_t consecutive_failures = 0;
  bool disabled = false;
  /// True for ASTs the advisor created (Database::AdviseAndApply / TUNE):
  /// ownership survives restart so the auto-DROP lifecycle keeps governing
  /// them in the recovered process.
  bool advisor_owned = false;
  std::vector<std::string> column_names;
  /// Null when data_ok is false.
  std::shared_ptr<const engine::Batch> data;
  /// False when this AST's kAstData section was corrupt or missing: the
  /// metadata survived but the rows did not. Recovery registers the AST
  /// kDisabled (empty data) instead of failing startup.
  bool data_ok = true;
};

struct CheckpointDelta {
  std::string table;  // lower-cased base-table key
  int64_t epoch = 0;  // the epoch this append slice produced
  std::vector<std::string> column_names;
  /// Null when data_ok is false.
  std::shared_ptr<const engine::Batch> data;
  /// False when this slice's section was corrupt: recovery drops ONLY the
  /// slice (a coverage gap makes compensation refuse — always safe) and
  /// reports delta_dropped_on_recovery instead of failing startup.
  bool data_ok = true;
};

struct CheckpointState {
  /// Records with lsn <= last_lsn are reflected in this snapshot; recovery
  /// replays only records past it.
  uint64_t last_lsn = 0;
  /// WAL segments with seq <= this are fully covered (safe to prune).
  uint64_t wal_segment_seq = 0;
  int64_t catalog_generation = 0;
  std::vector<catalog::ForeignKey> foreign_keys;
  std::vector<CheckpointBaseTable> base_tables;
  std::vector<CheckpointAst> asts;
  std::vector<CheckpointDelta> deltas;
  /// Workload-log telemetry. `workload_present` false when the checkpoint
  /// carries no kWorkloadLog section; `workload_corrupt` true when one
  /// existed but failed its CRC/decode (the telemetry is dropped, recovery
  /// reports workload_dropped_on_recovery, startup proceeds).
  bool workload_present = false;
  bool workload_corrupt = false;
  WorkloadSnapshot workload;
};

/// "ckpt-00000042.stck" — zero-padded, same convention as WAL segments.
std::string CheckpointFileName(uint64_t seq);

/// Serializes `state` to `dir`/CheckpointFileName(seq) atomically
/// (tmp + fsync + rename + dir fsync). The file is encoded in `buffer` when
/// one is given, which keeps its capacity for the next call: a fresh
/// buffer the size of the database costs a page fault per 4 KiB on every
/// checkpoint (about 8 ms of a 35-ms checkpoint of 19 MB).
Status WriteCheckpoint(const std::string& dir, uint64_t seq,
                       const CheckpointState& state,
                       std::string* buffer = nullptr);

struct CheckpointLoadResult {
  /// False when `dir` holds no checkpoint (fresh directory): `state` is
  /// default-initialized and recovery replays the WAL from the beginning.
  bool found = false;
  uint64_t seq = 0;
  CheckpointState state;
};

/// Finds the highest-sequence checkpoint in `dir` and decodes it. Per-AST
/// data corruption is reported via CheckpointAst::data_ok, not an error.
StatusOr<CheckpointLoadResult> LoadLatestCheckpoint(const std::string& dir);

/// Deletes every checkpoint with sequence < `seq` (keep the one just
/// written, prune its predecessors).
Status RemoveCheckpointsBefore(const std::string& dir, uint64_t seq);

/// Byte layout of one section, for tests that corrupt targeted regions.
struct SectionInfo {
  SectionType type;
  /// Absolute file offset of the section's payload (header is the 9 bytes
  /// before it).
  uint64_t payload_offset = 0;
  uint32_t payload_len = 0;
};

/// Parses the section headers of a checkpoint file without decoding
/// payloads. Test helper for targeted corruption.
StatusOr<std::vector<SectionInfo>> ListCheckpointSections(
    const std::string& path);

}  // namespace wal
}  // namespace sumtab

#endif  // SUMTAB_WAL_CHECKPOINT_H_
