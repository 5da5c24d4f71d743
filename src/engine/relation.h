// Table storage the engine scans — one dictionary-encoded columnar version
// per table — and Relation, the row form answers and loaded data take at the
// facade edge (BulkLoad input, query results, v2 checkpoint tables).
#ifndef SUMTAB_ENGINE_RELATION_H_
#define SUMTAB_ENGINE_RELATION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "engine/column_vector.h"

namespace sumtab {
namespace engine {

/// A materialized relational table in row form: named columns + rows. Query
/// results, BulkLoad input and v2 checkpoint sections use it; storage does
/// not.
struct Relation {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  int NumColumns() const { return static_cast<int>(column_names.size()); }
  size_t NumRows() const { return rows.size(); }

  /// ASCII table rendering (for examples and benches); caps row output at
  /// max_rows and appends an ellipsis line beyond it.
  std::string ToString(size_t max_rows = 50) const;
};

/// Multiset equality of rows (column names ignored); the canonical check
/// that a rewritten query computed the same answer as the original. Rows are
/// ordered by Value::CompareRows (the engine-wide total order, NULL first)
/// and values compared with a relative fp tolerance.
bool SameRowMultiset(const Relation& a, const Relation& b);

/// Named table storage, copy-on-write.
///
/// Every table has one representation: a dictionary-encoded columnar Batch
/// the executor scans directly. Each table name maps to an immutable
/// *version* — its column names plus that Batch. Writers never mutate a
/// published version in place — they build the next one offline and commit
/// it with Replace(), so any reader holding a Snapshot keeps a consistent
/// view for the whole query (BulkLoad/Append/refresh can never torn-read a
/// serving scan).
///
/// Encoding happens once, when a version is published: AddTable/Replace
/// dictionary-encode every raw string column, a Replace extending the
/// dictionaries of the version it replaces, so codes stay stable across
/// versions and delta slices. Writers that want the encoding off their
/// commit window pass batches already run through Encode() (or
/// ConcatBatches of such batches), which leaves publication a pointer swap.
///
/// Every table additionally carries a monotonic *version epoch*, bumped by
/// the facade on each data change (BulkLoad / Append). Summary tables record
/// the epochs of their base tables at materialization time; comparing those
/// against the current epochs is how freshness is decided. Epochs survive
/// Replace() and DropTable + AddTable cycles on purpose: replacing a table's
/// contents is a data change, not a reset.
///
/// Append-delta partitions: an append that bumps a table's epoch E-1 -> E may
/// additionally *retain* the appended rows as an addressable delta slice
/// keyed by E (RetainDelta). The slices are what delta-compensation rewrites
/// scan: a stale AST materialized at epoch M answers a query exactly when
/// every epoch in (M, current] has a retained slice (pure-append staleness
/// with full coverage — a BulkLoad never retains, so its epoch bump leaves a
/// coverage gap and compensation correctly refuses). Slices are pinned by
/// snapshots like table versions, pruned once every dependent AST has
/// absorbed them, and capped at kMaxRetainedDeltas per table.
///
/// Thread-safety: the name -> version maps are guarded by an internal mutex;
/// versions and slices are immutable once published. Concurrent Snap() /
/// Replace() / lookups are safe, and the Batches handed out are shared_ptrs,
/// so a reader keeps whatever version it fetched alive.
class Storage {
 private:
  /// One immutable published version of a table.
  struct Version {
    std::vector<std::string> column_names;
    std::shared_ptr<const Batch> batch;
  };
  using VersionPtr = std::shared_ptr<const Version>;

  /// Per-table retained delta slices, ordered by the epoch each produced.
  using DeltaMap = std::map<int64_t, std::shared_ptr<const Batch>>;

 public:
  /// Retained slices per table; larger retention only buys compensation
  /// coverage for very stale ASTs, so a small cap bounds memory (beyond it
  /// compensation falls back to base tables, which is always correct).
  static constexpr size_t kMaxRetainedDeltas = 64;

  /// An immutable view of every table pinned at Snap() time: the epoch
  /// vector plus a reference to each table's then-current version — and the
  /// retained append-delta slices, so a compensated query keeps reading its
  /// delta rows even if a concurrent refresh prunes them. Cheap to copy
  /// (shared_ptr per table); keeps the pinned versions alive for as long as
  /// any holder exists.
  class Snapshot {
   public:
    Snapshot() = default;
    std::shared_ptr<const Batch> FindColumnar(const std::string& name) const;
    /// Column names of `name` (empty for unknown tables).
    std::vector<std::string> ColumnNames(const std::string& name) const;
    int64_t Epoch(const std::string& name) const;
    /// Epochs of every table in the snapshot (keyed by lower-cased name).
    const std::unordered_map<std::string, int64_t>& epochs() const {
      return epochs_;
    }

    /// True when every epoch in (from, to] has a retained delta slice for
    /// `name` in this snapshot — the soundness condition for compensating a
    /// stale AST materialized at `from` up to `to` (trivially true when
    /// from == to).
    bool HasDeltaCoverage(const std::string& name, int64_t from,
                          int64_t to) const;
    /// The retained slices covering (from, to], oldest first; empty when
    /// coverage is incomplete. They share the table's dictionaries.
    std::vector<std::shared_ptr<const Batch>> DeltaSlices(
        const std::string& name, int64_t from, int64_t to) const;
    /// Total rows across DeltaSlices(name, from, to).
    int64_t DeltaRows(const std::string& name, int64_t from, int64_t to) const;

   private:
    friend class Storage;
    std::unordered_map<std::string, VersionPtr> tables_;
    std::unordered_map<std::string, int64_t> epochs_;
    std::unordered_map<std::string, DeltaMap> deltas_;
  };

  /// Publishes a new table (raw string columns get fresh dictionaries).
  Status AddTable(const std::string& name,
                  std::vector<std::string> column_names, Batch batch);
  /// AddTable of a shared batch, published as it is when it holds no raw
  /// string column (a recovered checkpoint's, whose dictionaries came with
  /// it, so its codes survive); otherwise a copy is encoded.
  Status AdoptTable(const std::string& name,
                    std::vector<std::string> column_names,
                    std::shared_ptr<const Batch> batch);
  Status DropTable(const std::string& name);
  /// Commits a new version of an existing table (copy-on-write): snapshots
  /// taken before the call keep serving the prior version. Column names
  /// carry over; raw string columns are encoded against the replaced
  /// version's dictionaries.
  Status Replace(const std::string& name, Batch batch);

  /// Current columns of `name` (nullptr for unknown tables).
  std::shared_ptr<const Batch> FindColumnar(const std::string& name) const;

  /// `batch` with its raw string columns encoded against `name`'s current
  /// dictionaries (fresh ones where a column has none, or the table is
  /// unknown) — the encoding AddTable/Replace would run, done offline,
  /// before the writer's commit window.
  Batch Encode(const std::string& name, Batch batch) const;

  /// Current version epoch of `name` (0 for never-modified / unknown tables).
  int64_t Epoch(const std::string& name) const;
  /// Marks a data change; returns the new epoch.
  int64_t BumpEpoch(const std::string& name);
  /// Restores a recovered epoch verbatim (checkpoint load only — normal data
  /// changes go through BumpEpoch so epochs stay monotonic).
  void SetEpoch(const std::string& name, int64_t epoch);

  /// Retains `delta` (run through Encode(name, ...)) as the append slice that
  /// produced `epoch` for `name` (Append only — BulkLoad's rewrite-of-history
  /// must NOT retain, so its staleness stays non-compensatable). Oldest
  /// slices beyond kMaxRetainedDeltas are dropped.
  void RetainDelta(const std::string& name, int64_t epoch,
                   std::shared_ptr<const Batch> delta);

  /// Drops every slice of `name` with epoch <= `epoch` (absorbed by a
  /// refresh / incremental merge). Snapshots pinned earlier keep theirs.
  void PruneDeltasThrough(const std::string& name, int64_t epoch);

  /// {table (lower-cased), epoch, columns} of every retained slice, for
  /// checkpointing; the batches are the retained ones, shared.
  struct RetainedDelta {
    std::string table;
    int64_t epoch = 0;
    std::vector<std::string> column_names;
    std::shared_ptr<const Batch> data;
  };
  std::vector<RetainedDelta> RetainedDeltas() const;

  /// Pins the current version of every table + the epoch vector + the
  /// retained delta slices.
  Snapshot Snap() const;

 private:
  /// The single lower-casing point for table lookups (hit per scan and per
  /// freshness check — names are case-insensitive everywhere).
  static std::string Key(const std::string& name);

  /// Current version of `key` (nullptr for unknown tables).
  VersionPtr Find(const std::string& key) const;

  /// Installs `batch` as the first version of `name`.
  Status Publish(const std::string& name,
                 std::vector<std::string> column_names,
                 std::shared_ptr<const Batch> batch);

  /// Guards the maps; pinned versions are immutable so holders never need it.
  mutable std::mutex mu_;
  std::unordered_map<std::string, VersionPtr> tables_;  // keyed by Key(name)
  std::unordered_map<std::string, int64_t> epochs_;     // keyed by Key(name)
  std::unordered_map<std::string, DeltaMap> deltas_;    // keyed by Key(name)
};

}  // namespace engine
}  // namespace sumtab

#endif  // SUMTAB_ENGINE_RELATION_H_
