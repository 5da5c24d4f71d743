#include "engine/relation.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace sumtab {
namespace engine {

std::string Relation::ToString(size_t max_rows) const {
  std::vector<size_t> widths(column_names.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < column_names.size(); ++i) {
    widths[i] = column_names[i].size();
  }
  size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row_cells;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      std::string cell = rows[r][c].ToString();
      if (c < widths.size()) widths[c] = std::max(widths[c], cell.size());
      row_cells.push_back(std::move(cell));
    }
    cells.push_back(std::move(row_cells));
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w > s.size() ? w - s.size() : 0, ' ');
  };
  std::string out;
  for (size_t c = 0; c < column_names.size(); ++c) {
    out += (c ? " | " : "") + pad(column_names[c], widths[c]);
  }
  out += "\n";
  for (size_t c = 0; c < column_names.size(); ++c) {
    out += (c ? "-+-" : "") + std::string(widths[c], '-');
  }
  out += "\n";
  for (const auto& row_cells : cells) {
    for (size_t c = 0; c < row_cells.size(); ++c) {
      size_t w = c < widths.size() ? widths[c] : 0;
      out += (c ? " | " : "") + pad(row_cells[c], w);
    }
    out += "\n";
  }
  if (rows.size() > shown) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

namespace {

/// Floating-point results may differ in the last bits between a direct
/// aggregation and a re-aggregation of partial sums; compare with a relative
/// tolerance.
bool ApproxEqual(const Value& x, const Value& y) {
  if (x == y) return true;
  if (!x.IsNumeric() || !y.IsNumeric()) return false;
  double a = x.ToDouble();
  double b = y.ToDouble();
  double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale;
}

}  // namespace

bool SameRowMultiset(const Relation& a, const Relation& b) {
  if (a.rows.size() != b.rows.size()) return false;
  std::vector<Row> left = a.rows;
  std::vector<Row> right = b.rows;
  // Both sides sort under the one engine-wide total order (Value::CompareRows,
  // NULL first): rows that differ only in where their NULLs came from — data
  // vs grouping-set padding — land at identical positions on both sides.
  auto cmp = [](const Row& x, const Row& y) {
    return Value::CompareRows(x, y) < 0;
  };
  std::sort(left.begin(), left.end(), cmp);
  std::sort(right.begin(), right.end(), cmp);
  for (size_t i = 0; i < left.size(); ++i) {
    if (left[i].size() != right[i].size()) return false;
    for (size_t j = 0; j < left[i].size(); ++j) {
      if (!ApproxEqual(left[i][j], right[i][j])) return false;
    }
  }
  return true;
}

std::string Storage::Key(const std::string& name) { return ToLower(name); }

Storage::VersionPtr Storage::Find(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(key);
  return it == tables_.end() ? nullptr : it->second;
}

Status Storage::AddTable(const std::string& name,
                         std::vector<std::string> column_names, Batch batch) {
  DictEncodeBatch(&batch, {});
  return Publish(name, std::move(column_names),
                 std::make_shared<const Batch>(std::move(batch)));
}

Status Storage::AdoptTable(const std::string& name,
                           std::vector<std::string> column_names,
                           std::shared_ptr<const Batch> batch) {
  for (const ColumnVector& col : batch->columns) {
    if (col.tag() == ColumnVector::Tag::kString && !col.dict_encoded()) {
      return AddTable(name, std::move(column_names), Batch(*batch));
    }
  }
  return Publish(name, std::move(column_names), std::move(batch));
}

Status Storage::Publish(const std::string& name,
                        std::vector<std::string> column_names,
                        std::shared_ptr<const Batch> batch) {
  std::string key = Key(name);
  auto version = std::make_shared<Version>();
  version->column_names = std::move(column_names);
  version->batch = std::move(batch);
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table data for '" + key + "'");
  }
  tables_.emplace(std::move(key), std::move(version));
  return Status::OK();
}

Status Storage::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(Key(name)) == 0) {
    return Status::NotFound("table data for '" + name + "'");
  }
  deltas_.erase(Key(name));
  return Status::OK();
}

Status Storage::Replace(const std::string& name, Batch batch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table data for '" + name + "'");
  }
  // Extend the replaced version's dictionaries (an append interns only the
  // new strings). A no-op for batches already run through Encode.
  DictEncodeBatch(&batch, BatchDictionaries(*it->second->batch));
  auto version = std::make_shared<Version>();
  version->column_names = it->second->column_names;
  version->batch = std::make_shared<const Batch>(std::move(batch));
  // Swap in the new version; snapshots holding the old one keep it alive.
  it->second = std::move(version);
  return Status::OK();
}

std::shared_ptr<const Batch> Storage::FindColumnar(
    const std::string& name) const {
  VersionPtr version = Find(Key(name));
  return version == nullptr ? nullptr : version->batch;
}

Batch Storage::Encode(const std::string& name, Batch batch) const {
  VersionPtr version = Find(Key(name));
  DictEncodeBatch(&batch, version == nullptr
                              ? std::vector<DictionaryPtr>{}
                              : BatchDictionaries(*version->batch));
  return batch;
}

int64_t Storage::Epoch(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(Key(name));
  return it == epochs_.end() ? 0 : it->second;
}

int64_t Storage::BumpEpoch(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return ++epochs_[Key(name)];
}

void Storage::SetEpoch(const std::string& name, int64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  epochs_[Key(name)] = epoch;
}

void Storage::RetainDelta(const std::string& name, int64_t epoch,
                          std::shared_ptr<const Batch> delta) {
  std::lock_guard<std::mutex> lock(mu_);
  DeltaMap& slices = deltas_[Key(name)];
  slices[epoch] = std::move(delta);
  // Cap retention: dropping the OLDEST slice widens the coverage gap at the
  // stale end, so over-stale ASTs lose compensability first — never recent
  // ones.
  while (slices.size() > kMaxRetainedDeltas) slices.erase(slices.begin());
}

void Storage::PruneDeltasThrough(const std::string& name, int64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = deltas_.find(Key(name));
  if (it == deltas_.end()) return;
  it->second.erase(it->second.begin(), it->second.upper_bound(epoch));
  if (it->second.empty()) deltas_.erase(it);
}

std::vector<Storage::RetainedDelta> Storage::RetainedDeltas() const {
  Snapshot snap = Snap();
  std::vector<RetainedDelta> out;
  for (const auto& [table, slices] : snap.deltas_) {
    std::vector<std::string> names = snap.ColumnNames(table);
    for (const auto& [epoch, batch] : slices) {
      out.push_back(RetainedDelta{table, epoch, names, batch});
    }
  }
  return out;
}

Storage::Snapshot Storage::Snap() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.tables_ = tables_;
  snap.epochs_ = epochs_;
  snap.deltas_ = deltas_;
  return snap;
}

std::shared_ptr<const Batch> Storage::Snapshot::FindColumnar(
    const std::string& name) const {
  auto it = tables_.find(Key(name));
  return it == tables_.end() ? nullptr : it->second->batch;
}

std::vector<std::string> Storage::Snapshot::ColumnNames(
    const std::string& name) const {
  auto it = tables_.find(Key(name));
  return it == tables_.end() ? std::vector<std::string>{}
                             : it->second->column_names;
}

int64_t Storage::Snapshot::Epoch(const std::string& name) const {
  auto it = epochs_.find(Key(name));
  return it == epochs_.end() ? 0 : it->second;
}

std::vector<std::shared_ptr<const Batch>> Storage::Snapshot::DeltaSlices(
    const std::string& name, int64_t from, int64_t to) const {
  std::vector<std::shared_ptr<const Batch>> out;
  if (from >= to) return out;
  auto it = deltas_.find(Key(name));
  if (it == deltas_.end()) return out;
  // Coverage must be exact: one slice per epoch in (from, to], no gaps — a
  // missing epoch means some change (a BulkLoad, or a pruned slice) is not
  // represented by retained append rows, and compensating would answer from
  // partial history.
  int64_t expected = from + 1;
  for (auto slice = it->second.upper_bound(from);
       slice != it->second.end() && slice->first <= to; ++slice) {
    if (slice->first != expected) return {};
    out.push_back(slice->second);
    ++expected;
  }
  if (expected != to + 1) return {};
  return out;
}

bool Storage::Snapshot::HasDeltaCoverage(const std::string& name, int64_t from,
                                         int64_t to) const {
  return from >= to || !DeltaSlices(name, from, to).empty();
}

int64_t Storage::Snapshot::DeltaRows(const std::string& name, int64_t from,
                                     int64_t to) const {
  int64_t rows = 0;
  for (const auto& slice : DeltaSlices(name, from, to)) rows += slice->num_rows;
  return rows;
}

}  // namespace engine
}  // namespace sumtab
