#include "wal/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "common/str_util.h"
#include "wal/codec.h"
#include "wal/wal.h"

namespace sumtab {
namespace wal {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[4] = {'S', 'T', 'C', 'K'};

Status Errno(const std::string& what) {
  return RejectIo(RejectReason::kIoError, what + ": " + std::strerror(errno));
}

Status Corrupt(const std::string& detail) {
  return RejectIo(RejectReason::kCheckpointCorruption, detail);
}

uint64_t CheckpointSeqOf(const std::string& filename) {
  if (filename.size() != 5 + 8 + 5 || filename.rfind("ckpt-", 0) != 0 ||
      filename.substr(13) != ".stck") {
    return 0;
  }
  uint64_t seq = 0;
  for (int i = 5; i < 13; ++i) {
    char c = filename[i];
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

/// Opens a section in place: its header, length and CRC still zero, to be
/// filled by EndSection once the payload follows it in `out`.
size_t BeginSection(std::string* out, SectionType type) {
  const size_t header = out->size();
  PutU8(out, static_cast<uint8_t>(type));
  PutU32(out, 0);
  PutU32(out, 0);
  return header;
}

void EndSection(std::string* out, size_t header) {
  const size_t payload = header + 9;
  std::string fields;
  PutU32(&fields, static_cast<uint32_t>(out->size() - payload));
  PutU32(&fields, Crc32(out->data() + payload, out->size() - payload));
  out->replace(header + 1, 8, fields);
}

void AppendSection(std::string* out, SectionType type,
                   const std::string& payload) {
  const size_t header = BeginSection(out, type);
  out->append(payload);
  EndSection(out, header);
}

/// Dictionaries of the base table `name` in `tables` (case-insensitive),
/// the ones its delta slices' codes index; empty when it is absent.
std::vector<engine::DictionaryPtr> BaseDictionaries(
    const std::vector<CheckpointBaseTable>& tables, const std::string& name) {
  for (const CheckpointBaseTable& bt : tables) {
    if (EqualsIgnoreCase(bt.table.name, name) && bt.data != nullptr) {
      return engine::BatchDictionaries(*bt.data);
    }
  }
  return {};
}

/// One table payload: a v3 batch, or a v2 relation converted to columns
/// the way v2 recovery did. Null when the payload does not decode.
std::shared_ptr<const engine::Batch> GetTableData(
    Decoder* in, uint32_t version,
    const std::vector<engine::DictionaryPtr>& shared,
    std::vector<std::string>* column_names) {
  engine::Batch batch;
  if (version >= 3) {
    batch = in->GetBatch(column_names, shared);
  } else {
    engine::Relation rel = in->GetRelation();
    *column_names = rel.column_names;
    batch = engine::BatchFromRows(std::move(rel.rows), rel.NumColumns());
  }
  if (!in->ok()) return nullptr;
  return std::make_shared<const engine::Batch>(std::move(batch));
}

void PutColumn(std::string* out, const catalog::Column& col) {
  PutString(out, col.name);
  PutU8(out, static_cast<uint8_t>(col.type));
  PutU8(out, col.nullable ? 1 : 0);
}

void PutTable(std::string* out, const catalog::Table& table) {
  PutString(out, table.name);
  PutU32(out, static_cast<uint32_t>(table.columns.size()));
  for (const catalog::Column& col : table.columns) PutColumn(out, col);
  PutU32(out, static_cast<uint32_t>(table.primary_key.size()));
  for (const std::string& pk : table.primary_key) PutString(out, pk);
  PutU8(out, table.is_summary_table ? 1 : 0);
}

catalog::Column GetColumn(Decoder* in) {
  catalog::Column col;
  col.name = in->String();
  col.type = static_cast<Type>(in->U8());
  col.nullable = in->U8() != 0;
  return col;
}

catalog::Table GetTable(Decoder* in) {
  catalog::Table table;
  table.name = in->String();
  uint32_t ncols = in->U32();
  for (uint32_t i = 0; i < ncols && in->ok(); ++i) {
    table.columns.push_back(GetColumn(in));
  }
  uint32_t npk = in->U32();
  for (uint32_t i = 0; i < npk && in->ok(); ++i) {
    table.primary_key.push_back(in->String());
  }
  table.is_summary_table = in->U8() != 0;
  return table;
}

std::string EncodeMeta(const CheckpointState& state) {
  std::string out;
  PutU64(&out, state.last_lsn);
  PutU64(&out, state.wal_segment_seq);
  PutI64(&out, state.catalog_generation);
  PutU32(&out, static_cast<uint32_t>(state.foreign_keys.size()));
  for (const catalog::ForeignKey& fk : state.foreign_keys) {
    PutString(&out, fk.child_table);
    PutString(&out, fk.child_column);
    PutString(&out, fk.parent_table);
    PutString(&out, fk.parent_column);
  }
  return out;
}

std::string EncodeAstMeta(const CheckpointAst& ast) {
  std::string out;
  PutString(&out, ast.name);
  PutString(&out, ast.sql);
  PutTable(&out, ast.table);
  PutEpochMap(&out, ast.materialized_epochs);
  PutI64(&out, ast.max_staleness);
  PutU32(&out, static_cast<uint32_t>(ast.consecutive_failures));
  PutU8(&out, ast.disabled ? 1 : 0);
  PutU8(&out, ast.advisor_owned ? 1 : 0);
  return out;
}

std::string EncodeWorkload(const WorkloadSnapshot& workload) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(workload.queries.size()));
  for (const WorkloadQueryStats& q : workload.queries) {
    PutString(&out, q.normalized_sql);
    PutI64(&out, q.executions);
    PutI64(&out, q.rewritten);
    PutI64(&out, q.compensated);
    PutI64(&out, q.base_leaf_rows);
    PutI64(&out, q.total_leaf_rows);
    PutString(&out, q.last_reject);
    PutEpochMap(&out, q.ast_hits);
  }
  PutU32(&out, static_cast<uint32_t>(workload.appends.size()));
  for (const auto& [table, stats] : workload.appends) {
    PutString(&out, table);
    PutI64(&out, stats.batches);
    PutI64(&out, stats.rows);
  }
  PutI64(&out, workload.evicted);
  return out;
}

Status WriteFully(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir " + dir);
  Status st = ::fsync(fd) == 0 ? Status::OK() : Errno("fsync dir " + dir);
  ::close(fd);
  return st;
}

}  // namespace

std::string CheckpointFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%08llu.stck",
                static_cast<unsigned long long>(seq));
  return buf;
}

Status WriteCheckpoint(const std::string& dir, uint64_t seq,
                       const CheckpointState& state, std::string* buffer) {
  static Histogram* duration_hist =
      MetricsRegistry::Global().histogram("checkpoint.write");
  ScopedLatency timer(duration_hist);

  // Sized once for the table payloads (8-byte cells plus a bitmap byte
  // bound every fixed-width column): a buffer grown by doubling would copy
  // what it holds.
  size_t cells = 0;
  auto count = [&cells](const std::shared_ptr<const engine::Batch>& b) {
    cells += static_cast<size_t>(b->num_rows) * b->columns.size();
  };
  for (const CheckpointBaseTable& bt : state.base_tables) count(bt.data);
  for (const CheckpointAst& ast : state.asts) count(ast.data);
  for (const CheckpointDelta& delta : state.deltas) count(delta.data);
  std::string local;
  std::string& contents = buffer != nullptr ? *buffer : local;
  contents.clear();
  contents.reserve(cells * 9 + (size_t{1} << 16));
  contents.append(kMagic, 4);
  PutU32(&contents, kCheckpointVersion);

  SUMTAB_FAULT_POINT("checkpoint/write");
  AppendSection(&contents, SectionType::kMeta, EncodeMeta(state));
  // Table payloads are encoded straight into `contents`, section by section.
  for (const CheckpointBaseTable& bt : state.base_tables) {
    SUMTAB_FAULT_POINT("checkpoint/write");
    const size_t header = BeginSection(&contents, SectionType::kBaseTable);
    PutTable(&contents, bt.table);
    PutI64(&contents, bt.epoch);
    PutBatch(&contents, bt.column_names, *bt.data);
    EndSection(&contents, header);
  }
  for (const CheckpointAst& ast : state.asts) {
    SUMTAB_FAULT_POINT("checkpoint/write");
    AppendSection(&contents, SectionType::kAstMeta, EncodeAstMeta(ast));
    const size_t header = BeginSection(&contents, SectionType::kAstData);
    PutBatch(&contents, ast.column_names, *ast.data);
    EndSection(&contents, header);
  }
  for (const CheckpointDelta& delta : state.deltas) {
    SUMTAB_FAULT_POINT("checkpoint/write");
    const size_t header =
        BeginSection(&contents, SectionType::kDeltaPartition);
    PutString(&contents, delta.table);
    PutI64(&contents, delta.epoch);
    PutBatch(&contents, delta.column_names, *delta.data,
             BaseDictionaries(state.base_tables, delta.table));
    EndSection(&contents, header);
  }
  if (state.workload_present) {
    SUMTAB_FAULT_POINT("checkpoint/write");
    AppendSection(&contents, SectionType::kWorkloadLog,
                  EncodeWorkload(state.workload));
  }
  AppendSection(&contents, SectionType::kEnd, "");

  std::string final_path = dir + "/" + CheckpointFileName(seq);
  std::string tmp_path = final_path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Errno("open " + tmp_path);
  Status st = WriteFully(fd, contents.data(), contents.size());
  if (st.ok() && ::fsync(fd) != 0) st = Errno("fsync " + tmp_path);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }

  // A crash between here and the rename leaves only the tmp file — the
  // previous checkpoint is still the latest and still valid.
  SUMTAB_FAULT_POINT("checkpoint/write");
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    Status rn = Errno("rename " + tmp_path);
    ::unlink(tmp_path.c_str());
    return rn;
  }
  SUMTAB_RETURN_NOT_OK(SyncDir(dir));
  MetricsRegistry::Global().counter("checkpoint.count")->Increment();
  MetricsRegistry::Global()
      .counter("checkpoint.bytes")
      ->Increment(static_cast<int64_t>(contents.size()));
  return Status::OK();
}

StatusOr<CheckpointLoadResult> LoadLatestCheckpoint(const std::string& dir) {
  CheckpointLoadResult result;
  uint64_t best_seq = 0;
  std::string best_path;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = CheckpointSeqOf(entry.path().filename().string());
    if (seq > best_seq) {
      best_seq = seq;
      best_path = entry.path().string();
    }
  }
  if (ec) {
    return RejectIo(RejectReason::kIoError,
                    "list " + dir + ": " + ec.message());
  }
  if (best_seq == 0) return result;  // no checkpoint: found stays false

  std::string contents;
  SUMTAB_RETURN_NOT_OK(ReadFileContents(best_path, &contents));

  if (contents.size() < 8 || std::memcmp(contents.data(), kMagic, 4) != 0) {
    return Corrupt(best_path + ": bad magic");
  }
  const uint32_t version = Decoder(contents.data() + 4, 4).U32();
  if (version < kOldestReadableCheckpointVersion ||
      version > kCheckpointVersion) {
    return RejectIo(RejectReason::kCheckpointVersionMismatch,
                    best_path + ": version " + std::to_string(version) +
                        ", expected " +
                        std::to_string(kOldestReadableCheckpointVersion) +
                        " to " + std::to_string(kCheckpointVersion));
  }

  result.found = true;
  result.seq = best_seq;
  CheckpointState& state = result.state;

  size_t pos = 8;
  bool saw_meta = false;
  bool saw_end = false;
  while (pos < contents.size() && !saw_end) {
    if (contents.size() - pos < 9) {
      return Corrupt(best_path + ": truncated section header");
    }
    Decoder header(contents.data() + pos, 9);
    uint8_t type = header.U8();
    uint32_t len = header.U32();
    uint32_t crc = header.U32();
    if (contents.size() - pos - 9 < len) {
      return Corrupt(best_path + ": truncated section payload");
    }
    const char* payload = contents.data() + pos + 9;
    bool crc_ok = Crc32(payload, static_cast<size_t>(len)) == crc;
    pos += 9 + len;

    switch (static_cast<SectionType>(type)) {
      case SectionType::kMeta: {
        if (!crc_ok) return Corrupt(best_path + ": meta section CRC");
        Decoder body(payload, len);
        state.last_lsn = body.U64();
        state.wal_segment_seq = body.U64();
        state.catalog_generation = body.I64();
        uint32_t nfk = body.U32();
        for (uint32_t i = 0; i < nfk && body.ok(); ++i) {
          catalog::ForeignKey fk;
          fk.child_table = body.String();
          fk.child_column = body.String();
          fk.parent_table = body.String();
          fk.parent_column = body.String();
          state.foreign_keys.push_back(std::move(fk));
        }
        if (!body.AtEnd()) return Corrupt(best_path + ": meta decode");
        saw_meta = true;
        break;
      }
      case SectionType::kBaseTable: {
        if (!crc_ok) return Corrupt(best_path + ": base-table section CRC");
        Decoder body(payload, len);
        CheckpointBaseTable bt;
        bt.table = GetTable(&body);
        bt.epoch = body.I64();
        bt.data = GetTableData(&body, version, {}, &bt.column_names);
        if (!body.AtEnd()) {
          return Corrupt(best_path + ": base-table decode (" +
                         bt.table.name + ")");
        }
        state.base_tables.push_back(std::move(bt));
        break;
      }
      case SectionType::kAstMeta: {
        if (!crc_ok) return Corrupt(best_path + ": AST meta section CRC");
        Decoder body(payload, len);
        CheckpointAst ast;
        ast.name = body.String();
        ast.sql = body.String();
        ast.table = GetTable(&body);
        ast.materialized_epochs = body.GetEpochMap();
        ast.max_staleness = body.I64();
        ast.consecutive_failures = static_cast<int32_t>(body.U32());
        ast.disabled = body.U8() != 0;
        ast.advisor_owned = body.U8() != 0;
        if (!body.AtEnd()) {
          return Corrupt(best_path + ": AST meta decode (" + ast.name + ")");
        }
        // No data yet; if the kAstData section that must follow is corrupt
        // or missing, data_ok stays false and recovery quarantines the AST.
        ast.data_ok = false;
        state.asts.push_back(std::move(ast));
        break;
      }
      case SectionType::kAstData: {
        if (state.asts.empty()) {
          return Corrupt(best_path + ": AST data without preceding meta");
        }
        CheckpointAst& ast = state.asts.back();
        if (!crc_ok) break;  // graceful: drop only this AST (data_ok=false)
        Decoder body(payload, len);
        std::vector<std::string> names;
        auto data = GetTableData(&body, version, {}, &names);
        if (!body.AtEnd()) break;  // same: decode failure drops the AST
        ast.column_names = std::move(names);
        ast.data = std::move(data);
        ast.data_ok = true;
        break;
      }
      case SectionType::kDeltaPartition: {
        // Graceful on corruption: a dropped slice only opens a coverage gap,
        // which makes compensation refuse — never a wrong answer. Keep the
        // placeholder so recovery can report the drop.
        CheckpointDelta delta;
        delta.data_ok = false;
        if (crc_ok) {
          Decoder body(payload, len);
          delta.table = body.String();
          delta.epoch = body.I64();
          // Base tables precede deltas, so their dictionaries are decoded.
          auto data = GetTableData(
              &body, version, BaseDictionaries(state.base_tables, delta.table),
              &delta.column_names);
          if (body.AtEnd()) {
            delta.data = std::move(data);
            delta.data_ok = true;
          }
        }
        state.deltas.push_back(std::move(delta));
        break;
      }
      case SectionType::kWorkloadLog: {
        // Graceful on corruption: the telemetry is advisory (the advisor
        // just starts from an emptier log), so a bad section drops ONLY the
        // workload — never the database.
        state.workload_present = false;
        state.workload_corrupt = true;
        if (!crc_ok) break;
        Decoder body(payload, len);
        WorkloadSnapshot workload;
        uint32_t nq = body.U32();
        for (uint32_t i = 0; i < nq && body.ok(); ++i) {
          WorkloadQueryStats q;
          q.normalized_sql = body.String();
          q.executions = body.I64();
          q.rewritten = body.I64();
          q.compensated = body.I64();
          q.base_leaf_rows = body.I64();
          q.total_leaf_rows = body.I64();
          q.last_reject = body.String();
          q.ast_hits = body.GetEpochMap();
          workload.queries.push_back(std::move(q));
        }
        uint32_t na = body.U32();
        for (uint32_t i = 0; i < na && body.ok(); ++i) {
          std::string table = body.String();
          WorkloadAppendStats stats;
          stats.batches = body.I64();
          stats.rows = body.I64();
          workload.appends.emplace(std::move(table), stats);
        }
        workload.evicted = body.I64();
        if (!body.AtEnd()) break;
        state.workload = std::move(workload);
        state.workload_present = true;
        state.workload_corrupt = false;
        break;
      }
      case SectionType::kEnd: {
        if (!crc_ok) return Corrupt(best_path + ": end section CRC");
        saw_end = true;
        break;
      }
      default:
        return Corrupt(best_path + ": unknown section type " +
                       std::to_string(type));
    }
  }
  if (!saw_meta || !saw_end) {
    return Corrupt(best_path + ": missing " +
                   std::string(saw_meta ? "end" : "meta") + " section");
  }
  return result;
}

Status RemoveCheckpointsBefore(const std::string& dir, uint64_t seq) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t s = CheckpointSeqOf(entry.path().filename().string());
    if (s > 0 && s < seq) {
      std::error_code rm;
      fs::remove(entry.path(), rm);
      if (rm) {
        return RejectIo(RejectReason::kIoError,
                        "remove " + entry.path().string() + ": " +
                            rm.message());
      }
    }
  }
  if (ec) {
    return RejectIo(RejectReason::kIoError,
                    "list " + dir + ": " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::vector<SectionInfo>> ListCheckpointSections(
    const std::string& path) {
  std::string contents;
  SUMTAB_RETURN_NOT_OK(ReadFileContents(path, &contents));
  if (contents.size() < 8 || std::memcmp(contents.data(), kMagic, 4) != 0) {
    return Corrupt(path + ": bad magic");
  }
  std::vector<SectionInfo> sections;
  size_t pos = 8;
  while (pos < contents.size()) {
    if (contents.size() - pos < 9) {
      return Corrupt(path + ": truncated section header");
    }
    Decoder header(contents.data() + pos, 9);
    SectionInfo info;
    info.type = static_cast<SectionType>(header.U8());
    info.payload_len = header.U32();
    header.U32();  // crc
    info.payload_offset = pos + 9;
    if (contents.size() - pos - 9 < info.payload_len) {
      return Corrupt(path + ": truncated section payload");
    }
    pos += 9 + info.payload_len;
    sections.push_back(info);
  }
  return sections;
}

}  // namespace wal
}  // namespace sumtab
