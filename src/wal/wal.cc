#include "wal/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/reject_reason.h"
#include "wal/codec.h"

namespace sumtab {
namespace wal {

namespace {

namespace fs = std::filesystem;

/// Frames larger than this are treated as corruption, not allocations.
constexpr uint32_t kMaxFrameLen = 1u << 30;

Status Errno(const std::string& what) {
  return RejectIo(RejectReason::kIoError, what + ": " + std::strerror(errno));
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

Status SyncFd(int fd) {
  if (::fsync(fd) != 0) return Errno("fsync");
  return Status::OK();
}

/// fsync the directory so a freshly created/renamed file survives a crash.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir " + dir);
  Status st = SyncFd(fd);
  ::close(fd);
  return st;
}

/// Segment sequence from a file name, or 0 if it is not a segment.
uint64_t SegmentSeqOf(const std::string& filename) {
  if (filename.size() != 4 + 8 + 4 || filename.rfind("wal-", 0) != 0 ||
      filename.substr(12) != ".log") {
    return 0;
  }
  uint64_t seq = 0;
  for (int i = 4; i < 12; ++i) {
    char c = filename[i];
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

}  // namespace

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

// ---- Writer ----

Writer::Writer(std::string dir, uint64_t segment_seq, uint64_t next_lsn,
               const Options& options)
    : dir_(std::move(dir)),
      options_(options),
      seq_(segment_seq),
      next_lsn_(next_lsn),
      last_lsn_(next_lsn - 1),
      durable_lsn_(next_lsn - 1) {}

StatusOr<std::unique_ptr<Writer>> Writer::Open(const std::string& dir,
                                               uint64_t segment_seq,
                                               uint64_t next_lsn,
                                               const Options& options) {
  std::unique_ptr<Writer> writer(
      new Writer(dir, segment_seq, next_lsn, options));
  {
    std::lock_guard<std::mutex> lock(writer->mu_);
    SUMTAB_RETURN_NOT_OK(writer->OpenSegmentLocked());
  }
  SUMTAB_RETURN_NOT_OK(SyncDir(dir));
  writer->flusher_ = std::thread(&Writer::FlusherLoop, writer.get());
  return writer;
}

Writer::~Writer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  if (fd_ >= 0) ::close(fd_);
}

Status Writer::OpenSegmentLocked() {
  std::string path = dir_ + "/" + SegmentFileName(seq_);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) return Errno("open " + path);
  return Status::OK();
}

StatusOr<uint64_t> Writer::Append(RecordType type, const std::string& body) {
  static Histogram* append_hist =
      MetricsRegistry::Global().histogram("wal.append");
  static Counter* record_counter =
      MetricsRegistry::Global().counter("wal.records");
  SUMTAB_FAULT_POINT("wal/append");
  ScopedLatency timer(append_hist);

  std::string payload;
  payload.reserve(9 + body.size());
  PutU64(&payload, 0);  // lsn patched below, under the lock
  PutU8(&payload, static_cast<uint8_t>(type));
  payload.append(body);

  std::unique_lock<std::mutex> lock(mu_);
  if (!io_status_.ok()) return io_status_;
  uint64_t lsn = next_lsn_++;
  {
    std::string lsn_bytes;
    PutU64(&lsn_bytes, lsn);
    payload.replace(0, 8, lsn_bytes);
  }
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);

  // Torn-write injection: put only a prefix of the frame on disk — as if
  // power failed mid-sector — and poison the writer. Recovery must truncate
  // this tail and serve the clean prefix.
  Status torn = FaultInjector::Instance().Check("wal/torn_write");
  if (!torn.ok()) {
    size_t cut = frame.size() / 2;
    if (cut < 9) cut = frame.size() - 1;  // always mid-payload
    Status wr = WriteFully(fd_, frame.data(), cut);
    if (wr.ok()) wr = SyncFd(fd_);
    io_status_ = RejectIo(RejectReason::kWalTornTail,
                          "torn write injected at lsn " + std::to_string(lsn) +
                              (wr.ok() ? "" : "; " + wr.ToString()));
    return io_status_;
  }

  pending_.append(frame);
  last_lsn_ = lsn;
  records_ += 1;
  bytes_ += static_cast<int64_t>(frame.size());
  record_counter->Increment();
  MetricsRegistry::Global()
      .counter("wal.bytes")
      ->Increment(static_cast<int64_t>(frame.size()));
  lock.unlock();
  work_cv_.notify_one();
  return lsn;
}

Status Writer::Harden(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  while (durable_lsn_ < lsn && io_status_.ok()) {
    flush_requested_ = true;
    work_cv_.notify_one();
    done_cv_.wait(lock);
  }
  if (durable_lsn_ >= lsn) return Status::OK();
  return io_status_;
}

Status Writer::Roll(uint64_t new_seq) {
  // Drain: everything appended so far must land in the OLD segment.
  SUMTAB_RETURN_NOT_OK(Harden(last_lsn()));
  std::unique_lock<std::mutex> lock(mu_);
  // Harden returned, so the flusher holds no in-flight IO on fd_ and cannot
  // start any without this lock.
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  seq_ = new_seq;
  SUMTAB_RETURN_NOT_OK(OpenSegmentLocked());
  lock.unlock();
  return SyncDir(dir_);
}

uint64_t Writer::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_;
}

uint64_t Writer::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

uint64_t Writer::segment_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

int64_t Writer::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

int64_t Writer::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void Writer::FlusherLoop() {
  static Histogram* fsync_hist =
      MetricsRegistry::Global().histogram("wal.fsync");
  static Counter* fsync_counter =
      MetricsRegistry::Global().counter("wal.fsyncs");
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval = std::chrono::microseconds(
      options_.flush_interval_micros > 0 ? options_.flush_interval_micros : 1);
  while (true) {
    if (pending_.empty()) {
      if (stop_) return;
      work_cv_.wait_for(lock, interval);
      continue;
    }
    if (!flush_requested_ && !stop_) {
      // Group-commit window: batch whatever arrives within one interval
      // unless a Harden() waiter asks for immediate durability.
      work_cv_.wait_for(lock, interval);
    }
    if (pending_.empty()) continue;
    std::string batch;
    batch.swap(pending_);
    uint64_t upto = last_lsn_;
    flush_requested_ = false;
    flush_in_progress_ = true;
    int fd = fd_;
    lock.unlock();

    // The fault point sits BEFORE the write: an injected failure (or crash)
    // here loses the whole batch, exactly like power failing before the
    // flush. (A SIGKILL after write(2) would keep the bytes — the kernel
    // owns them — which is what the separate torn-write point is for.)
    Status st = FaultInjector::Instance().Check("wal/fsync");
    if (st.ok()) {
      ScopedLatency timer(fsync_hist);
      st = WriteFully(fd, batch.data(), batch.size());
      if (st.ok()) st = SyncFd(fd);
      fsync_counter->Increment();
    }

    lock.lock();
    flush_in_progress_ = false;
    if (st.ok()) {
      durable_lsn_ = std::max(durable_lsn_, upto);
    } else if (io_status_.ok()) {
      io_status_ = st;
    }
    done_cv_.notify_all();
  }
}

// ---- scanning / recovery ----

StatusOr<ScanResult> ScanDir(const std::string& dir, bool repair) {
  static Counter* torn_counter =
      MetricsRegistry::Global().counter("recovery.torn_truncations");
  ScanResult result;
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = SegmentSeqOf(entry.path().filename().string());
    if (seq > 0) segments.emplace_back(seq, entry.path().string());
  }
  if (ec) {
    return RejectIo(RejectReason::kIoError,
                    "list " + dir + ": " + ec.message());
  }
  std::sort(segments.begin(), segments.end());

  uint64_t prev_lsn = 0;
  for (const auto& [seq, path] : segments) {
    result.max_segment_seq = seq;
    std::string contents;
    SUMTAB_RETURN_NOT_OK(ReadFileContents(path, &contents));

    size_t pos = 0;
    bool torn = false;
    while (pos < contents.size()) {
      Decoder header(contents.data() + pos,
                     std::min<size_t>(8, contents.size() - pos));
      uint32_t len = header.U32();
      uint32_t crc = header.U32();
      if (!header.ok() || len > kMaxFrameLen ||
          contents.size() - pos - 8 < len) {
        torn = true;  // ran off the end: classic torn tail
        break;
      }
      const char* payload = contents.data() + pos + 8;
      if (Crc32(payload, static_cast<size_t>(len)) != crc) {
        torn = true;  // bit rot or a torn overwrite within the frame
        break;
      }
      Decoder body(payload, len);
      Record record;
      record.lsn = body.U64();
      record.type = body.U8();
      record.body.assign(payload + 9, len - 9);
      if (!body.ok() || record.lsn <= prev_lsn) {
        torn = true;  // LSNs must strictly increase; anything else is rot
        break;
      }
      prev_lsn = record.lsn;
      result.records.push_back(std::move(record));
      pos += 8 + len;
    }
    if (torn) {
      result.torn_events += 1;
      torn_counter->Increment();
      result.truncated_bytes +=
          static_cast<int64_t>(contents.size() - pos);
      if (repair) {
        fs::resize_file(path, pos, ec);
        if (ec) {
          return RejectIo(RejectReason::kIoError,
                          "truncate " + path + ": " + ec.message());
        }
      }
      // Everything after a torn region — rest of this segment AND any later
      // segment — is an unreachable suffix: the clean prefix is the log.
      break;
    }
  }
  return result;
}

Status RemoveSegmentsThrough(const std::string& dir, uint64_t seq) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t s = SegmentSeqOf(entry.path().filename().string());
    if (s > 0 && s <= seq) {
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

Status ReadFileContents(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err = Errno("stat " + path);
    ::close(fd);
    return err;
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out->size()) {
    ssize_t n = ::read(fd, out->data() + got, out->size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      Status err = Errno("read " + path);
      ::close(fd);
      return err;
    }
    if (n == 0) break;  // the file shrank under us: keep what was read
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out->resize(got);
  return Status::OK();
}

}  // namespace wal
}  // namespace sumtab
