#include "graph/wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/metrics.h"
#include "common/timer.h"
#include "graph/wal/crc32.h"
#include "graph/wal/record.h"

namespace gs::wal {

namespace {

constexpr size_t kHeaderSize = sizeof(kWalMagic);
constexpr size_t kFrameSize = 8;  // u32 payload_len + u32 crc

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

Status WriteAll(int fd, const uint8_t* data, size_t len,
                const std::string& path) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("wal write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

uint32_t ReadU32Le(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

WalWriter::~WalWriter() {
  Status s = Close();
  (void)s;
}

Status WalWriter::Open(const std::string& path, WalWriterOptions options) {
  if (is_open()) return Status::FailedPrecondition("wal already open");
  if (options.sync_every_n_appends == 0) {
    return Status::InvalidArgument("sync_every_n_appends must be >= 1");
  }
  // Replay (which validates and measures the good prefix) runs before Open
  // on recovery; here we re-check just the header and truncate any torn
  // tail so the next record lands on a boundary.
  GS_ASSIGN_OR_RETURN(WalReplayResult replay, ReplayWal(path));
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return ErrnoStatus("wal open", path);
  if (replay.valid_bytes == 0) {
    // Fresh file: write the header.
    Status s = WriteAll(fd, reinterpret_cast<const uint8_t*>(kWalMagic),
                        kHeaderSize, path);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
    replay.valid_bytes = kHeaderSize;
  } else if (::ftruncate(fd, static_cast<off_t>(replay.valid_bytes)) != 0) {
    Status s = ErrnoStatus("wal truncate", path);
    ::close(fd);
    return s;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    Status s = ErrnoStatus("wal seek", path);
    ::close(fd);
    return s;
  }
  fd_ = fd;
  path_ = path;
  options_ = options;
  appends_since_sync_ = 0;
  bytes_written_ = replay.valid_bytes;
  return Status::Ok();
}

Status WalWriter::Append(const MutationBatch& batch) {
  if (!is_open()) return Status::FailedPrecondition("wal not open");
  Timer append_timer;
  std::vector<uint8_t> payload = EncodeMutationBatch(batch);
  uint32_t crc = Crc32(payload.data(), payload.size());
  // Frame + payload in one buffer → one write(2), so a crash can only tear
  // the record at arbitrary byte offsets (handled by replay), never
  // interleave with another record.
  std::vector<uint8_t> framed;
  framed.reserve(kFrameSize + payload.size());
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) framed.push_back((len >> (8 * i)) & 0xFF);
  for (int i = 0; i < 4; ++i) framed.push_back((crc >> (8 * i)) & 0xFF);
  framed.insert(framed.end(), payload.begin(), payload.end());
  GS_RETURN_IF_ERROR(WriteAll(fd_, framed.data(), framed.size(), path_));
  bytes_written_ += framed.size();

  static auto* wal_bytes =
      metrics::Registry::Global().GetCounter("gs_wal_bytes");
  static auto* wal_records =
      metrics::Registry::Global().GetCounter("gs_wal_records");
  wal_bytes->Increment(framed.size());
  wal_records->Increment();

  Status result = Status::Ok();
  if (++appends_since_sync_ >= options_.sync_every_n_appends) {
    result = Sync();
  }
  // SLO: end-to-end append latency, including the fsync when this append
  // hits the sync cadence — the number an ingest caller actually waits on.
  static auto* append_nanos =
      metrics::Registry::Global().GetHistogram("gs_wal_append_nanos");
  append_nanos->Observe(static_cast<uint64_t>(append_timer.Nanos()));
  return result;
}

Status WalWriter::Sync() {
  if (!is_open()) return Status::FailedPrecondition("wal not open");
  appends_since_sync_ = 0;
  Timer fsync_timer;
  int rc = ::fsync(fd_);
  // SLO: observed on failure too — a hung-then-failed fsync is exactly the
  // latency spike a scraper's p99 over this histogram should show.
  static auto* fsync_nanos =
      metrics::Registry::Global().GetHistogram("gs_wal_fsync_nanos");
  fsync_nanos->Observe(static_cast<uint64_t>(fsync_timer.Nanos()));
  if (rc != 0) return ErrnoStatus("wal fsync", path_);
  return Status::Ok();
}

Status WalWriter::Close() {
  if (!is_open()) return Status::Ok();
  Status s = Sync();
  ::close(fd_);
  fd_ = -1;
  return s;
}

StatusOr<WalReplayResult> ReplayWal(const std::string& path) {
  WalReplayResult result;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return result;  // Fresh log: nothing to replay.
    return ErrnoStatus("wal open", path);
  }

  std::vector<uint8_t> data;
  {
    uint8_t buf[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        Status s = ErrnoStatus("wal read", path);
        ::close(fd);
        return s;
      }
      if (n == 0) break;
      data.insert(data.end(), buf, buf + n);
    }
  }
  ::close(fd);

  if (data.empty()) return result;  // Created but never written: fresh.
  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), kWalMagic, kHeaderSize) != 0) {
    return Status::IoError("wal '" + path + "': bad magic (not a WAL file?)");
  }

  size_t pos = kHeaderSize;
  result.valid_bytes = kHeaderSize;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameSize) {
      result.recovered_torn_tail = true;  // Frame itself is torn.
      break;
    }
    uint32_t len = ReadU32Le(data.data() + pos);
    uint32_t crc = ReadU32Le(data.data() + pos + 4);
    if (data.size() - pos - kFrameSize < len) {
      result.recovered_torn_tail = true;  // Payload is torn.
      break;
    }
    const uint8_t* payload = data.data() + pos + kFrameSize;
    if (Crc32(payload, len) != crc) {
      // A complete record with a bad checksum is corruption, not a torn
      // tail — refuse to silently drop committed data.
      return Status::IoError("wal '" + path + "': checksum mismatch in record " +
                             std::to_string(result.batches.size()));
    }
    GS_ASSIGN_OR_RETURN(MutationBatch batch, DecodeMutationBatch(payload, len));
    result.batches.push_back(std::move(batch));
    pos += kFrameSize + len;
    result.valid_bytes = pos;
  }
  return result;
}

}  // namespace gs::wal
