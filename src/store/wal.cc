#include "src/store/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>

namespace basil {
namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Media backends.
// ---------------------------------------------------------------------------

bool MemMedia::Read(const std::string& name, std::vector<uint8_t>* out) {
  out->clear();
  auto it = files_.find(name);
  if (it == files_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

bool MemMedia::Append(const std::string& name, const uint8_t* data, size_t len) {
  std::vector<uint8_t>& f = files_[name];
  f.insert(f.end(), data, data + len);
  return true;
}

bool MemMedia::WriteAtomic(const std::string& name, const std::vector<uint8_t>& bytes) {
  files_[name] = bytes;
  return true;
}

bool MemMedia::Sync(const std::string& name) {
  ++sync_counts_[name];
  synced_bytes_[name] = files_[name].size();
  return true;
}

uint64_t MemMedia::sync_count(const std::string& name) const {
  auto it = sync_counts_.find(name);
  return it == sync_counts_.end() ? 0 : it->second;
}

size_t MemMedia::synced_bytes(const std::string& name) const {
  auto it = synced_bytes_.find(name);
  return it == synced_bytes_.end() ? 0 : it->second;
}

DiskMedia::DiskMedia(std::string dir) : dir_(std::move(dir)) {
  // mkdir -p: create each path component, tolerating the ones that exist.
  std::string prefix;
  for (size_t i = 0; i <= dir_.size(); ++i) {
    if (i == dir_.size() || dir_[i] == '/') {
      prefix = dir_.substr(0, i);
      if (prefix.empty() || prefix == ".") {
        continue;
      }
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return;
      }
    }
  }
  ok_ = true;
}

bool DiskMedia::Read(const std::string& name, std::vector<uint8_t>* out) {
  out->clear();
  std::FILE* f = std::fopen(Path(name).c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->resize(len > 0 ? static_cast<size_t>(len) : 0);
  const bool ok =
      out->empty() || std::fread(out->data(), 1, out->size(), f) == out->size();
  std::fclose(f);
  if (!ok) {
    out->clear();
  }
  return ok;
}

bool DiskMedia::Append(const std::string& name, const uint8_t* data, size_t len) {
  std::FILE* f = std::fopen(Path(name).c_str(), "ab");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(data, 1, len, f) == len && std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

bool DiskMedia::WriteAtomic(const std::string& name, const std::vector<uint8_t>& bytes) {
  const std::string tmp = Path(name) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok =
      (bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size()) &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), Path(name).c_str()) == 0;
}

bool DiskMedia::Sync(const std::string& name) {
  const int fd = ::open(Path(name).c_str(), O_WRONLY);
  if (fd < 0) {
    return false;
  }
  bool ok = ::fdatasync(fd) == 0;
  ::close(fd);
  // The file may have just been renamed into place (WriteAtomic): its directory
  // entry must reach the device too, or a power failure resurrects the old inode
  // under this name with the new, synced bytes unreachable.
  const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return false;
  }
  ok = ::fsync(dfd) == 0 && ok;
  ::close(dfd);
  return ok;
}

// ---------------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------------

void WalCommitRecord::EncodeTo(Encoder& enc) const {
  enc.PutDigest(writer);
  enc.PutTimestamp(ts);
  enc.PutVarint(writes.size());
  for (const auto& [key, value] : writes) {
    enc.PutString(key);
    enc.PutString(value);
  }
}

WalCommitRecord WalCommitRecord::DecodeFrom(Decoder& dec) {
  WalCommitRecord rec;
  rec.writer = dec.GetDigest();
  rec.ts = dec.GetTimestamp();
  const uint64_t n = dec.GetVarint();
  if (!dec.CheckCount(n)) {
    return rec;
  }
  rec.writes.resize(n);
  for (auto& [key, value] : rec.writes) {
    key = dec.GetString();
    value = dec.GetString();
  }
  return rec;
}

// ---------------------------------------------------------------------------
// DurableStore.
// ---------------------------------------------------------------------------

DurableStore::DurableStore(WalMedia* media, uint32_t snapshot_every,
                           uint32_t fsync_every)
    : media_(media),
      snapshot_every_(snapshot_every > 0 ? snapshot_every : 1),
      fsync_every_(fsync_every) {}

DurableStore::ReplayStats DurableStore::Open(VersionStore* store) {
  ReplayStats stats;
  // snapshot.bin and wal.bin are one log: the sealed segments, then the open one.
  const Replayed sealed = ReplayFile(kSnapshotFile, store, nullptr);
  const Replayed tail = ReplayFile(kWalFile, store, &segment_);
  stats.snapshot_versions = sealed.writes;
  stats.wal_records = tail.records;
  stats.torn_bytes_discarded = sealed.torn_bytes + tail.torn_bytes;
  records_since_snapshot_ = static_cast<uint32_t>(tail.records);
  return stats;
}

DurableStore::Replayed DurableStore::ReplayFile(const char* name, VersionStore* store,
                                                std::vector<uint8_t>* fresh) {
  Replayed out;
  std::vector<uint8_t> bytes;
  if (!media_->Read(name, &bytes)) {
    return out;
  }
  size_t good = 0;  // Offset just past the last fully valid record.
  auto le32 = [&bytes](size_t at) {
    return static_cast<uint32_t>(bytes[at]) | bytes[at + 1] << 8 |
           bytes[at + 2] << 16 | static_cast<uint32_t>(bytes[at + 3]) << 24;
  };
  while (bytes.size() - good >= 8) {
    const uint32_t body_len = le32(good);
    const uint32_t crc = le32(good + 4);
    if (body_len > bytes.size() - good - 8) {
      break;  // Torn header or truncated body.
    }
    const uint8_t* body = bytes.data() + good + 8;
    if (Crc32(body, body_len) != crc) {
      break;  // Torn or corrupt body.
    }
    Decoder body_dec(body, body_len);
    const WalCommitRecord rec = WalCommitRecord::DecodeFrom(body_dec);
    if (!body_dec.ok() || !body_dec.AtEnd()) {
      break;
    }
    // A roll cut short before its WAL truncate leaves records in both files; the
    // copy already replayed from snapshot.bin wins and is not sealed twice.
    if (!applied_.contains(rec.writer)) {
      ApplyRecord(rec, store);
      if (fresh != nullptr) {
        fresh->insert(fresh->end(), bytes.begin() + good,
                      bytes.begin() + good + 8 + body_len);
      }
      ++out.records;
      out.writes += rec.writes.size();
    }
    good += 8 + body_len;
  }
  if (good < bytes.size()) {
    // Truncate the torn tail so future appends extend a clean log.
    out.torn_bytes = bytes.size() - good;
    bytes.resize(good);
    media_->WriteAtomic(name, bytes);
  }
  return out;
}

void DurableStore::ApplyRecord(const WalCommitRecord& rec, VersionStore* store) {
  for (const auto& [key, value] : rec.writes) {
    store->ApplyCommittedWrite(key, rec.ts, value, rec.writer);
  }
  applied_.insert(rec.writer);
  if (high_water_ < rec.ts) {
    high_water_ = rec.ts;
  }
}

void DurableStore::BindMetrics(obs::MetricsRegistry* reg) {
  metrics_ = reg;
  if (reg != nullptr) {
    append_hist_ = reg->RegisterHistogram("wal.append_ns");
    fsync_hist_ = reg->RegisterHistogram("wal.fsync_ns");
  }
}

void DurableStore::AppendCommit(const WalCommitRecord& rec) {
  if (applied_.contains(rec.writer)) {
    return;  // Re-delivered writeback or state-transfer duplicate.
  }
  const bool timed = metrics_ != nullptr && metrics_->enabled();
  const uint64_t t0 = timed ? WallNowNs() : 0;
  Encoder body;
  rec.EncodeTo(body);
  Encoder frame;
  frame.PutU32(static_cast<uint32_t>(body.size()));
  frame.PutU32(Crc32(body.bytes().data(), body.bytes().size()));
  frame.Append(body);
  if (!media_->Append(kWalFile, frame.bytes().data(), frame.bytes().size())) {
    // Not durable (disk full, I/O error): leave the writer out of the applied set
    // so a re-delivered writeback or a re-offered state entry can try again.
    return;
  }
  segment_.insert(segment_.end(), frame.bytes().begin(), frame.bytes().end());
  applied_.insert(rec.writer);
  if (high_water_ < rec.ts) {
    high_water_ = rec.ts;
  }
  ++appends_;
  // Group commit: one fdatasync covers the whole batch of appends since the last
  // one, so the device flush is amortized across fsync_every commits. A failed
  // sync keeps the cadence counter high — the very next append retries instead of
  // silently widening the unsynced window by another full batch.
  if (fsync_every_ > 0 && ++records_since_fsync_ >= fsync_every_) {
    const uint64_t s0 = timed ? WallNowNs() : 0;
    if (media_->Sync(kWalFile)) {
      ++fsyncs_;
      records_since_fsync_ = 0;
    } else {
      ++fsync_failures_;
    }
    if (timed) {
      metrics_->Observe(fsync_hist_, WallNowNs() - s0);
    }
  }
  if (++records_since_snapshot_ >= snapshot_every_ && !rolls_stopped_) {
    Roll();
  }
  if (timed) {
    metrics_->Observe(append_hist_, WallNowNs() - t0);
  }
}

void DurableStore::Roll() {
  // Seal the open segment: its framed records move unchanged to the end of
  // snapshot.bin, so a roll costs one segment whatever the store's size. A failed
  // append may leave a partial record at snapshot.bin's tail, and every segment
  // appended after it would be unreachable on replay; so any failure stops rolls
  // until the next Open truncates that tail. The WAL keeps every record meanwhile.
  if (!media_->Append(kSnapshotFile, segment_.data(), segment_.size())) {
    rolls_stopped_ = true;
    return;
  }
  // Order matters: the sealed copy is durable before the WAL is truncated. A crash
  // in between replays the segment from both files, and the second copy is skipped.
  // With fsync enabled, "durable" must mean the device, not the page cache — a
  // failed sync keeps the WAL, the only durable copy of those records.
  if (fsync_every_ > 0) {
    if (!media_->Sync(kSnapshotFile)) {
      ++fsync_failures_;
      rolls_stopped_ = true;
      return;
    }
    ++fsyncs_;
  }
  media_->WriteAtomic(kWalFile, {});
  segment_.clear();
  records_since_snapshot_ = 0;
  records_since_fsync_ = 0;
  ++snapshots_;
}

}  // namespace basil
