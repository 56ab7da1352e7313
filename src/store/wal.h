// Durable layer under a replica's version store (docs/RECOVERY.md): an append-only
// write-ahead log of committed writes, rolled into a sealed snapshot file every few
// hundred records, and a replayer that rebuilds the committed state of a
// VersionStore on restart.
//
// The byte layer is abstracted behind WalMedia so the same WAL/snapshot logic runs on
// real files (DiskMedia, used by tools/basil_node.cc) and on an in-memory fake
// (MemMedia, used by the deterministic simulator recovery tests, which also corrupt
// the bytes to exercise torn-write truncation).
//
// Durability model: records survive process death (kill -9) once Append returns —
// the bytes are in the kernel page cache. With fsync group-commit enabled
// (DurableStore's `fsync_every`), the log is additionally fdatasync'd once every N
// appends — one device flush amortized over a batch of commits — so at most the
// last N-1 commits can be lost to an OS crash or power failure; the torn-tail
// truncation on replay already handles a record that was half-flushed.
#ifndef BASIL_SRC_STORE_WAL_H_
#define BASIL_SRC_STORE_WAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/serde.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/store/version_store.h"

namespace basil {

// CRC-32 (ISO-HDLC polynomial) over `len` bytes; guards every log record against
// torn writes and bit rot.
uint32_t Crc32(const uint8_t* data, size_t len);

// Byte-level storage under the WAL: named append-only files with atomic whole-file
// replacement (WAL truncation after a roll, torn-tail truncation).
class WalMedia {
 public:
  virtual ~WalMedia() = default;

  // Reads the whole file into `out`. Returns false (and leaves `out` empty) when the
  // file does not exist.
  virtual bool Read(const std::string& name, std::vector<uint8_t>* out) = 0;
  virtual bool Append(const std::string& name, const uint8_t* data, size_t len) = 0;
  // Replaces the file's contents atomically (write-temp-then-rename on disk): a crash
  // leaves either the old or the new bytes, never a mixture.
  virtual bool WriteAtomic(const std::string& name, const std::vector<uint8_t>& bytes) = 0;
  // Forces the file's bytes to stable storage (fdatasync on disk). The group-commit
  // hook: DurableStore calls it once per batch of appends, never per record.
  virtual bool Sync(const std::string& name) = 0;
};

// In-memory media for the simulator tests: survives replica "restarts" because the
// test owns it, and exposes the raw bytes so tests can model torn writes.
class MemMedia : public WalMedia {
 public:
  bool Read(const std::string& name, std::vector<uint8_t>* out) override;
  bool Append(const std::string& name, const uint8_t* data, size_t len) override;
  bool WriteAtomic(const std::string& name, const std::vector<uint8_t>& bytes) override;
  bool Sync(const std::string& name) override;

  // Direct access for fault injection (chopping a record in half, flipping bytes).
  std::vector<uint8_t>& file(const std::string& name) { return files_[name]; }
  // Group-commit observability: how often Sync hit this file, and how many bytes it
  // covered last time (tests assert fsync batching without a real disk).
  uint64_t sync_count(const std::string& name) const;
  size_t synced_bytes(const std::string& name) const;

 private:
  std::map<std::string, std::vector<uint8_t>> files_;
  std::map<std::string, uint64_t> sync_counts_;
  std::map<std::string, size_t> synced_bytes_;
};

// Real files under one directory (created, with parents, by the constructor).
class DiskMedia : public WalMedia {
 public:
  explicit DiskMedia(std::string dir);

  // False if the directory could not be created.
  bool ok() const { return ok_; }

  bool Read(const std::string& name, std::vector<uint8_t>* out) override;
  bool Append(const std::string& name, const uint8_t* data, size_t len) override;
  bool WriteAtomic(const std::string& name, const std::vector<uint8_t>& bytes) override;
  bool Sync(const std::string& name) override;

 private:
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  bool ok_ = false;
};

// One committed transaction's effect on this replica's shard partition: enough to
// rebuild the committed version chains (not the certificates — those are re-fetched
// from peers via state transfer when needed).
struct WalCommitRecord {
  TxnDigest writer{};
  Timestamp ts;
  std::vector<std::pair<Key, Value>> writes;  // Owned keys only.

  void EncodeTo(Encoder& enc) const;
  static WalCommitRecord DecodeFrom(Decoder& dec);
};

// The durable store: owns the WAL + snapshot files on a WalMedia and the replay
// logic. One instance per replica process incarnation; Open() once before use.
//
// File layout (all under the media), one log split in two files:
//   record        [u32 body_len][u32 crc32(body)][body], body = WalCommitRecord
//   wal.bin       the open segment: records appended per commit
//   snapshot.bin  the sealed segments: every `snapshot_every` appends, a roll appends
//                 the WAL's records unchanged to this file (synced first when
//                 `fsync_every` > 0), after which wal.bin is truncated to empty
//
// Replay = every record of snapshot.bin, then every record of wal.bin; the applied
// set and high-water mark are rebuilt from the records themselves. A torn or corrupt
// record ends that file's replay and truncates the file back to its last good
// record, so a crash mid-append (or mid-roll) never poisons the log. Genesis rows
// are not logged: the store's GenesisFn re-derives them.
class DurableStore {
 public:
  struct ReplayStats {
    uint64_t snapshot_versions = 0;    // Writes replayed from snapshot.bin.
    uint64_t wal_records = 0;          // Records replayed from the WAL tail.
    uint64_t torn_bytes_discarded = 0; // Bytes truncated off torn/corrupt tails.
  };

  // `fsync_every` is the group-commit knob (BasilConfig::wal_fsync_every): 0 means
  // never sync (records survive process death only); N > 0 fdatasyncs the WAL once
  // every N appends, and syncs snapshot.bin before each roll's WAL truncate.
  explicit DurableStore(WalMedia* media, uint32_t snapshot_every = 256,
                        uint32_t fsync_every = 0);

  // Rebuilds `store`'s committed state from snapshot + WAL. Call exactly once,
  // before any AppendCommit.
  ReplayStats Open(VersionStore* store);

  // Logs one committed transaction; rolls the WAL into snapshot.bin every
  // `snapshot_every` appends. No-op (and no duplicate record) if `rec.writer` was
  // already applied — re-delivered writebacks and state transfer stay idempotent.
  void AppendCommit(const WalCommitRecord& rec);

  bool HasApplied(const TxnDigest& writer) const { return applied_.contains(writer); }
  // Largest committed timestamp ever logged; the state-transfer request cursor.
  Timestamp high_water() const { return high_water_; }

  uint64_t appends() const { return appends_; }
  uint64_t snapshots_taken() const { return snapshots_; }  // Rolls completed.
  uint64_t fsyncs() const { return fsyncs_; }
  uint64_t fsync_failures() const { return fsync_failures_; }

  // Observability (docs/OBSERVABILITY.md): interns "wal.append_ns" (whole
  // AppendCommit, group-commit sync included) and "wal.fsync_ns" (the device flush
  // alone) histograms in `reg`. Unbound (the simulator recovery tests), timing is
  // skipped entirely — no wall-clock reads on the deterministic path.
  void BindMetrics(obs::MetricsRegistry* reg);

  static constexpr char kWalFile[] = "wal.bin";
  static constexpr char kSnapshotFile[] = "snapshot.bin";

 private:
  struct Replayed {
    uint64_t records = 0;
    uint64_t writes = 0;
    uint64_t torn_bytes = 0;
  };
  // Replays `name`'s intact records into `store`, skipping writers already applied,
  // and appends the framed bytes of the records it applied to `fresh` if non-null.
  Replayed ReplayFile(const char* name, VersionStore* store, std::vector<uint8_t>* fresh);
  void ApplyRecord(const WalCommitRecord& rec, VersionStore* store);
  void Roll();

  WalMedia* media_;
  const uint32_t snapshot_every_;
  const uint32_t fsync_every_;
  std::unordered_set<TxnDigest, TxnDigestHash> applied_;
  Timestamp high_water_{};
  std::vector<uint8_t> segment_;  // Framed records of wal.bin not yet sealed.
  bool rolls_stopped_ = false;    // A roll failed; resumes after the next Open.
  uint32_t records_since_snapshot_ = 0;
  uint32_t records_since_fsync_ = 0;
  uint64_t appends_ = 0;
  uint64_t snapshots_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t fsync_failures_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricId append_hist_ = obs::kInvalidMetric;
  obs::MetricId fsync_hist_ = obs::kInvalidMetric;
};

}  // namespace basil

#endif  // BASIL_SRC_STORE_WAL_H_
