// Durable layer (src/store/wal.h): WAL replay rebuilds the version store, torn
// writes truncate cleanly, snapshot+tail replay is equivalent to full replay, a roll
// costs one segment whatever the store's size, both crash windows of a roll reopen
// to the live state, and replay is deterministic (same log -> identical store).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/store/version_store.h"
#include "src/store/wal.h"

namespace basil {
namespace {

TxnDigest PatternDigest(uint8_t seed) {
  TxnDigest d;
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<uint8_t>(seed + i);
  }
  return d;
}

WalCommitRecord MakeRecord(uint32_t i) {
  WalCommitRecord rec;
  rec.writer = PatternDigest(static_cast<uint8_t>(i + 1));
  rec.writer[31] ^= static_cast<uint8_t>(i >> 8);  // Distinct for i < 65536.
  rec.ts = Timestamp{100 + i, 1 + i % 3};
  rec.writes.emplace_back("k" + std::to_string(i % 4), "v" + std::to_string(i));
  if (i % 2 == 0) {
    rec.writes.emplace_back("shared", "s" + std::to_string(i));
  }
  return rec;
}

// Applies `n` records through a DurableStore (mirroring them into `store` the way a
// replica does: store first, then AppendCommit).
void BuildLog(DurableStore* durable, VersionStore* store, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    const WalCommitRecord rec = MakeRecord(i);
    for (const auto& [key, value] : rec.writes) {
      store->ApplyCommittedWrite(key, rec.ts, value, rec.writer);
    }
    durable->AppendCommit(rec);
  }
}

void ExpectSameChains(const VersionStore& a, const VersionStore& b) {
  const auto ca = a.CommittedChains();
  const auto cb = b.CommittedChains();
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].key, cb[i].key);
    ASSERT_EQ(ca[i].versions.size(), cb[i].versions.size()) << ca[i].key;
    for (size_t j = 0; j < ca[i].versions.size(); ++j) {
      EXPECT_EQ(ca[i].versions[j].ts, cb[i].versions[j].ts);
      EXPECT_EQ(ca[i].versions[j].value, cb[i].versions[j].value);
      EXPECT_EQ(ca[i].versions[j].writer, cb[i].versions[j].writer);
    }
  }
}

size_t FramedSize(const WalCommitRecord& rec) {
  Encoder body;
  rec.EncodeTo(body);
  return 8 + body.size();  // u32 length + u32 crc + body.
}

// Framed bytes of MakeRecord(from) .. MakeRecord(to - 1).
size_t FramedBytes(uint32_t from, uint32_t to) {
  size_t total = 0;
  for (uint32_t i = from; i < to; ++i) {
    total += FramedSize(MakeRecord(i));
  }
  return total;
}

// Reopens a copy of `media` (leaving the original untouched) and expects the
// replayed store, applied set and high-water mark to match the live ones.
DurableStore::ReplayStats ExpectReopensTo(const MemMedia& media, uint32_t snapshot_every,
                                          const VersionStore& live,
                                          const DurableStore& live_durable,
                                          uint32_t records) {
  MemMedia copy = media;
  DurableStore reopened(&copy, snapshot_every);
  VersionStore restored;
  const DurableStore::ReplayStats stats = reopened.Open(&restored);
  ExpectSameChains(live, restored);
  for (uint32_t i = 0; i < records; ++i) {
    EXPECT_TRUE(reopened.HasApplied(MakeRecord(i).writer)) << i;
  }
  EXPECT_EQ(reopened.high_water(), live_durable.high_water());
  return stats;
}

// MemMedia with the two ways a roll can be cut short by a crash: the WAL truncate
// never lands, or the append to snapshot.bin lands only half its bytes.
class CrashingMedia : public MemMedia {
 public:
  bool drop_wal_truncate = false;
  bool tear_snapshot_append = false;

  bool Append(const std::string& name, const uint8_t* data, size_t len) override {
    if (tear_snapshot_append && name == DurableStore::kSnapshotFile) {
      MemMedia::Append(name, data, len / 2);
      return false;
    }
    return MemMedia::Append(name, data, len);
  }
  bool WriteAtomic(const std::string& name, const std::vector<uint8_t>& bytes) override {
    if (drop_wal_truncate && name == DurableStore::kWalFile) {
      return true;
    }
    return MemMedia::WriteAtomic(name, bytes);
  }
};

TEST(Wal, ReplayRebuildsStore) {
  MemMedia media;
  VersionStore live;
  {
    DurableStore durable(&media, /*snapshot_every=*/1000);
    VersionStore empty;
    durable.Open(&empty);
    BuildLog(&durable, &live, 10);
    EXPECT_EQ(durable.appends(), 10u);
    EXPECT_EQ(durable.snapshots_taken(), 0u);
  }
  // A fresh incarnation replays the WAL into an empty store.
  DurableStore durable(&media, 1000);
  VersionStore restored;
  const DurableStore::ReplayStats stats = durable.Open(&restored);
  EXPECT_EQ(stats.wal_records, 10u);
  EXPECT_EQ(stats.snapshot_versions, 0u);
  EXPECT_EQ(stats.torn_bytes_discarded, 0u);
  ExpectSameChains(live, restored);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(durable.HasApplied(MakeRecord(i).writer)) << i;
  }
  EXPECT_EQ(durable.high_water(), MakeRecord(9).ts);
}

TEST(Wal, TornWriteTruncatesTailOnReplay) {
  MemMedia media;
  {
    DurableStore durable(&media, 1000);
    VersionStore store;
    durable.Open(&store);
    BuildLog(&durable, &store, 5);
  }
  // Model a torn append: the last record loses its final 3 bytes.
  std::vector<uint8_t>& wal = media.file(DurableStore::kWalFile);
  const size_t full = wal.size();
  wal.resize(full - 3);

  DurableStore durable(&media, 1000);
  VersionStore restored;
  const DurableStore::ReplayStats stats = durable.Open(&restored);
  EXPECT_EQ(stats.wal_records, 4u);
  EXPECT_GT(stats.torn_bytes_discarded, 0u);
  EXPECT_FALSE(durable.HasApplied(MakeRecord(4).writer));

  // The torn tail was truncated off the media, so the log is clean again...
  const size_t truncated = media.file(DurableStore::kWalFile).size();
  EXPECT_LT(truncated, full - 3);
  // ...and appending extends it from the last good record.
  const WalCommitRecord again = MakeRecord(4);
  for (const auto& [key, value] : again.writes) {
    restored.ApplyCommittedWrite(key, again.ts, value, again.writer);
  }
  durable.AppendCommit(again);

  DurableStore reopened(&media, 1000);
  VersionStore final_store;
  EXPECT_EQ(reopened.Open(&final_store).wal_records, 5u);
  ExpectSameChains(restored, final_store);
}

TEST(Wal, CorruptRecordStopsReplayAtLastGoodRecord) {
  MemMedia media;
  {
    DurableStore durable(&media, 1000);
    VersionStore store;
    durable.Open(&store);
    BuildLog(&durable, &store, 5);
  }
  std::vector<uint8_t>& wal = media.file(DurableStore::kWalFile);
  wal[wal.size() - 5] ^= 0xFF;  // Bit rot inside the last record's body.

  DurableStore durable(&media, 1000);
  VersionStore restored;
  const DurableStore::ReplayStats stats = durable.Open(&restored);
  EXPECT_EQ(stats.wal_records, 4u);
  EXPECT_GT(stats.torn_bytes_discarded, 0u);
}

TEST(Wal, SnapshotPlusTailEquivalentToFullReplay) {
  MemMedia snap_media;
  VersionStore live;
  {
    DurableStore durable(&snap_media, /*snapshot_every=*/4);
    VersionStore empty;
    durable.Open(&empty);
    BuildLog(&durable, &live, 10);
    EXPECT_EQ(durable.snapshots_taken(), 2u);  // After records 4 and 8.
  }
  DurableStore durable(&snap_media, 4);
  VersionStore restored;
  const DurableStore::ReplayStats stats = durable.Open(&restored);
  EXPECT_GT(stats.snapshot_versions, 0u);
  EXPECT_EQ(stats.wal_records, 2u);  // Only the tail past the last snapshot.
  ExpectSameChains(live, restored);
  // The applied set and high-water mark survive the snapshot boundary.
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(durable.HasApplied(MakeRecord(i).writer)) << i;
  }
  EXPECT_EQ(durable.high_water(), MakeRecord(9).ts);
}

TEST(Wal, ReplayIsDeterministic) {
  // Same operations on two independent media -> byte-identical files; same log
  // replayed twice -> identical stores.
  MemMedia m1;
  MemMedia m2;
  for (MemMedia* m : {&m1, &m2}) {
    DurableStore durable(m, 4);
    VersionStore store;
    durable.Open(&store);
    BuildLog(&durable, &store, 10);
  }
  EXPECT_EQ(m1.file(DurableStore::kWalFile), m2.file(DurableStore::kWalFile));
  EXPECT_EQ(m1.file(DurableStore::kSnapshotFile),
            m2.file(DurableStore::kSnapshotFile));

  VersionStore r1;
  VersionStore r2;
  DurableStore d1(&m1, 4);
  DurableStore d2(&m1, 4);
  d1.Open(&r1);
  d2.Open(&r2);
  ExpectSameChains(r1, r2);
}

TEST(Wal, DuplicateCommitsAreLoggedOnce) {
  MemMedia media;
  DurableStore durable(&media, 1000);
  VersionStore store;
  durable.Open(&store);
  const WalCommitRecord rec = MakeRecord(0);
  durable.AppendCommit(rec);
  durable.AppendCommit(rec);  // Re-delivered writeback.
  EXPECT_EQ(durable.appends(), 1u);

  DurableStore reopened(&media, 1000);
  VersionStore restored;
  EXPECT_EQ(reopened.Open(&restored).wal_records, 1u);
}

TEST(Wal, FsyncGroupCommitBatchesSyncs) {
  // wal_fsync toggled ON: one Sync covers every `fsync_every` appends — never one
  // per record — and the synced watermark reaches the end of the log at each sync.
  MemMedia media;
  DurableStore durable(&media, /*snapshot_every=*/1000, /*fsync_every=*/4);
  VersionStore store;
  durable.Open(&store);
  BuildLog(&durable, &store, 10);
  EXPECT_EQ(durable.appends(), 10u);
  // 10 appends at a cadence of 4 -> syncs after records 4 and 8 only.
  EXPECT_EQ(durable.fsyncs(), 2u);
  EXPECT_EQ(media.sync_count(DurableStore::kWalFile), 2u);
  // The last sync covered the first 8 records: the watermark trails the file only
  // by the unsynced tail (records 9 and 10).
  EXPECT_LT(media.synced_bytes(DurableStore::kWalFile),
            media.file(DurableStore::kWalFile).size());
  EXPECT_GT(media.synced_bytes(DurableStore::kWalFile), 0u);
}

TEST(Wal, FsyncDisabledByDefaultNeverSyncs) {
  // wal_fsync toggled OFF (the default): appends land in the media with no Sync
  // calls at all — the pre-group-commit durability model.
  MemMedia media;
  DurableStore durable(&media, /*snapshot_every=*/1000);
  VersionStore store;
  durable.Open(&store);
  BuildLog(&durable, &store, 10);
  EXPECT_EQ(durable.appends(), 10u);
  EXPECT_EQ(durable.fsyncs(), 0u);
  EXPECT_EQ(media.sync_count(DurableStore::kWalFile), 0u);
  EXPECT_EQ(media.sync_count(DurableStore::kSnapshotFile), 0u);
}

TEST(Wal, FsyncCoversSnapshotBeforeWalTruncate) {
  // A snapshot taken under group commit must be synced before the WAL is cut, and
  // the records_since_fsync counter resets with the fresh log.
  MemMedia media;
  DurableStore durable(&media, /*snapshot_every=*/6, /*fsync_every=*/4);
  VersionStore store;
  durable.Open(&store);
  BuildLog(&durable, &store, 6);  // Snapshot fires on the 6th append.
  EXPECT_EQ(durable.snapshots_taken(), 1u);
  EXPECT_EQ(media.sync_count(DurableStore::kSnapshotFile), 1u);
  EXPECT_EQ(media.synced_bytes(DurableStore::kSnapshotFile),
            media.file(DurableStore::kSnapshotFile).size());
  EXPECT_TRUE(media.file(DurableStore::kWalFile).empty());

  // Replay after the synced snapshot + truncate sees the full history.
  DurableStore reopened(&media, 6, 4);
  VersionStore restored;
  const DurableStore::ReplayStats stats = reopened.Open(&restored);
  EXPECT_EQ(stats.wal_records, 0u);
  EXPECT_GT(stats.snapshot_versions, 0u);
  ExpectSameChains(store, restored);
}

TEST(Wal, RollAppendsExactlyTheWalSegment) {
  // Many distinct keys and a small roll interval: each roll must append exactly the
  // bytes the WAL held, so snapshot.bin is the sum of the framed records however
  // large the store grows, and the log must replay to the live store after every
  // roll.
  constexpr uint32_t kEvery = 64;
  constexpr uint32_t kRecords = 2048;
  MemMedia media;
  DurableStore durable(&media, kEvery);
  VersionStore empty;
  durable.Open(&empty);
  VersionStore live;
  size_t framed_total = 0;
  for (uint32_t i = 0; i < kRecords; ++i) {
    WalCommitRecord rec = MakeRecord(i);
    rec.writes.emplace_back("distinct" + std::to_string(i), "d" + std::to_string(i));
    for (const auto& [key, value] : rec.writes) {
      live.ApplyCommittedWrite(key, rec.ts, value, rec.writer);
    }
    const size_t snap_before = media.file(DurableStore::kSnapshotFile).size();
    const size_t wal_held = media.file(DurableStore::kWalFile).size() + FramedSize(rec);
    framed_total += FramedSize(rec);
    const uint64_t rolls_before = durable.snapshots_taken();
    durable.AppendCommit(rec);
    if (durable.snapshots_taken() == rolls_before) {
      EXPECT_EQ(media.file(DurableStore::kSnapshotFile).size(), snap_before);
      EXPECT_EQ(media.file(DurableStore::kWalFile).size(), wal_held);
      continue;
    }
    EXPECT_TRUE(media.file(DurableStore::kWalFile).empty());
    EXPECT_EQ(media.file(DurableStore::kSnapshotFile).size() - snap_before, wal_held)
        << "roll " << durable.snapshots_taken();
    const DurableStore::ReplayStats stats =
        ExpectReopensTo(media, kEvery, live, durable, i + 1);
    EXPECT_EQ(stats.wal_records, 0u);
    EXPECT_EQ(stats.torn_bytes_discarded, 0u);
  }
  EXPECT_EQ(durable.snapshots_taken(), kRecords / kEvery);
  EXPECT_EQ(media.file(DurableStore::kSnapshotFile).size(), framed_total);
}

TEST(Wal, RollCutBeforeWalTruncateReplaysOnce) {
  // Crash window (a): the segment reached snapshot.bin but the WAL truncate did
  // not, so both files hold it. Replay applies it once, and later rolls do not seal
  // it a second time.
  CrashingMedia media;
  VersionStore live;
  DurableStore durable(&media, /*snapshot_every=*/8);
  VersionStore empty;
  durable.Open(&empty);
  BuildLog(&durable, &live, 12);  // One clean roll, then four records in the WAL.
  media.drop_wal_truncate = true;
  BuildLog(&durable, &live, 16);  // Re-delivered 0..11 are no-ops; 12..15 roll.
  media.drop_wal_truncate = false;
  ASSERT_EQ(durable.snapshots_taken(), 2u);
  const std::vector<uint8_t>& sealed = media.file(DurableStore::kSnapshotFile);
  const std::vector<uint8_t>& wal = media.file(DurableStore::kWalFile);
  ASSERT_EQ(wal.size(), FramedBytes(8, 16));
  ASSERT_TRUE(std::equal(wal.begin(), wal.end(), sealed.end() - wal.size()));

  const DurableStore::ReplayStats stats = ExpectReopensTo(media, 8, live, durable, 16);
  EXPECT_EQ(stats.wal_records, 0u);  // Every WAL record was already sealed.
  EXPECT_EQ(stats.torn_bytes_discarded, 0u);

  DurableStore reopened(&media, 8);
  VersionStore restored;
  reopened.Open(&restored);
  BuildLog(&reopened, &restored, 24);
  EXPECT_EQ(reopened.snapshots_taken(), 1u);
  EXPECT_TRUE(media.file(DurableStore::kWalFile).empty());
  EXPECT_EQ(media.file(DurableStore::kSnapshotFile).size(), FramedBytes(0, 24));
  ExpectReopensTo(media, 8, restored, reopened, 24);
}

TEST(Wal, TornRollAppendTruncatesSnapshotTail) {
  // Crash window (b): the roll's append to snapshot.bin tore halfway through the
  // segment. Replay keeps the whole records before the tear, discards the rest of
  // snapshot.bin as a torn tail, and takes the remaining records from the WAL.
  CrashingMedia media;
  VersionStore live;
  DurableStore durable(&media, /*snapshot_every=*/8);
  VersionStore empty;
  durable.Open(&empty);
  BuildLog(&durable, &live, 12);
  media.tear_snapshot_append = true;
  BuildLog(&durable, &live, 20);  // 12..15 would roll; the append tears.
  media.tear_snapshot_append = false;
  EXPECT_EQ(durable.snapshots_taken(), 1u);  // Rolls stay off until the next Open.
  const size_t torn_size = media.file(DurableStore::kSnapshotFile).size();
  ASSERT_EQ(torn_size, FramedBytes(0, 8) + FramedBytes(8, 16) / 2);

  const DurableStore::ReplayStats stats = ExpectReopensTo(media, 8, live, durable, 20);
  EXPECT_GT(stats.torn_bytes_discarded, 0u);
  EXPECT_GT(stats.wal_records, 0u);
  EXPECT_LT(stats.wal_records, 12u);  // Records 8.. before the tear were sealed.
  EXPECT_EQ(torn_size - stats.torn_bytes_discarded,
            FramedBytes(0, 8 + 12 - stats.wal_records));

  // Opening truncates the torn tail on the media too, and rolls resume without
  // sealing any record twice.
  DurableStore reopened(&media, 8);
  VersionStore restored;
  EXPECT_EQ(reopened.Open(&restored).torn_bytes_discarded, stats.torn_bytes_discarded);
  EXPECT_EQ(media.file(DurableStore::kSnapshotFile).size(),
            torn_size - stats.torn_bytes_discarded);
  BuildLog(&reopened, &restored, 32);
  EXPECT_GT(reopened.snapshots_taken(), 0u);
  EXPECT_EQ(media.file(DurableStore::kSnapshotFile).size() +
                media.file(DurableStore::kWalFile).size(),
            FramedBytes(0, 32));
  ExpectReopensTo(media, 8, restored, reopened, 32);
}

TEST(Wal, EmptyMediaOpensClean) {
  MemMedia media;
  DurableStore durable(&media, 8);
  VersionStore store;
  const DurableStore::ReplayStats stats = durable.Open(&store);
  EXPECT_EQ(stats.wal_records, 0u);
  EXPECT_EQ(stats.snapshot_versions, 0u);
  EXPECT_EQ(store.committed_key_count(), 0u);
  EXPECT_EQ(durable.high_water(), Timestamp{});
}

}  // namespace
}  // namespace basil
