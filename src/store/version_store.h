// Per-replica multiversion storage backing Basil's MVTSO variant (§4) and the OCC
// stores of the baselines. Holds, per key:
//   - the committed version chain (timestamp-ordered),
//   - prepared (visible-but-uncommitted) writes,
//   - read timestamps (RTS) of in-flight reads,
//   - the reader index used by Algorithm 1 step 4 (which prepared/committed
//     transactions read which version of the key).
// Pure data structure: no protocol logic, no waiting; the replica layers those on top.
//
// Partitioned for the parallel execution pipeline (docs/TRANSPORT.md "Partitioned
// state"): keys are hashed into `partitions()` shards, each guarded by its own
// mutex. Every per-key operation locks exactly one partition (leaf lock: nothing is
// acquired while holding it), so strand workers owning different key partitions
// mutate the store concurrently. Cross-partition views (Snapshot, CommittedChains,
// committed_key_count) lock partitions one at a time and merge deterministically,
// so their output is identical for any partition count.
//
// Two accessor families:
//   - Copy-out (CommittedBefore/Committed/PreparedBefore): return by value, safe
//     from any thread. The partitioned replica hot paths use these.
//   - Pointer-returning (LatestCommittedBefore/LatestCommitted/LatestPreparedBefore):
//     return pointers into the maps. Valid only while the caller externally
//     serializes all store access (the simulator backend, single-threaded tests,
//     and the baselines' loop-owned stores); a concurrent writer to the same key
//     may invalidate them.
#ifndef BASIL_SRC_STORE_VERSION_STORE_H_
#define BASIL_SRC_STORE_VERSION_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/store/txn.h"

namespace basil {

struct CommittedVersion {
  Timestamp ts;
  Value value;
  TxnDigest writer{};  // All-zero for genesis versions loaded at setup.
};

struct PreparedWrite {
  Timestamp ts;
  Value value;
  TxnDigest writer{};
};

class VersionStore {
 public:
  VersionStore();

  // Re-shards the key space into `n` partitions (clamped to >= 1). Must be called
  // before concurrent access begins (the replica constructor does, before any data
  // loads); existing keys are rehashed into their new partitions.
  void SetPartitions(uint32_t n);
  size_t partitions() const { return parts_.size(); }
  // The partition owning `key`: the replica routes key-affine work (reads) to the
  // strand owning this partition so store access and strand ownership line up.
  size_t PartitionOf(const Key& key) const {
    return std::hash<Key>{}(key) % parts_.size();
  }

  // ---- Committed state ----

  // Loads an initial version at timestamp zero (no writer certificate needed).
  void LoadGenesis(const Key& key, Value value);

  // Lazy table loading: when a key has never been written, `fn` supplies its initial
  // value (or nullopt for "no row"). This lets benchmark tables with millions of rows
  // (YCSB's 10M keys, TPC-C's stock) exist without materializing them per replica.
  // The generated version is cached on first touch with timestamp zero. `fn` runs
  // under a partition lock and may be called from any strand worker, so it must be
  // thread-safe (pure functions of the key are; the benchmark generators qualify).
  using GenesisFn = std::function<std::optional<Value>(const Key&)>;
  void SetGenesisFn(GenesisFn fn) { genesis_fn_ = std::move(fn); }

  void ApplyCommittedWrite(const Key& key, const Timestamp& ts, Value value,
                           const TxnDigest& writer);

  // Latest committed version with ts strictly smaller than `before`. Non-const: may
  // materialize the genesis version on first touch. Pointer family — see header
  // comment for the external-serialization requirement.
  const CommittedVersion* LatestCommittedBefore(const Key& key,
                                                const Timestamp& before);
  const CommittedVersion* LatestCommitted(const Key& key);

  // Copy-out equivalents, safe under concurrent store access.
  std::optional<CommittedVersion> CommittedBefore(const Key& key,
                                                  const Timestamp& before);
  std::optional<CommittedVersion> Committed(const Key& key);

  // True iff a committed write on `key` exists with lo < ts < hi.
  bool HasCommittedWriteBetween(const Key& key, const Timestamp& lo,
                                const Timestamp& hi) const;

  // ---- Prepared (visible uncommitted) writes ----

  void AddPreparedWrite(const Key& key, const Timestamp& ts, Value value,
                        const TxnDigest& writer);
  void RemovePreparedWrite(const Key& key, const Timestamp& ts);

  // Pointer family — external serialization required.
  const PreparedWrite* LatestPreparedBefore(const Key& key,
                                            const Timestamp& before) const;
  // Copy-out equivalent, safe under concurrent store access.
  std::optional<PreparedWrite> PreparedBefore(const Key& key,
                                              const Timestamp& before) const;
  bool HasPreparedWriteBetween(const Key& key, const Timestamp& lo,
                               const Timestamp& hi) const;

  // ---- Reader index (Algorithm 1 step 4) ----

  // Records that a prepared/committed transaction with timestamp `reader_ts` read
  // version `version_ts` of `key`.
  void AddReader(const Key& key, const Timestamp& reader_ts, const Timestamp& version_ts);
  void RemoveReader(const Key& key, const Timestamp& reader_ts,
                    const Timestamp& version_ts);

  // True iff some recorded reader would miss a write at `write_ts`:
  // exists (reader_ts, version_ts) with version_ts < write_ts < reader_ts.
  bool ReaderWouldMissWrite(const Key& key, const Timestamp& write_ts) const;

  // ---- Read timestamps (RTS) of in-flight client reads ----

  void AddRts(const Key& key, const Timestamp& ts);
  void RemoveRts(const Key& key, const Timestamp& ts);
  // Largest active RTS, or nullopt.
  std::optional<Timestamp> MaxRts(const Key& key) const;

  size_t committed_key_count() const;

  // Latest committed (key, value) for every materialized key, sorted by key; used by
  // tests and examples to audit invariants (e.g. conservation of money in Smallbank).
  std::vector<std::pair<Key, Value>> Snapshot() const;

  // Full committed version chains, sorted by key then timestamp (deterministic for
  // any partition count): what replicas are compared on to audit agreement and
  // recovery (tests, benchmarks). Prepared writes, readers, and RTS are excluded —
  // they are protocol-transient and a restarted replica rebuilds them from live
  // traffic.
  struct KeyChain {
    Key key;
    std::vector<CommittedVersion> versions;
  };
  std::vector<KeyChain> CommittedChains() const;

 private:
  struct KeyState {
    bool genesis_checked = false;
    std::map<Timestamp, CommittedVersion> committed;
    std::map<Timestamp, PreparedWrite> prepared;
    // (reader_ts, version_ts) pairs, ordered by reader_ts for range scans.
    std::set<std::pair<Timestamp, Timestamp>> readers;
    std::map<Timestamp, uint32_t> rts;  // Multiset with counts.
  };

  // One key-space shard. The mutex is a leaf lock: held only across the shard's own
  // map operations, never while calling out or taking another lock.
  struct Partition {
    mutable std::mutex mu;
    std::unordered_map<Key, KeyState> keys;
  };

  Partition& PartOf(const Key& key) { return *parts_[PartitionOf(key)]; }
  const Partition& PartOf(const Key& key) const { return *parts_[PartitionOf(key)]; }

  // All helpers below require the partition lock to be held by the caller.
  static const KeyState* Find(const Partition& part, const Key& key);
  static KeyState& GetOrCreate(Partition& part, const Key& key);
  // Materializes the lazy genesis version for `key` if configured and absent.
  void EnsureGenesis(Partition& part, const Key& key);

  std::vector<std::unique_ptr<Partition>> parts_;
  GenesisFn genesis_fn_;
};

}  // namespace basil

#endif  // BASIL_SRC_STORE_VERSION_STORE_H_
