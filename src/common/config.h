// Configuration knobs for the simulator, the cost model, and each replicated system.
// Defaults mirror the paper's experimental setup (§6): CloudLab m510 (8 cores @ 2 GHz,
// 0.15 ms ping), ed25519 signatures, f = 1 per shard.
#ifndef BASIL_SRC_COMMON_CONFIG_H_
#define BASIL_SRC_COMMON_CONFIG_H_

#include <cstdint>

namespace basil {

// CPU costs charged to simulated time. Calibrated to ed25519-donna on a 2 GHz core:
// signing ~25 us, verification ~60 us; SHA-256 ~5 ns/byte. Per-message processing
// (serialization, syscalls, store access) is ~25 us, which reproduces TAPIR's measured
// per-core throughput on m510-class hardware (§6 setup).
struct CostModel {
  uint64_t sign_ns = 25'000;
  uint64_t verify_ns = 60'000;
  uint64_t hash_ns_per_byte_x100 = 500;  // 5 ns/byte, stored x100 for integer math.
  uint64_t msg_base_ns = 25'000;
  uint64_t msg_byte_ns_x100 = 50;  // 0.5 ns/byte.

  uint64_t HashCost(uint64_t bytes) const { return bytes * hash_ns_per_byte_x100 / 100; }
  uint64_t MsgCost(uint64_t bytes) const {
    return msg_base_ns + bytes * msg_byte_ns_x100 / 100;
  }
};

// Network model: symmetric one-way latency with bounded uniform jitter.
struct NetConfig {
  uint64_t one_way_ns = 75'000;  // 0.15 ms ping.
  uint64_t jitter_ns = 10'000;
  // Round-trips every sent message through its registered codec (encode -> decode ->
  // re-encode) and aborts on any byte mismatch or wire_size drift. Enabled by tests
  // to pin the canonical encoding; requires a codec for every message kind sent.
  bool codec_check = false;
};

struct SimConfig {
  NetConfig net;
  CostModel cost;
  uint32_t replica_workers = 8;  // m510: 8 cores per server.
  uint64_t seed = 1;
};

// Basil-specific parameters. Quorum sizes follow §4.2/§4.5 exactly; they are functions
// of f and must not be tuned independently (tests pin them).
struct BasilConfig {
  uint32_t f = 1;
  uint32_t num_shards = 1;

  // Reply batching (§4.4): replies per Merkle batch, and how long a replica holds a
  // partial batch before flushing it anyway.
  uint32_t batch_size = 4;
  uint64_t batch_timeout_ns = 400'000;

  // Reads are broadcast to `read_fanout` replicas and the client waits for `read_wait`
  // valid replies. Defaults preserve Byzantine independence: wait for f+1 so at least
  // one reply is from a correct replica (§4.1). Fig. 5b sweeps these.
  uint32_t read_fanout = 0;  // 0 = derive as 2f+1.
  uint32_t read_wait = 0;    // 0 = derive as f+1.

  bool fast_path_enabled = true;  // Fig. 6a disables this.
  bool signatures_enabled = true; // "Basil-NoProofs" disables this (Fig. 5a/5c).

  // Timestamp watermark delta (§4.1): replicas reject operations whose timestamp
  // exceeds local time + delta.
  uint64_t delta_ns = 10'000'000;

  // Client-side timeouts: how long to wait for ST1 votes / dependency completion before
  // invoking the fallback, and the base view timeout for the divergent case (doubles
  // per view, §5).
  uint64_t prepare_timeout_ns = 8'000'000;
  uint64_t fallback_view_timeout_ns = 4'000'000;
  uint64_t read_timeout_ns = 4'000'000;
  // After n-f prepare replies, how long to keep waiting for the full fast quorum
  // before classifying with slow-path rules.
  uint64_t straggler_window_ns = 600'000;
  // Replica-side: how long to wait for a dependency's ST1 to arrive before treating
  // the dependency as invalid (Algorithm 1 lines 3-4; see DESIGN.md).
  uint64_t dep_arrival_timeout_ns = 3'000'000;

  // Replica recovery (docs/RECOVERY.md). A rejoining replica asks every shard peer
  // for commits above its WAL high-water mark minus `recovery_lookback_ns` (the
  // slack absorbs commits that were applied out of timestamp order), receives them
  // in chunks of `state_chunk_entries`, and re-requests from peers that have not
  // reported done every `recovery_retry_ns` (covers requests sent while TCP peers
  // are still reconnecting).
  uint32_t state_chunk_entries = 32;
  uint64_t recovery_lookback_ns = 50'000'000;
  uint64_t recovery_retry_ns = 250'000'000;
  // WAL roll cadence: committed records between rolls of the WAL into snapshot.bin.
  uint32_t wal_snapshot_every = 256;
  // WAL fsync group-commit cadence: fdatasync the log once every N appends (and
  // snapshot.bin before a roll's WAL truncate). 0 = never sync — records survive
  // process death (kernel page cache) but not OS crashes, the pre-group-commit
  // behaviour.
  uint32_t wal_fsync_every = 0;

  // Parallel execution pipeline (docs/TRANSPORT.md): route heavy per-transaction
  // work through Runtime::Post (strand = txn digest) and signature checks through
  // Runtime::OffloadVerify. On the simulator both run inline, so results are
  // bit-identical either way (tests/test_strands.cc pins this); on the TCP backend
  // `false` keeps everything on the event-loop thread for A/B comparison.
  bool parallel_pipeline = true;

  // Partitioned execution state (docs/TRANSPORT.md "Partitioned state"): shard the
  // replica's TxnState map (by txn digest) and route handlers end-to-end onto the
  // owning strand, so state mutation no longer serializes on the event-loop thread.
  // 0 = off: handlers mutate state in loop/handler context exactly as before. The
  // sim runs Post inline, so results are bit-identical with any partition count
  // (tests/test_strands.cc pins this); requires parallel_pipeline on the TCP
  // backend to actually spread work across strand workers.
  uint32_t exec_partitions = 0;

  uint32_t n() const { return 5 * f + 1; }
  uint32_t commit_quorum() const { return 3 * f + 1; }       // CQ = (n+f+1)/2.
  uint32_t abort_quorum() const { return f + 1; }            // AQ.
  uint32_t fast_commit_quorum() const { return 5 * f + 1; }  // Unanimity.
  uint32_t fast_abort_quorum() const { return 3 * f + 1; }
  uint32_t st2_quorum() const { return 4 * f + 1; }  // n - f.
  uint32_t elect_quorum() const { return 4 * f + 1; }
  // Recovery completes once 2f+1 peers report their state stream done: at least
  // f+1 of them are correct, so the rejoining replica holds the union of f+1
  // correct replicas' commit histories (docs/RECOVERY.md).
  uint32_t recovery_done_quorum() const { return 2 * f + 1; }

  uint32_t ReadFanout() const { return read_fanout == 0 ? 2 * f + 1 : read_fanout; }
  uint32_t ReadWait() const { return read_wait == 0 ? f + 1 : read_wait; }
};

// TAPIR-style baseline: 2f+1 replicas per shard, crash faults only.
struct TapirConfig {
  uint32_t f = 1;
  uint32_t num_shards = 1;
  uint64_t prepare_timeout_ns = 8'000'000;
  // Same toggle as BasilConfig::parallel_pipeline: prepare bodies are digest-checked
  // on a strand keyed by txn digest before the OCC check runs in handler context.
  bool parallel_pipeline = true;
  // Same semantics as BasilConfig::exec_partitions: 0 = loop-owned TxnState map,
  // N = N digest-sharded partitions each owned by its strand.
  uint32_t exec_partitions = 0;

  uint32_t n() const { return 2 * f + 1; }
  // IR fast quorum ceil(3f/2)+1; slow path needs a simple majority f+1.
  uint32_t fast_quorum() const { return (3 * f + 1) / 2 + 1; }
  uint32_t slow_quorum() const { return f + 1; }
};

// Shared by both consensus-based baselines (PBFT core and HotStuff core): 3f+1
// replicas per shard, leader batching, signed replies with f+1 matching at clients.
struct TxBftConfig {
  uint32_t f = 1;
  uint32_t num_shards = 1;
  uint32_t consensus_batch_size = 16;  // Paper: best at 16 (PBFT) / 4 (HotStuff).
  uint64_t consensus_batch_timeout_ns = 1'000'000;
  uint32_t reply_batch_size = 4;  // Basil-style reply batching, granted to baselines.
  uint64_t reply_batch_timeout_ns = 400'000;
  bool signatures_enabled = true;
  uint64_t request_timeout_ns = 30'000'000;
  // HotStuff pacemaker: delay before proposing an empty flush block when the chain
  // has undelivered command blocks but no pending commands.
  uint64_t pacemaker_beat_ns = 150'000;

  uint32_t n() const { return 3 * f + 1; }
  uint32_t quorum() const { return 2 * f + 1; }
  uint32_t reply_quorum() const { return f + 1; }
};

}  // namespace basil

#endif  // BASIL_SRC_COMMON_CONFIG_H_
