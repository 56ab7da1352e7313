// TAPIR-style baseline (Zhang et al., SOSP 2015), the paper's non-Byzantine reference
// point (§6). Simplified to the performance-relevant core: 2f+1 replicas per shard,
// client-driven OCC with timestamp ordering, single-replica reads, inconsistent-
// replication fast path (unanimous matching prepare results decide in one round trip)
// and a one-extra-round slow path, no cryptography. Recovery/view-change machinery of
// full TAPIR is out of scope: the evaluation never fails TAPIR replicas.
#ifndef BASIL_SRC_TAPIR_TAPIR_H_
#define BASIL_SRC_TAPIR_TAPIR_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/config.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/runtime/task.h"
#include "src/sim/db.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/node.h"
#include "src/sim/topology.h"
#include "src/store/version_store.h"

namespace basil {

enum TapirMsgKind : uint16_t {
  kTapirRead = 200,
  kTapirReadReply = 201,
  kTapirPrepare = 202,
  kTapirPrepareReply = 203,
  kTapirFinalize = 204,    // IR slow path: persist the consensus result.
  kTapirFinalizeAck = 205,
  kTapirDecide = 206,      // Commit/abort broadcast.
};

// Tapir messages carry no signatures; their canonical encodings (registered with the
// runtime-layer codec registry, see docs/WIRE_FORMAT.md) exist so wire sizes are
// measured from real bytes exactly like Basil's.
struct TapirReadMsg : MsgBase {
  uint64_t req_id = 0;
  Key key;
  Timestamp ts;
  TapirReadMsg() { kind = kTapirRead; }
  void EncodeTo(Encoder& enc) const;
  static TapirReadMsg DecodeFrom(Decoder& dec);
};

struct TapirReadReplyMsg : MsgBase {
  uint64_t req_id = 0;
  bool found = false;
  Timestamp version;
  Value value;
  TapirReadReplyMsg() { kind = kTapirReadReply; }
  void EncodeTo(Encoder& enc) const;
  static TapirReadReplyMsg DecodeFrom(Decoder& dec);
};

struct TapirPrepareMsg : MsgBase {
  TxnPtr txn;
  // Zero-copy fast path (same contract as St1Msg::txn_raw): the transaction's
  // signed wire bytes in place when decoded from a pooled frame, else empty.
  ByteView txn_raw;
  TapirPrepareMsg() { kind = kTapirPrepare; }
  void EncodeTo(Encoder& enc) const;
  static TapirPrepareMsg DecodeFrom(Decoder& dec);
};

struct TapirPrepareReplyMsg : MsgBase {
  TxnDigest txn{};
  NodeId replica = kInvalidNode;
  Vote vote = Vote::kAbort;
  TapirPrepareReplyMsg() { kind = kTapirPrepareReply; }
  void EncodeTo(Encoder& enc) const;
  static TapirPrepareReplyMsg DecodeFrom(Decoder& dec);
};

struct TapirFinalizeMsg : MsgBase {
  TxnDigest txn{};
  Vote result = Vote::kAbort;
  TapirFinalizeMsg() { kind = kTapirFinalize; }
  void EncodeTo(Encoder& enc) const;
  static TapirFinalizeMsg DecodeFrom(Decoder& dec);
};

struct TapirFinalizeAckMsg : MsgBase {
  TxnDigest txn{};
  NodeId replica = kInvalidNode;
  TapirFinalizeAckMsg() { kind = kTapirFinalizeAck; }
  void EncodeTo(Encoder& enc) const;
  static TapirFinalizeAckMsg DecodeFrom(Decoder& dec);
};

struct TapirDecideMsg : MsgBase {
  TxnDigest txn{};
  Decision decision = Decision::kAbort;
  TxnPtr txn_body;
  TapirDecideMsg() { kind = kTapirDecide; }
  void EncodeTo(Encoder& enc) const;
  static TapirDecideMsg DecodeFrom(Decoder& dec);
};

class TapirReplica : public Process {
 public:
  TapirReplica(Runtime* rt, const TapirConfig* cfg, const Topology* topo);

  void Handle(const MsgEnvelope& env) override;
  VersionStore& store() { return store_; }
  Counters& counters() { return counters_; }

 private:
  void OnRead(NodeId src, std::shared_ptr<const TapirReadMsg> msg);
  // Partitioned execution state (docs/TRANSPORT.md "Partitioned execution state"):
  // every handler runs on its owning strand — prepares/finalizes/decides on the
  // strand of the txn digest (the prepare body's digest check included), reads on
  // the strand of the key's store partition. Tapir transactions carry no
  // cross-transaction dependencies, so unlike Basil no handler ever hops between
  // partitions. The simulator runs Post inline, so the partition count cannot change
  // sim results. Handlers take the message by shared_ptr, which outlives the handler.
  void OnPrepare(NodeId src, std::shared_ptr<const TapirPrepareMsg> msg);
  void PrepareArrived(NodeId src, const std::shared_ptr<const TapirPrepareMsg>& msg);
  void OnFinalize(NodeId src, std::shared_ptr<const TapirFinalizeMsg> msg);
  void OnDecide(std::shared_ptr<const TapirDecideMsg> msg);
  void DecideOnOwner(const TapirDecideMsg& msg);

  // TAPIR's OCC-TSO validation (their Algorithm 1, reduced to commit/abort votes).
  Vote OccCheck(const Transaction& txn);
  bool OwnsKey(const Key& key) const {
    return ShardOfKey(key, cfg_->num_shards) == topo_->ShardOfReplicaNode(id());
  }

  struct TxnState {
    TxnPtr txn;
    std::optional<Vote> vote;
    bool prepared = false;
    std::optional<Vote> finalized;
    bool decided = false;
  };
  // One shard of transaction state, owned by the strand of the same index. Only
  // that strand touches it.
  struct Part {
    std::unordered_map<TxnDigest, TxnState, TxnDigestHash> txns;
  };

  size_t PartOfDigest(const TxnDigest& digest) const {
    return static_cast<size_t>(StrandOfDigest(digest) % parts_.size());
  }
  // Runs `fn` on the strand owning `part` (inline on the simulator).
  void RunOnPart(size_t part, std::function<void()> fn);
  TxnState& GetState(const TxnDigest& digest) {
    return parts_[PartOfDigest(digest)].txns[digest];
  }

  const TapirConfig* cfg_;
  const Topology* topo_;
  VersionStore store_;
  Counters counters_;
  obs::TxnTracer tracer_;  // Per-stage latency spans, into runtime().metrics().
  std::vector<Part> parts_;
};

class TapirClient : public Process, public SystemClient, public TxnSession {
 public:
  TapirClient(Runtime* rt, ClientId client_id, const TapirConfig* cfg,
              const Topology* topo, Rng rng);

  TxnSession& BeginTxn() override;
  Task<std::optional<Value>> Get(const Key& key) override;
  void Put(const Key& key, Value value) override;
  Task<TxnOutcome> Commit() override;
  Task<void> Abort() override;

  void Handle(const MsgEnvelope& env) override;
  Counters& counters() { return counters_; }

 private:
  struct ReadCtx {
    OneShot done;
    bool timed_out = false;
    std::shared_ptr<const TapirReadReplyMsg> reply;
  };
  struct PrepareCtx {
    TxnPtr body;
    // Per shard: votes by replica.
    std::map<ShardId, std::map<NodeId, Vote>> votes;
    std::map<ShardId, std::set<NodeId>> finalize_acks;
    bool waiting_finalize = false;
    bool timed_out = false;
    EventId timer = 0;
    bool timer_armed = false;
    OneShot event;
  };

  Task<Decision> RunCommit(TxnPtr body);
  void ArmTimer(PrepareCtx& ctx, uint64_t delay);
  void CancelTimer(PrepareCtx& ctx);

  const TapirConfig* cfg_;
  const Topology* topo_;
  ClientId client_id_;
  Rng rng_;
  Counters counters_;

  struct ActiveTxn {
    Timestamp ts;
    std::vector<ReadEntry> read_set;
    std::map<Key, Value> write_lookup;
    std::map<Key, Value> read_cache;
    bool failed = false;
  };
  std::optional<ActiveTxn> active_;
  uint64_t next_req_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<ReadCtx>> pending_reads_;
  std::unordered_map<TxnDigest, PrepareCtx*, TxnDigestHash> pending_prepares_;
};

// A complete TAPIR deployment inside one simulation.
struct TapirClusterConfig {
  TapirConfig tapir;
  SimConfig sim;
  uint32_t num_clients = 4;
};

class TapirCluster {
 public:
  explicit TapirCluster(const TapirClusterConfig& cfg);

  TapirClient& client(uint32_t i) { return *clients_.at(i); }
  TapirReplica& replica(ShardId shard, ReplicaId r) {
    return *replicas_.at(topology_.ReplicaNode(shard, r));
  }
  const Topology& topology() const { return topology_; }
  EventQueue& events() { return events_; }
  Network& network() { return *network_; }
  void Load(const Key& key, const Value& value);
  void SetGenesisFn(VersionStore::GenesisFn fn);
  void RunFor(uint64_t ns) { events_.RunUntil(events_.now() + ns); }
  void RunUntilIdle(uint64_t max_events = 50'000'000) { events_.RunAll(max_events); }
  Counters ReplicaCounters() const;
  Counters ClientCounters() const;

 private:
  TapirClusterConfig cfg_;
  Topology topology_;
  EventQueue events_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Node>> nodes_;  // Sim runtimes, indexed by NodeId.
  std::vector<std::unique_ptr<TapirReplica>> replicas_;
  std::vector<std::unique_ptr<TapirClient>> clients_;
};

}  // namespace basil

#endif  // BASIL_SRC_TAPIR_TAPIR_H_
