// Basil replica (§4–§5): executes reads against the multiversion store, runs the
// MVTSO-Check (Algorithm 1) with dependency waiting, logs Stage-2 decisions, applies
// writebacks, and participates in per-transaction fallback elections. Outgoing signed
// replies are batched per §4.4.
//
// Partitioned execution state (docs/TRANSPORT.md "Partitioned execution state"): the
// TxnState map is sharded by txn digest into cfg->exec_partitions (P >= 1)
// partitions, each owned by the strand that StrandOfDigest routes to, and every
// handler runs end-to-end on its transaction's owning strand (the event loop is
// reduced to demux + send). Partition shards follow the actor model — no locks; a
// shard is touched only from its owning strand, and cross-partition interactions
// (dependency checks, conflict-certificate fetches, state transfer) are posted hops
// between strands. Because Runtime::Post runs inline on the simulator, every P
// executes the identical sequential operation order there, so simulated results are
// bit-identical for any partition count (tests/test_strands.cc pins this).
// Shared facilities that serve every partition stay mutex-guarded: the reply batch
// (one batch spans partitions), the WAL, and the recovery bookkeeping. Lock hierarchy: owning strand -> batch/wal/recovery mutex ->
// loop/store-partition mutex; never reversed.
#ifndef BASIL_SRC_BASIL_REPLICA_H_
#define BASIL_SRC_BASIL_REPLICA_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/basil/certs.h"
#include "src/basil/messages.h"
#include "src/common/config.h"
#include "src/common/stats.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/sim/topology.h"
#include "src/store/version_store.h"
#include "src/store/wal.h"

namespace basil {

class BasilReplica : public Process {
 public:
  BasilReplica(Runtime* rt, const BasilConfig* cfg, const Topology* topo,
               const KeyRegistry* keys);

  void Handle(const MsgEnvelope& env) override;

  // Loads initial data (timestamp-zero versions that need no certificate).
  void LoadGenesis(const Key& key, Value value);

  VersionStore& store() { return store_; }
  ShardId shard() const { return shard_; }
  ReplicaId index() const { return index_; }
  Counters& counters() { return counters_; }

  // ---- Recovery (docs/RECOVERY.md) ----

  // Attaches the durable WAL/snapshot layer. Committed writebacks are logged to it;
  // the caller is expected to have Open()ed it into store() beforehand.
  void AttachDurable(DurableStore* durable) {
    durable_ = durable;
    if (durable_ != nullptr) {
      durable_->BindMetrics(&metrics());
    }
  }

  // Begins peer state transfer: StateRequests go to every shard peer, validated
  // chunks are applied, and `on_complete` fires once 2f+1 peers report done (so at
  // least f+1 correct peers streamed their full commit history). The replica keeps
  // serving protocol traffic while catching up — MVTSO stays safe either way.
  void StartRecovery(std::function<void()> on_complete);
  bool recovering() const {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    return recovering_;
  }

  // Test introspection.
  std::optional<Vote> VoteFor(const TxnDigest& txn) const;
  std::optional<Decision> FinalDecisionFor(const TxnDigest& txn) const;
  std::optional<Decision> LoggedDecisionFor(const TxnDigest& txn) const;
  uint32_t CurrentViewFor(const TxnDigest& txn) const;

 protected:
  enum class CheckPhase : uint8_t {
    kNotStarted,
    kAwaitArrival,   // Waiting for dependency ST1s to arrive (liveness-friendly
                     // reading of Algorithm 1 lines 3-4; see DESIGN.md).
    kAwaitDecision,  // Prepared; waiting for dependency decisions (lines 15-18).
    kVoted,
  };

  struct TxnState {
    TxnPtr txn;
    CheckPhase phase = CheckPhase::kNotStarted;
    std::optional<Vote> vote;  // Pinned: a correct replica never changes it.
    bool prepared = false;     // Writes visible in the prepared set.
    std::unordered_set<TxnDigest, TxnDigestHash> unresolved_deps;
    std::vector<NodeId> vote_waiters;       // Requesters to answer once voted.
    std::vector<TxnDigest> dependents;      // Transactions waiting on this one.
    std::optional<Decision> logged_decision;  // Stage-2 log.
    uint32_t view_decision = 0;
    uint32_t view_current = 0;
    bool decided = false;  // Writeback applied.
    Decision final_decision = Decision::kAbort;
    DecisionCertPtr final_cert;
    // When the abort vote was caused by a committed conflicting transaction, its body
    // and certificate are attached to ST1 replies (abort fast path case 5).
    TxnPtr conflict_txn;
    DecisionCertPtr conflict_cert;
    // The committed writer whose certificate still has to be fetched from its owning
    // partition before the abort vote is published (set by RunConflictChecks).
    std::optional<TxnDigest> conflict_writer;
    // Dependency decisions delivered to this transaction. Recorded even before it
    // reaches kAwaitDecision: a dependency on another partition may decide while the
    // step-7 registration hops are still in flight, and the recorded outcome is
    // consumed by FinishStep7 so the wakeup is never lost.
    std::unordered_map<TxnDigest, Decision, TxnDigestHash> dep_outcomes;
    std::set<NodeId> interested;  // Recovery clients to notify of decisions.
    // As fallback leader: ELECT FB messages per view.
    std::map<uint32_t, std::map<NodeId, ElectFbData>> elect_msgs;
    std::set<uint32_t> dec_fb_sent;
    EventId arrival_timer = 0;
    bool arrival_timer_armed = false;
    // Trace anchor (docs/OBSERVABILITY.md): when the first ST1 for this txn passed
    // intake, in runtime-now() ns. 0 = never arrived (e.g. writeback-first paths).
    uint64_t st1_arrive_ns = 0;
  };

  // Message handlers; virtual so Byzantine replica behaviours can override them.
  // The hot three (ST1/ST2/Writeback) take the message by shared_ptr: their heavy
  // stages (body hashing, signature verification) run on the runtime's strands /
  // crypto pool, and the closures must keep the message alive past the handler.
  virtual void OnRead(NodeId src, std::shared_ptr<const ReadMsg> msg);
  virtual void OnSt1(NodeId src, std::shared_ptr<const St1Msg> msg);
  virtual void OnSt2(NodeId src, std::shared_ptr<const St2Msg> msg);
  virtual void OnWriteback(NodeId src, std::shared_ptr<const WritebackMsg> msg);
  virtual void OnAbortRead(const AbortReadMsg& msg);
  virtual void OnInvokeFb(NodeId src, std::shared_ptr<const InvokeFbMsg> msg);
  virtual void OnElectFb(NodeId src, std::shared_ptr<const ElectFbMsg> msg);
  virtual void OnDecFb(NodeId src, std::shared_ptr<const DecFbMsg> msg);
  virtual void OnFetch(NodeId src, const FetchMsg& msg);
  virtual void OnStateRequest(NodeId src, const StateRequestMsg& msg);
  virtual void OnStateChunk(NodeId src, std::shared_ptr<const StateChunkMsg> msg);

  // Hook: lets a Byzantine subclass flip its ST1 vote. Default: identity.
  virtual Vote FilterVote(const TxnDigest& /*txn*/, Vote vote) { return vote; }

  // One execution-state shard: the transactions owned by a partition plus the
  // arrival waiters for those transactions (dep digest -> waiters registered from
  // other partitions). Actor-model: no lock — a Part is only ever touched from its
  // owning strand.
  struct Part {
    std::unordered_map<TxnDigest, TxnState, TxnDigestHash> txns;
    std::unordered_map<TxnDigest, std::vector<TxnDigest>, TxnDigestHash>
        arrival_waiters;
  };

  size_t PartOfDigest(const TxnDigest& digest) const {
    return static_cast<size_t>(StrandOfDigest(digest) % parts_.size());
  }
  size_t PartOfKey(const Key& key) const { return store_.PartitionOf(key); }
  // Runs `fn` on the strand owning partition `part` (inline on the simulator, whose
  // Post is synchronous — that is what keeps any partition count bit-identical).
  void RunOnPart(size_t part, std::function<void()> fn);

  // Both accessors must be called from the digest's owning strand (any thread is
  // fine while the runtime is single-threaded). Entries are never erased, so
  // references stay valid across posted hops.
  TxnState& GetState(const TxnDigest& digest) {
    return parts_[PartOfDigest(digest)].txns[digest];
  }
  const TxnState* FindState(const TxnDigest& digest) const;

  // True iff this replica's shard owns `key` (each shard checks and applies only its
  // partition of a transaction).
  bool OwnsKey(const Key& key) const;

  // Stage 2 of OnSt1, after the body digest verified on the txn's strand.
  void St1Arrived(NodeId src, const std::shared_ptr<const St1Msg>& msg);

  // --- MVTSO-Check machinery (Algorithm 1) ---
  // Runs as a chain of strand hops: each step re-resolves the TxnState by digest on
  // its owning strand and re-checks the phase/vote guards, so a vote pinned while a
  // hop was in flight (timer abort, dependency abort) wins and the chain stops.
  void StartCheck(TxnState& s);
  // Walks deps sequentially, registering this txn as an arrival waiter on each
  // missing dependency's partition; then arms the arrival timer and continues.
  void RegisterArrivalWaits(const TxnDigest& digest, size_t i, bool any_missing);
  void ContinueCheck(const TxnDigest& digest);
  // Step 2: peek dependency `i` on its partition; abort/stall/advance accordingly.
  void DepScan(const TxnDigest& digest, size_t i);
  // Step 7: register with undecided dependency `i` on its partition.
  void Step7Register(const TxnDigest& digest, size_t i);
  // After all step-7 registrations: consume decisions that raced the registration
  // hops (dep_outcomes), then vote commit or start waiting.
  void FinishStep7(TxnState& s);
  // A dependency's decision delivered on this txn's owning strand.
  void ResolveDepDecision(const TxnDigest& digest, const TxnDigest& dep, Decision dec);
  // Steps 3-6: conflict checks and insertion into the prepared set.
  Vote RunConflictChecks(TxnState& s);
  // Publishes an abort that names a committed conflict: fetches the conflicting
  // writer's body + certificate from its partition, then SetVote.
  void FinishVoteWithConflict(const TxnDigest& digest, TxnState& s, Vote vote);
  void SetVote(TxnState& s, Vote vote);
  void InsertPrepared(TxnState& s);
  void RemovePrepared(TxnState& s);
  void NotifyDependents(TxnState& s);
  // Drains arrival waiters registered for `digest` (body just arrived); must run on
  // the digest's owning strand.
  void DrainArrivalWaiters(const TxnDigest& digest);

  // --- Owner-strand handler bodies ---
  // OnRead continuation on the key's partition: serves the read from the store, then
  // hops to the committed/prepared writers' partitions to attach certs and bodies.
  void ServeRead(NodeId src, const std::shared_ptr<const ReadMsg>& msg);
  void FinishRead(NodeId src, const std::shared_ptr<ReadReplyMsg>& reply);
  void St2OnOwner(NodeId src, const std::shared_ptr<const St2Msg>& msg);
  void WritebackOnOwner(const std::shared_ptr<const WritebackMsg>& msg);

  // --- Replies ---
  void ReplyVote(NodeId dst, TxnState& s);
  void ReplySt2Ack(NodeId dst, TxnState& s);
  void ReplyCert(NodeId dst, TxnState& s);

  // Reply batching (§4.4): queue a signed reply; flush at batch_size or timeout.
  void SendBatched(NodeId dst, std::shared_ptr<MsgBase> msg, const Hash256& digest,
                   std::function<void(std::shared_ptr<MsgBase>, BatchCert)> set_cert);
  void FlushBatch();

  void ApplyDecision(TxnState& s, Decision decision, DecisionCertPtr cert);
  void ChargeClientAuthVerify();

  // --- Recovery machinery ---
  void SendStateRequests();
  // OnStateRequest fan-out: collect decided commits from partition `p` on its strand,
  // then recurse to p+1; the final hop sorts by timestamp and sends chunks. The sort
  // makes the chunk stream identical for any partition count.
  void CollectStateFromPart(NodeId src, uint64_t req_id, Timestamp since, size_t p,
                            std::shared_ptr<std::vector<StateEntry>> commits);
  void SendStateChunks(NodeId src, uint64_t req_id, std::vector<StateEntry> commits);
  // OnStateChunk fan-out: apply entry `i` on its owner strand, then recurse to i+1;
  // the final hop runs the done-quorum bookkeeping.
  void ApplyChunkEntries(NodeId src, const std::shared_ptr<const StateChunkMsg>& msg,
                         size_t i);
  void StateChunkDone(NodeId src, const std::shared_ptr<const StateChunkMsg>& msg);
  // Applies one validated state entry; returns false if it was rejected. Must run on
  // the entry's owning strand.
  bool ApplyStateEntry(const StateEntry& entry);
  void FinishRecovery();

  const BasilConfig* cfg_;
  const Topology* topo_;
  const KeyRegistry* keys_;
  CertValidator validator_;
  BatchVerifier verifier_;
  VersionStore store_;
  ShardId shard_;
  ReplicaId index_;
  Counters counters_;
  obs::TxnTracer tracer_;  // Per-stage latency spans, into runtime().metrics().

  // Execution-state shards, one per partition.
  // Sized once in the constructor; the vector itself is immutable afterwards, so
  // cross-strand indexing needs no lock.
  std::vector<Part> parts_;

  struct PendingReply {
    NodeId dst;
    std::shared_ptr<MsgBase> msg;
    Hash256 digest;
    std::function<void(std::shared_ptr<MsgBase>, BatchCert)> set_cert;
  };
  // Reply batching is global (one batch stream per replica — per-partition batches
  // would change batch composition with the partition count). batch_mu_
  // guards the four fields below; FlushBatch seals outside the lock.
  std::mutex batch_mu_;
  std::vector<PendingReply> pending_replies_;
  bool batch_timer_armed_ = false;
  EventId batch_timer_ = 0;
  uint64_t seal_seq_ = 0;  // Rotates batch sealing (merkle + sign) across strands.

  // --- Recovery state ---
  std::mutex wal_mu_;  // Serializes durable_ appends/queries across strands.
  DurableStore* durable_ = nullptr;
  // recovery_mu_ guards the requester-side bookkeeping below (chunk done-quorum
  // arrives on whatever strand applied the last entry).
  mutable std::mutex recovery_mu_;
  bool recovering_ = false;
  uint64_t recovery_req_id_ = 0;
  std::set<NodeId> recovery_done_peers_;  // Ordered: deterministic in the simulator.
  std::function<void()> recovery_complete_cb_;
  EventId recovery_timer_ = 0;
  bool recovery_timer_armed_ = false;
};

}  // namespace basil

#endif  // BASIL_SRC_BASIL_REPLICA_H_
