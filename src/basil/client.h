// Basil client (§3–§5): drives its own transactions. Execution-phase reads go to 2f+1
// replicas and wait for f+1 valid replies; Prepare tallies per-shard votes into fast or
// slow outcomes; slow outcomes are logged on S_log via ST2; stalled dependencies are
// finished through the fallback protocol. All protocol flows are coroutines.
#ifndef BASIL_SRC_BASIL_CLIENT_H_
#define BASIL_SRC_BASIL_CLIENT_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/basil/certs.h"
#include "src/basil/messages.h"
#include "src/common/config.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/trace.h"
#include "src/runtime/runtime.h"
#include "src/runtime/task.h"
#include "src/sim/db.h"
#include "src/sim/topology.h"

namespace basil {

class BasilClient : public Process, public SystemClient, public TxnSession {
 public:
  // Byzantine client behaviours evaluated in §6.4. Applied per transaction by the
  // failure benchmarks; kCorrect is the default.
  enum class FaultMode : uint8_t {
    kCorrect,
    kStallEarly,   // Send ST1, then walk away.
    kStallLate,    // Finish Prepare (decision durable) but never write back.
    kEquivReal,    // Equivocate ST2 only when the received votes permit it.
    kEquivForced,  // Always equivocate (replicas accept unjustified ST2s).
  };

  BasilClient(Runtime* rt, ClientId client_id, const BasilConfig* cfg,
              const Topology* topo, const KeyRegistry* keys, Rng rng);

  // SystemClient.
  TxnSession& BeginTxn() override;

  // TxnSession.
  Task<std::optional<Value>> Get(const Key& key) override;
  void Put(const Key& key, Value value) override;
  Task<TxnOutcome> Commit() override;
  Task<void> Abort() override;

  void Handle(const MsgEnvelope& env) override;

  void set_fault_mode(FaultMode m) { fault_mode_ = m; }
  FaultMode fault_mode() const { return fault_mode_; }

  ClientId client_id() const { return client_id_; }
  Counters& counters() { return counters_; }

  // Finishes someone else's transaction (the fallback entry point; also used directly
  // by tests and the byzantine_recovery example).
  Task<Decision> FinishTransaction(TxnPtr body, int depth);

 private:
  // ---- Execution phase ----
  struct ReadCollector {
    OneShot done;
    uint32_t wait_for = 0;
    bool timed_out = false;
    EventId timer = 0;
    std::set<NodeId> from;
    std::vector<std::shared_ptr<const ReadReplyMsg>> replies;
  };

  struct ReadChoice {
    Timestamp ts;
    Value value;
    bool is_prepared = false;
    TxnPtr prepared_txn;
  };

  Task<std::optional<ReadChoice>> DoRead(const Key& key, const Timestamp& ts);
  std::optional<ReadChoice> EvaluateRead(const ReadCollector& rc, const Timestamp& ts);
  bool ValidateCommittedReply(const ReadReplyMsg& reply);

  // ---- Prepare / recovery state machine ----
  struct ShardState {
    ShardTally tally;
    std::set<NodeId> replied;
    bool complete = false;  // All n replied, or the straggler window expired.
    bool straggler_armed = false;
    EventId straggler_timer = 0;
  };

  struct PrepareCtx {
    TxnPtr body;
    std::map<ShardId, ShardState> shards;
    // Stage 2 acks grouped by (decision, view_decision).
    std::map<std::pair<uint8_t, uint32_t>, std::map<NodeId, SignedSt2Ack>> ack_groups;
    std::set<NodeId> ack_nodes;
    DecisionCertPtr received_cert;
    bool waiting_acks = false;  // Whether ST2 acks advance the state machine.
    bool timed_out = false;
    EventId timer = 0;
    bool timer_armed = false;
    OneShot event;
  };

  struct FinishJoin {
    std::vector<OneShot*> joiners;
  };

  // Decision + certificate produced by one prepare attempt.
  struct AttemptResult {
    bool resolved = false;
    Decision decision = Decision::kAbort;
    DecisionCertPtr cert;
    bool fast_path = false;
  };

  Task<AttemptResult> RunPrepareAttempt(PrepareCtx& ctx, bool is_recovery);
  Task<AttemptResult> RunSt2Phase(PrepareCtx& ctx, Decision decision);
  Task<AttemptResult> RunFallback(PrepareCtx& ctx);
  Task<void> RecoverDependencies(const Transaction& txn, int depth);
  Task<TxnPtr> FetchBody(const Dependency& dep);

  void SendSt1(const PrepareCtx& ctx, bool is_recovery);
  void SendSt2(PrepareCtx& ctx, Decision decision, uint32_t view,
               const std::vector<NodeId>& targets, bool forced);
  void ArmCtxTimer(PrepareCtx& ctx, uint64_t delay_ns);
  void CancelCtxTimer(PrepareCtx& ctx);

  // Evaluates stage-1 tallies; fires ctx.event when the state machine can advance.
  void EvaluateStage1(PrepareCtx& ctx);
  // True when the collected ST2 acks can no longer converge on one (decision, view)
  // logging quorum — the §5 divergent case.
  bool AcksDivergent(const PrepareCtx& ctx) const;

  DecisionCertPtr BuildFastCommitCert(const PrepareCtx& ctx) const;
  DecisionCertPtr BuildFastAbortCert(const PrepareCtx& ctx) const;
  DecisionCertPtr BuildSlowCert(const PrepareCtx& ctx) const;
  std::map<ShardId, std::vector<SignedVote>> CollectJustification(
      const PrepareCtx& ctx, Decision decision) const;

  void SendWriteback(const TxnPtr& body, const DecisionCertPtr& cert);
  std::vector<SignedSt2Ack> CollectedAcks(const PrepareCtx& ctx) const;

  // Byzantine commit flows (§6.4).
  Task<TxnOutcome> CommitByzantine(TxnPtr body, FaultMode mode);

  // Message plumbing. Reply handlers verify replica batch signatures through the
  // runtime's crypto pool (Process::Verify1), so they take their message by
  // shared_ptr and finish in a continuation that re-validates its context.
  void OnReadReply(std::shared_ptr<const ReadReplyMsg> msg);
  void OnSt1Reply(std::shared_ptr<const St1ReplyMsg> msg);
  void OnSt2Reply(std::shared_ptr<const St2ReplyMsg> msg);
  void OnWritebackToClient(const WritebackMsg& msg);
  void OnFetchReply(const FetchReplyMsg& msg);

  void ChargeSignIfEnabled();

  const BasilConfig* cfg_;
  const Topology* topo_;
  const KeyRegistry* keys_;
  CertValidator validator_;
  BatchVerifier verifier_;
  ClientId client_id_;
  Rng rng_;
  Counters counters_;
  obs::TxnTracer tracer_;  // Client-side phase latencies, into runtime().metrics().
  FaultMode fault_mode_ = FaultMode::kCorrect;

  // Active transaction being built by the session API.
  struct ActiveTxn {
    Timestamp ts;
    std::vector<ReadEntry> read_set;
    std::vector<std::pair<Key, Value>> write_buffer;
    std::map<Key, Value> write_lookup;
    std::map<Key, Value> read_cache;
    std::vector<Dependency> deps;
    std::unordered_set<TxnDigest, TxnDigestHash> dep_set;
    std::vector<Key> rts_keys;
    bool failed = false;
  };
  std::optional<ActiveTxn> active_;

  uint64_t next_req_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<ReadCollector>> pending_reads_;
  std::unordered_map<TxnDigest, PrepareCtx*, TxnDigestHash> active_prepares_;
  std::unordered_map<TxnDigest, FinishJoin, TxnDigestHash> in_flight_;
  std::unordered_map<TxnDigest, Decision, TxnDigestHash> finished_cache_;
  std::unordered_map<TxnDigest, TxnPtr, TxnDigestHash> dep_bodies_;

  struct FetchCtx {
    OneShot done;
    TxnPtr body;
    bool timed_out = false;
  };
  std::unordered_map<TxnDigest, FetchCtx*, TxnDigestHash> pending_fetches_;

  // Certificates already validated (by transaction digest), to avoid re-verifying
  // C-CERTs attached to read replies.
  std::unordered_set<TxnDigest, TxnDigestHash> validated_certs_;
};

}  // namespace basil

#endif  // BASIL_SRC_BASIL_CLIENT_H_
