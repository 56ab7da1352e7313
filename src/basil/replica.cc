#include "src/basil/replica.h"

#include <algorithm>
#include <cassert>

namespace basil {

namespace {

// Outcome of peeking a dependency on its owning strand (MVTSO-Check step 2).
enum class DepPeek : uint8_t { kMissing, kTsMismatch, kDecidedAbort, kOk };

}  // namespace

BasilReplica::BasilReplica(Runtime* rt, const BasilConfig* cfg, const Topology* topo,
                           const KeyRegistry* keys)
    : Process(rt),
      cfg_(cfg),
      topo_(topo),
      keys_(keys),
      validator_(cfg, topo, keys),
      verifier_(keys),
      shard_(topo->ShardOfReplicaNode(id())),
      index_(topo->ReplicaIndex(id())),
      tracer_(&rt->metrics()) {
  const uint32_t n_parts = std::max<uint32_t>(1, cfg->exec_partitions);
  parts_.resize(n_parts);
  // Key partitions line up with execution partitions, so a read routed by
  // PartOfKey lands on the strand whose store shard it touches.
  store_.SetPartitions(n_parts);
}

void BasilReplica::LoadGenesis(const Key& key, Value value) {
  store_.LoadGenesis(key, std::move(value));
}

const BasilReplica::TxnState* BasilReplica::FindState(const TxnDigest& digest) const {
  const Part& part = parts_[PartOfDigest(digest)];
  auto it = part.txns.find(digest);
  return it == part.txns.end() ? nullptr : &it->second;
}

void BasilReplica::RunOnPart(size_t part, std::function<void()> fn) {
  if (!partitioned()) {
    fn();
    return;
  }
  Post(static_cast<StrandKey>(part), [fn = std::move(fn)](CostMeter&) { fn(); });
}

void BasilReplica::VerifyOnHome(size_t part, VerifyFn check,
                                std::function<void(bool)> then) {
  if (!partitioned()) {
    VerifyThen(cfg_->parallel_pipeline, std::move(check), std::move(then));
    return;
  }
  if (!cfg_->parallel_pipeline) {
    then(check(meter()));
    return;
  }
  Verify1On(static_cast<StrandKey>(part), std::move(check), std::move(then));
}

std::optional<Vote> BasilReplica::VoteFor(const TxnDigest& txn) const {
  const TxnState* s = FindState(txn);
  return s == nullptr ? std::nullopt : s->vote;
}

std::optional<Decision> BasilReplica::FinalDecisionFor(const TxnDigest& txn) const {
  const TxnState* s = FindState(txn);
  if (s == nullptr || !s->decided) {
    return std::nullopt;
  }
  return s->final_decision;
}

std::optional<Decision> BasilReplica::LoggedDecisionFor(const TxnDigest& txn) const {
  const TxnState* s = FindState(txn);
  return s == nullptr ? std::nullopt : s->logged_decision;
}

uint32_t BasilReplica::CurrentViewFor(const TxnDigest& txn) const {
  const TxnState* s = FindState(txn);
  return s == nullptr ? 0 : s->view_current;
}

void BasilReplica::ChargeClientAuthVerify() {
  if (keys_->enabled()) {
    meter().ChargeVerify();
  }
}

void BasilReplica::Handle(const MsgEnvelope& env) {
  switch (env.msg->kind) {
    case kBasilRead:
      OnRead(env.src, std::static_pointer_cast<const ReadMsg>(env.msg));
      break;
    case kBasilSt1:
      OnSt1(env.src, std::static_pointer_cast<const St1Msg>(env.msg));
      break;
    case kBasilSt2:
      OnSt2(env.src, std::static_pointer_cast<const St2Msg>(env.msg));
      break;
    case kBasilWriteback:
      OnWriteback(env.src, std::static_pointer_cast<const WritebackMsg>(env.msg));
      break;
    case kBasilAbortRead:
      OnAbortRead(static_cast<const AbortReadMsg&>(*env.msg));
      break;
    case kBasilInvokeFb:
      OnInvokeFb(env.src, std::static_pointer_cast<const InvokeFbMsg>(env.msg));
      break;
    case kBasilElectFb:
      OnElectFb(env.src, std::static_pointer_cast<const ElectFbMsg>(env.msg));
      break;
    case kBasilDecFb:
      OnDecFb(env.src, std::static_pointer_cast<const DecFbMsg>(env.msg));
      break;
    case kBasilFetch:
      OnFetch(env.src, static_cast<const FetchMsg&>(*env.msg));
      break;
    case kBasilStateRequest:
      OnStateRequest(env.src, static_cast<const StateRequestMsg&>(*env.msg));
      break;
    case kBasilStateChunk:
      OnStateChunk(env.src, std::static_pointer_cast<const StateChunkMsg>(env.msg));
      break;
    default:
      counters_.Inc("unknown_message");
      break;
  }
}

// ---------------------------------------------------------------------------
// Execution phase: reads.
// ---------------------------------------------------------------------------

void BasilReplica::OnRead(NodeId src, std::shared_ptr<const ReadMsg> msg) {
  ChargeClientAuthVerify();
  // §4.1: ignore requests with timestamps beyond the local watermark.
  if (msg->ts.time > now() + cfg_->delta_ns) {
    counters_.Inc("read_rejected_watermark");
    return;
  }
  // The read runs on the strand owning the key's store partition; writer bodies and
  // certificates are attached by hopping to the writers' own partitions.
  RunOnPart(PartOfKey(msg->key), [this, src, msg]() { ServeRead(src, msg); });
}

void BasilReplica::ServeRead(NodeId src, const std::shared_ptr<const ReadMsg>& msg) {
  store_.AddRts(msg->key, msg->ts);

  auto reply = std::make_shared<ReadReplyMsg>();
  reply->req_id = msg->req_id;
  reply->key = msg->key;
  reply->replica = id();

  const std::optional<CommittedVersion> cv = store_.CommittedBefore(msg->key, msg->ts);
  if (cv.has_value()) {
    reply->has_committed = true;
    reply->committed_ts = cv->ts;
    reply->committed_value = cv->value;
    reply->committed_writer = cv->writer;
  }
  const std::optional<PreparedWrite> pw = store_.PreparedBefore(msg->key, msg->ts);
  // Only report the prepared version if it is newer than the committed one; the
  // client picks the highest valid version anyway.
  const bool want_prepared = pw.has_value() && (!cv.has_value() || cv->ts < pw->ts);

  auto attach_prepared = [this, src, reply, pw, want_prepared]() {
    if (!want_prepared) {
      FinishRead(src, reply);
      return;
    }
    RunOnPart(PartOfDigest(pw->writer), [this, src, reply, pw]() {
      if (const TxnState* ws = FindState(pw->writer); ws != nullptr && ws->txn) {
        reply->has_prepared = true;
        reply->prepared_ts = pw->ts;
        reply->prepared_value = pw->value;
        reply->prepared_txn = ws->txn;
      }
      FinishRead(src, reply);
    });
  };

  if (cv.has_value()) {
    const TxnDigest writer = cv->writer;
    RunOnPart(PartOfDigest(writer), [this, reply, writer, attach_prepared]() {
      if (const TxnState* ws = FindState(writer); ws != nullptr && ws->decided) {
        reply->committed_cert = ws->final_cert;
        reply->committed_txn = ws->txn;
      }
      attach_prepared();
    });
  } else {
    attach_prepared();
  }
}

void BasilReplica::FinishRead(NodeId src, const std::shared_ptr<ReadReplyMsg>& reply) {
  const Hash256 digest = reply->Digest();
  SendBatched(src, reply, digest, [](std::shared_ptr<MsgBase> m, BatchCert cert) {
    auto* r = static_cast<ReadReplyMsg*>(m.get());
    r->batch_cert = std::move(cert);
  });
  counters_.Inc("reads_served");
}

void BasilReplica::OnAbortRead(const AbortReadMsg& msg) {
  ChargeClientAuthVerify();
  for (const Key& key : msg.keys) {
    store_.RemoveRts(key, msg.ts);
  }
}

// ---------------------------------------------------------------------------
// Prepare phase, Stage 1: MVTSO-Check (Algorithm 1).
// ---------------------------------------------------------------------------

// Body-digest check with the zero-copy fast path: a message decoded out of a
// pooled frame carries the transaction's signed wire bytes (txn_raw), so the
// check hashes the frame in place; otherwise (sim delivery, local construction)
// it re-encodes via ComputeDigest. Same boolean either way — the canonical codec
// makes the wire slice byte-identical to the re-encoding.
static bool St1BodyDigestOk(const St1Msg& msg) {
  if (!msg.txn_raw.empty()) {
    return TxnDigestOfSignedBytes(msg.txn_raw.data, msg.txn_raw.len) == msg.txn->id;
  }
  return msg.txn->ComputeDigest() == msg.txn->id;
}

void BasilReplica::OnSt1(NodeId src, std::shared_ptr<const St1Msg> msg) {
  ChargeClientAuthVerify();
  if (msg->txn == nullptr) {
    return;
  }
  // The body must hash to its claimed digest — every downstream structure (votes,
  // certificates, version chains) is keyed by it. The hash is the heavy, pure part
  // of ST1 intake: it runs on the strand of the claimed digest (serialized per
  // transaction, parallel across transactions on the TCP backend; inline and
  // cost-free on the simulator, whose ST1 bodies are shared pointers that were
  // hashed at Finalize time), then intake continues in the handler context.
  if (partitioned()) {
    // Partitioned mode: hash and the full intake run on the owning strand — one
    // hop, end-to-end, nothing returns to the loop.
    RunOnPart(PartOfDigest(msg->txn->id), [this, src, msg]() {
      const uint64_t t0 = now();
      if (!St1BodyDigestOk(*msg)) {
        counters_.Inc("st1_bad_digest");
        return;
      }
      tracer_.Record(obs::Stage::kSt1DigestCheck, msg->txn->id, now() - t0);
      St1Arrived(src, msg);
    });
    return;
  }
  if (!cfg_->parallel_pipeline) {
    const uint64_t t0 = now();
    if (!St1BodyDigestOk(*msg)) {
      counters_.Inc("st1_bad_digest");
      return;
    }
    tracer_.Record(obs::Stage::kSt1DigestCheck, msg->txn->id, now() - t0);
    St1Arrived(src, msg);
    return;
  }
  auto body_ok = std::make_shared<bool>(false);
  Post(
      StrandOfDigest(msg->txn->id),
      [this, msg, body_ok](CostMeter&) {
        // Wall duration of the strand-side hash (0 on the simulator, whose clock
        // stands still within one work item). now() is thread-safe on both backends.
        const uint64_t t0 = now();
        *body_ok = St1BodyDigestOk(*msg);
        tracer_.Record(obs::Stage::kSt1DigestCheck, msg->txn->id, now() - t0);
      },
      [this, src, msg, body_ok]() {
        if (!*body_ok) {
          counters_.Inc("st1_bad_digest");
          return;
        }
        St1Arrived(src, msg);
      });
}

void BasilReplica::St1Arrived(NodeId src, const std::shared_ptr<const St1Msg>& msg) {
  TxnState& s = GetState(msg->txn->id);
  if (s.st1_arrive_ns == 0) {
    s.st1_arrive_ns = now();  // Trace anchor for the vote / st1->decision spans.
  }
  if (s.txn == nullptr) {
    s.txn = msg->txn;
    // Another transaction may be waiting for this body to arrive (dependency check).
    DrainArrivalWaiters(msg->txn->id);
  }
  if (msg->is_recovery) {
    s.interested.insert(src);
    counters_.Inc("recovery_prepares");
  }

  if (s.decided) {
    ReplyCert(src, s);
    return;
  }
  if (msg->is_recovery && s.logged_decision.has_value()) {
    // RPR carries the most advanced state: the logged Stage-2 decision, plus the
    // pinned vote so the recovering client can assemble ST2 justifications.
    ReplySt2Ack(src, s);
    if (s.vote.has_value()) {
      ReplyVote(src, s);
    }
    return;
  }
  if (s.vote.has_value()) {
    ReplyVote(src, s);  // Pinned vote: answered from storage (§4.2 step 3).
    return;
  }
  s.vote_waiters.push_back(src);
  if (s.phase == CheckPhase::kNotStarted) {
    StartCheck(s);
  }
}

void BasilReplica::DrainArrivalWaiters(const TxnDigest& digest) {
  Part& part = parts_[PartOfDigest(digest)];
  auto it = part.arrival_waiters.find(digest);
  if (it == part.arrival_waiters.end()) {
    return;
  }
  std::vector<TxnDigest> waiters = std::move(it->second);
  part.arrival_waiters.erase(it);
  for (const TxnDigest& w : waiters) {
    RunOnPart(PartOfDigest(w), [this, w]() { ContinueCheck(w); });
  }
}

void BasilReplica::StartCheck(TxnState& s) {
  const Transaction& txn = *s.txn;
  // Step 1: timestamp watermark.
  if (txn.ts.time > now() + cfg_->delta_ns) {
    SetVote(s, Vote::kAbort);
    counters_.Inc("abort_watermark");
    return;
  }
  s.phase = CheckPhase::kAwaitArrival;
  // Step 2 needs every dependency's body; registration for the ones not yet seen
  // hops to each dependency's partition in turn, then the check continues here.
  RegisterArrivalWaits(txn.id, 0, /*any_missing=*/false);
}

void BasilReplica::RegisterArrivalWaits(const TxnDigest& digest, size_t i,
                                        bool any_missing) {
  TxnState& s = GetState(digest);
  if (s.phase != CheckPhase::kAwaitArrival || s.vote.has_value()) {
    return;  // A vote raced the registration hops (TCP backend only).
  }
  const Transaction& txn = *s.txn;
  if (i >= txn.deps.size()) {
    if (any_missing) {
      s.arrival_timer_armed = true;
      s.arrival_timer = SetTimer(cfg_->dep_arrival_timeout_ns, [this, digest]() {
        RunOnPart(PartOfDigest(digest), [this, digest]() {
          TxnState& st = GetState(digest);
          if (st.phase == CheckPhase::kAwaitArrival && !st.vote.has_value()) {
            SetVote(st, Vote::kAbort);
            counters_.Inc("abort_dep_missing");
          }
        });
      });
    }
    ContinueCheck(digest);
    return;
  }
  const TxnDigest dep = txn.deps[i].txn;
  RunOnPart(PartOfDigest(dep), [this, digest, dep, i, any_missing]() {
    const TxnState* ds = FindState(dep);
    const bool missing = ds == nullptr || ds->txn == nullptr;
    if (missing) {
      parts_[PartOfDigest(dep)].arrival_waiters[dep].push_back(digest);
    }
    RunOnPart(PartOfDigest(digest), [this, digest, i, any_missing, missing]() {
      RegisterArrivalWaits(digest, i + 1, any_missing || missing);
    });
  });
}

void BasilReplica::ContinueCheck(const TxnDigest& digest) {
  Part& part = parts_[PartOfDigest(digest)];
  auto it = part.txns.find(digest);
  if (it == part.txns.end()) {
    return;
  }
  TxnState& s = it->second;
  if (s.phase != CheckPhase::kAwaitArrival || s.vote.has_value()) {
    return;
  }
  DepScan(digest, 0);
}

void BasilReplica::DepScan(const TxnDigest& digest, size_t i) {
  TxnState& s = GetState(digest);
  if (s.phase != CheckPhase::kAwaitArrival || s.vote.has_value()) {
    return;
  }
  const Transaction& txn = *s.txn;

  if (i < txn.deps.size()) {
    // Step 2: every dependency must be known, its claimed version must match the
    // dependency transaction's timestamp, and it must not already be aborted. The
    // peek runs on the dependency's owning strand; the verdict returns here.
    const Dependency dep = txn.deps[i];
    RunOnPart(PartOfDigest(dep.txn), [this, digest, dep, i]() {
      const TxnState* ds = FindState(dep.txn);
      DepPeek peek = DepPeek::kOk;
      if (ds == nullptr || ds->txn == nullptr) {
        peek = DepPeek::kMissing;
      } else if (ds->txn->ts != dep.version) {
        peek = DepPeek::kTsMismatch;
      } else if (ds->decided && ds->final_decision == Decision::kAbort) {
        peek = DepPeek::kDecidedAbort;
      }
      RunOnPart(PartOfDigest(digest), [this, digest, i, peek]() {
        TxnState& s = GetState(digest);
        if (s.phase != CheckPhase::kAwaitArrival || s.vote.has_value()) {
          return;
        }
        switch (peek) {
          case DepPeek::kMissing:
            return;  // Still waiting for arrival (or the arrival timer to fire).
          case DepPeek::kTsMismatch:
            SetVote(s, Vote::kAbort);
            counters_.Inc("abort_invalid_dep");
            return;
          case DepPeek::kDecidedAbort:
            SetVote(s, Vote::kAbort);
            counters_.Inc("abort_dep_aborted");
            return;
          case DepPeek::kOk:
            DepScan(digest, i + 1);
            return;
        }
      });
    });
    return;
  }

  if (s.arrival_timer_armed) {
    CancelTimer(s.arrival_timer);
    s.arrival_timer_armed = false;
  }

  // Steps 3-6.
  const Vote check = RunConflictChecks(s);
  if (check != Vote::kCommit) {
    FinishVoteWithConflict(digest, s, check);
    return;
  }

  // Step 7: wait until all dependencies are decided.
  s.unresolved_deps.clear();
  Step7Register(digest, 0);
}

void BasilReplica::Step7Register(const TxnDigest& digest, size_t i) {
  TxnState& s = GetState(digest);
  if (s.phase != CheckPhase::kAwaitArrival || s.vote.has_value()) {
    return;
  }
  const Transaction& txn = *s.txn;
  if (i >= txn.deps.size()) {
    FinishStep7(s);
    return;
  }
  const TxnDigest dep = txn.deps[i].txn;
  RunOnPart(PartOfDigest(dep), [this, digest, dep, i]() {
    TxnState& ds = GetState(dep);
    const bool decided = ds.decided;
    const Decision dec = ds.final_decision;
    if (!decided) {
      ds.dependents.push_back(digest);
    }
    RunOnPart(PartOfDigest(digest), [this, digest, dep, i, decided, dec]() {
      TxnState& s = GetState(digest);
      if (s.phase != CheckPhase::kAwaitArrival || s.vote.has_value()) {
        return;
      }
      if (decided && dec == Decision::kAbort) {
        // The dependency's abort surfaced between the step-2 peek and this
        // registration — impossible inline (the simulator), possible on TCP.
        SetVote(s, Vote::kAbort);
        counters_.Inc("abort_dep_aborted");
        return;
      }
      if (!decided) {
        s.unresolved_deps.insert(dep);
      }
      Step7Register(digest, i + 1);
    });
  });
}

void BasilReplica::FinishStep7(TxnState& s) {
  // Consume decisions that landed while the registration hops were in flight
  // (recorded by ResolveDepDecision; always empty on the simulator, where the hops
  // run inline).
  for (const auto& [dep, dec] : s.dep_outcomes) {
    if (dec == Decision::kAbort) {
      SetVote(s, Vote::kAbort);
      counters_.Inc("abort_dep_aborted");
      return;
    }
    s.unresolved_deps.erase(dep);
  }
  if (s.unresolved_deps.empty()) {
    SetVote(s, Vote::kCommit);
  } else {
    s.phase = CheckPhase::kAwaitDecision;
    counters_.Inc("dep_waits");
  }
}

Vote BasilReplica::RunConflictChecks(TxnState& s) {
  const Transaction& txn = *s.txn;
  // Step 3 (lines 5-8): reads must not have missed a committed/prepared write. Only
  // this shard's partition is checked; the other shards vote on theirs.
  for (const ReadEntry& r : txn.read_set) {
    if (txn.ts < r.version) {
      counters_.Inc("misbehavior_proofs");
      return Vote::kMisbehavior;  // Line 6: read above own timestamp.
    }
    if (!OwnsKey(r.key)) {
      continue;
    }
    if (store_.HasCommittedWriteBetween(r.key, r.version, txn.ts)) {
      // Remember the conflicting committed writer: its body and certificate live on
      // its own partition, so FinishVoteWithConflict fetches them with a hop before
      // the abort vote is published (abort fast path case 5).
      if (std::optional<CommittedVersion> cv = store_.CommittedBefore(r.key, txn.ts);
          cv.has_value()) {
        s.conflict_writer = cv->writer;
      }
      counters_.Inc("abort_read_missed_committed");
      return Vote::kAbort;
    }
    if (store_.HasPreparedWriteBetween(r.key, r.version, txn.ts)) {
      counters_.Inc("abort_read_missed_prepared");
      return Vote::kAbort;
    }
  }
  // Steps 4-5 (lines 9-13): writes must not invalidate reads of prepared/committed
  // transactions, nor in-flight reads (RTS).
  for (const WriteEntry& w : txn.write_set) {
    if (!OwnsKey(w.key)) {
      continue;
    }
    if (store_.ReaderWouldMissWrite(w.key, txn.ts)) {
      counters_.Inc("abort_write_invalidates_read");
      return Vote::kAbort;
    }
    if (auto rts = store_.MaxRts(w.key); rts.has_value() && txn.ts < *rts) {
      counters_.Inc("abort_rts");
      return Vote::kAbort;
    }
  }
  // Step 6 (line 14): prepare T and make its writes visible.
  InsertPrepared(s);
  return Vote::kCommit;
}

void BasilReplica::FinishVoteWithConflict(const TxnDigest& digest, TxnState& s,
                                          Vote vote) {
  if (!s.conflict_writer.has_value()) {
    SetVote(s, vote);
    return;
  }
  const TxnDigest writer = *s.conflict_writer;
  RunOnPart(PartOfDigest(writer), [this, digest, writer, vote]() {
    const TxnState* ws = FindState(writer);
    TxnPtr conflict_txn;
    DecisionCertPtr conflict_cert;
    if (ws != nullptr && ws->decided && ws->final_cert != nullptr &&
        ws->txn != nullptr) {
      conflict_txn = ws->txn;
      conflict_cert = ws->final_cert;
    }
    RunOnPart(PartOfDigest(digest),
              [this, digest, vote, conflict_txn, conflict_cert]() {
                TxnState& s = GetState(digest);
                if (s.vote.has_value()) {
                  return;  // Pinned while the fetch hops were in flight.
                }
                s.conflict_txn = conflict_txn;
                s.conflict_cert = conflict_cert;
                SetVote(s, vote);
              });
  });
}

bool BasilReplica::OwnsKey(const Key& key) const {
  return ShardOfKey(key, cfg_->num_shards) == shard_;
}

void BasilReplica::InsertPrepared(TxnState& s) {
  const Transaction& txn = *s.txn;
  for (const WriteEntry& w : txn.write_set) {
    if (OwnsKey(w.key)) {
      store_.AddPreparedWrite(w.key, txn.ts, w.value, txn.id);
    }
  }
  for (const ReadEntry& r : txn.read_set) {
    if (OwnsKey(r.key)) {
      store_.AddReader(r.key, txn.ts, r.version);
    }
  }
  s.prepared = true;
}

void BasilReplica::RemovePrepared(TxnState& s) {
  if (!s.prepared) {
    return;
  }
  const Transaction& txn = *s.txn;
  for (const WriteEntry& w : txn.write_set) {
    if (OwnsKey(w.key)) {
      store_.RemovePreparedWrite(w.key, txn.ts);
    }
  }
  for (const ReadEntry& r : txn.read_set) {
    if (OwnsKey(r.key)) {
      store_.RemoveReader(r.key, txn.ts, r.version);
    }
  }
  s.prepared = false;
}

void BasilReplica::SetVote(TxnState& s, Vote vote) {
  if (s.vote.has_value()) {
    return;
  }
  vote = FilterVote(s.txn->id, vote);
  s.vote = vote;
  s.phase = CheckPhase::kVoted;
  if (vote != Vote::kCommit && s.prepared) {
    RemovePrepared(s);
  }
  if (s.st1_arrive_ns != 0) {
    // Arrival -> vote pinned, dependency waits included (cross-event, so the span
    // is meaningful in simulated time too).
    tracer_.Record(obs::Stage::kVote, s.txn->id, now() - s.st1_arrive_ns);
  }
  counters_.Inc(vote == Vote::kCommit ? "votes_commit" : "votes_abort");
  std::vector<NodeId> waiters;
  waiters.swap(s.vote_waiters);
  std::sort(waiters.begin(), waiters.end());
  waiters.erase(std::unique(waiters.begin(), waiters.end()), waiters.end());
  for (NodeId dst : waiters) {
    ReplyVote(dst, s);
  }
}

void BasilReplica::NotifyDependents(TxnState& s) {
  std::vector<TxnDigest> dependents;
  dependents.swap(s.dependents);
  const Decision dec = s.final_decision;
  const TxnDigest my_id = s.txn != nullptr ? s.txn->id : TxnDigest{};
  for (const TxnDigest& d : dependents) {
    RunOnPart(PartOfDigest(d),
              [this, d, my_id, dec]() { ResolveDepDecision(d, my_id, dec); });
  }
}

void BasilReplica::ResolveDepDecision(const TxnDigest& digest, const TxnDigest& dep,
                                      Decision dec) {
  Part& part = parts_[PartOfDigest(digest)];
  auto it = part.txns.find(digest);
  if (it == part.txns.end()) {
    return;
  }
  TxnState& ds = it->second;
  // Recorded unconditionally: if the dependent is still mid-registration (step-7
  // hops in flight), FinishStep7 consumes this outcome instead.
  ds.dep_outcomes[dep] = dec;
  if (ds.vote.has_value() || ds.phase != CheckPhase::kAwaitDecision) {
    return;
  }
  if (dec == Decision::kAbort) {
    // Line 16-18: a dependency aborted, so the dependent must abort.
    SetVote(ds, Vote::kAbort);
    counters_.Inc("abort_dep_aborted");
    return;
  }
  ds.unresolved_deps.erase(dep);
  if (ds.unresolved_deps.empty()) {
    SetVote(ds, Vote::kCommit);
  }
}

// ---------------------------------------------------------------------------
// Replies (all signed, via reply batching).
// ---------------------------------------------------------------------------

void BasilReplica::ReplyVote(NodeId dst, TxnState& s) {
  auto reply = std::make_shared<St1ReplyMsg>();
  reply->vote.txn = s.txn->id;
  reply->vote.vote = *s.vote;
  reply->vote.replica = id();
  reply->conflict_txn = s.conflict_txn;
  reply->conflict_cert = s.conflict_cert;
  const Hash256 digest = reply->vote.Digest();
  SendBatched(dst, reply, digest, [](std::shared_ptr<MsgBase> m, BatchCert cert) {
    auto* r = static_cast<St1ReplyMsg*>(m.get());
    r->vote.cert = std::move(cert);
  });
}

void BasilReplica::ReplySt2Ack(NodeId dst, TxnState& s) {
  if (!s.logged_decision.has_value()) {
    return;
  }
  auto reply = std::make_shared<St2ReplyMsg>();
  reply->ack.txn = s.txn != nullptr ? s.txn->id : TxnDigest{};
  reply->ack.decision = *s.logged_decision;
  reply->ack.view_decision = s.view_decision;
  reply->ack.view_current = s.view_current;
  reply->ack.replica = id();
  const Hash256 digest = reply->ack.Digest();
  SendBatched(dst, reply, digest, [](std::shared_ptr<MsgBase> m, BatchCert cert) {
    auto* r = static_cast<St2ReplyMsg*>(m.get());
    r->ack.cert = std::move(cert);
  });
}

void BasilReplica::ReplyCert(NodeId dst, TxnState& s) {
  if (s.final_cert == nullptr) {
    return;
  }
  auto reply = std::make_shared<WritebackMsg>();
  reply->cert = s.final_cert;
  reply->txn_body = s.txn;
  Send(dst, std::move(reply));
}

void BasilReplica::SendBatched(
    NodeId dst, std::shared_ptr<MsgBase> msg, const Hash256& digest,
    std::function<void(std::shared_ptr<MsgBase>, BatchCert)> set_cert) {
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    pending_replies_.push_back(PendingReply{dst, std::move(msg), digest,
                                            std::move(set_cert)});
    // NoProofs runs have nothing to amortize: flush immediately (no batch latency),
    // matching the paper's Basil-NoProofs configuration.
    const uint32_t batch_size = keys_->enabled() ? cfg_->batch_size : 1;
    if (pending_replies_.size() >= batch_size) {
      flush = true;
    } else if (!batch_timer_armed_) {
      batch_timer_armed_ = true;
      batch_timer_ = SetTimer(cfg_->batch_timeout_ns, [this]() {
        {
          std::lock_guard<std::mutex> timer_lock(batch_mu_);
          batch_timer_armed_ = false;
        }
        FlushBatch();
      });
    }
  }
  if (flush) {
    FlushBatch();
  }
}

void BasilReplica::FlushBatch() {
  std::vector<PendingReply> pending;
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    if (pending_replies_.empty()) {
      return;
    }
    if (batch_timer_armed_) {
      CancelTimer(batch_timer_);
      batch_timer_armed_ = false;
    }
    pending.swap(pending_replies_);
    seq = seal_seq_++;
  }
  auto batch = std::make_shared<std::vector<PendingReply>>(std::move(pending));
  std::vector<Hash256> digests;
  digests.reserve(batch->size());
  for (const PendingReply& p : *batch) {
    digests.push_back(p.digest);
  }
  // Sealing builds the Merkle tree and signs its root — pure CPU over the collected
  // digests. Batches rotate across strands (each batch is internally ordered; batch
  // order against other batches is not), the certified sends run back in the
  // handler context.
  auto certs = std::make_shared<std::vector<BatchCert>>();
  auto seal = [this, digests = std::move(digests), certs](CostMeter& m) {
    const uint64_t t0 = now();
    *certs = SealBatch(digests, *keys_, id(), &m);
    // Batches span transactions; the seal span is recorded under the zero digest.
    tracer_.Record(obs::Stage::kBatchSeal, TxnDigest{}, now() - t0);
  };
  auto send_all = [this, batch, certs]() {
    for (size_t i = 0; i < batch->size(); ++i) {
      PendingReply& p = (*batch)[i];
      p.set_cert(p.msg, std::move((*certs)[i]));
      Send(p.dst, std::move(p.msg));
    }
    counters_.Inc("batches_flushed");
  };
  if (!cfg_->parallel_pipeline) {
    seal(meter());
    send_all();
    return;
  }
  Post(seq, std::move(seal), std::move(send_all));
}

// ---------------------------------------------------------------------------
// Prepare phase, Stage 2: decision logging.
// ---------------------------------------------------------------------------

void BasilReplica::OnSt2(NodeId src, std::shared_ptr<const St2Msg> msg) {
  ChargeClientAuthVerify();
  RunOnPart(PartOfDigest(msg->txn), [this, src, msg]() { St2OnOwner(src, msg); });
}

void BasilReplica::St2OnOwner(NodeId src, const std::shared_ptr<const St2Msg>& msg) {
  TxnState& s = GetState(msg->txn);
  if (s.txn == nullptr && msg->txn_body != nullptr && msg->txn_body->id == msg->txn) {
    s.txn = msg->txn_body;
  }
  if (s.decided) {
    ReplyCert(src, s);
    return;
  }
  if (s.logged_decision.has_value()) {
    // Already logged: answered from storage, no justification work to do. If a
    // different decision is logged, the stored one is returned; a client seeing
    // non-matching acks enters the divergent fallback case (§5).
    ReplySt2Ack(src, s);
    return;
  }
  if (msg->view < s.view_current) {
    counters_.Inc("st2_stale_view");
    return;
  }
  // The justification validates quorums of signed prepare votes — the heaviest
  // verification a replica does. It runs on the crypto pool (TCP) or inline (sim);
  // the continuation re-checks the guards, because the state may have advanced while
  // the signatures were being checked. In partitioned mode the verdict returns to
  // this transaction's owning strand, not the loop.
  VerifyOnHome(
      PartOfDigest(msg->txn),
      [this, msg](CostMeter& m) {
        const uint64_t t0 = now();
        const bool ok = validator_.ValidateSt2Justification(*msg, verifier_, &m);
        tracer_.Record(obs::Stage::kSt2CertVerify, msg->txn, now() - t0);
        return ok;
      },
      [this, src, msg](bool justified) {
        TxnState& s = GetState(msg->txn);
        if (s.decided) {
          ReplyCert(src, s);
          return;
        }
        if (!s.logged_decision.has_value()) {
          if (!justified) {
            counters_.Inc("st2_unjustified");
            return;
          }
          if (msg->view < s.view_current) {
            counters_.Inc("st2_stale_view");
            return;
          }
          s.logged_decision = msg->decision;
          s.view_decision = msg->view;
          counters_.Inc("st2_logged");
        }
        ReplySt2Ack(src, s);
      });
}

// ---------------------------------------------------------------------------
// Writeback phase.
// ---------------------------------------------------------------------------

void BasilReplica::OnWriteback(NodeId src, std::shared_ptr<const WritebackMsg> msg) {
  (void)src;
  if (msg->cert == nullptr) {
    return;
  }
  RunOnPart(PartOfDigest(msg->cert->txn), [this, msg]() { WritebackOnOwner(msg); });
}

void BasilReplica::WritebackOnOwner(const std::shared_ptr<const WritebackMsg>& msg) {
  TxnState& s = GetState(msg->cert->txn);
  if (s.decided) {
    return;
  }
  if (s.txn == nullptr && msg->txn_body != nullptr &&
      msg->txn_body->id == msg->cert->txn) {
    s.txn = msg->txn_body;
    DrainArrivalWaiters(msg->cert->txn);
  }
  // C-CERT/A-CERT validation verifies a quorum of signed votes or acks: crypto-pool
  // work. The body pointer is pinned here; the continuation re-fetches the state
  // (another writeback may have decided the transaction while this one verified).
  VerifyOnHome(
      PartOfDigest(msg->cert->txn),
      [this, msg, body = s.txn](CostMeter& m) {
        const uint64_t t0 = now();
        const bool ok =
            validator_.ValidateDecisionCert(*msg->cert, body.get(), verifier_, &m);
        tracer_.Record(obs::Stage::kWbCertVerify, msg->cert->txn, now() - t0);
        return ok;
      },
      [this, msg](bool valid) {
        TxnState& s = GetState(msg->cert->txn);
        if (s.decided) {
          return;
        }
        if (!valid) {
          counters_.Inc("writeback_invalid");
          return;
        }
        ApplyDecision(s, msg->cert->decision, msg->cert);
      });
}

void BasilReplica::ApplyDecision(TxnState& s, Decision decision, DecisionCertPtr cert) {
  const uint64_t t0 = now();
  s.decided = true;
  s.final_decision = decision;
  s.final_cert = std::move(cert);
  s.logged_decision = decision;
  if (s.txn != nullptr) {
    const Transaction& txn = *s.txn;
    if (decision == Decision::kCommit) {
      const bool had_readers = s.prepared;
      for (const WriteEntry& w : txn.write_set) {
        if (!OwnsKey(w.key)) {
          continue;  // Each shard applies only its partition of the write set.
        }
        if (s.prepared) {
          store_.RemovePreparedWrite(w.key, txn.ts);
        }
        store_.ApplyCommittedWrite(w.key, txn.ts, w.value, txn.id);
      }
      s.prepared = false;
      if (!had_readers) {
        // The reader index entries were never added here (this replica did not
        // prepare T); add them so future writes are checked against T's reads.
        for (const ReadEntry& r : txn.read_set) {
          if (OwnsKey(r.key)) {
            store_.AddReader(r.key, txn.ts, r.version);
          }
        }
      }
      counters_.Inc("committed");
    } else {
      RemovePrepared(s);
      counters_.Inc("aborted");
    }
    for (const ReadEntry& r : txn.read_set) {
      if (OwnsKey(r.key)) {
        store_.RemoveRts(r.key, txn.ts);
      }
    }
  }
  NotifyDependents(s);
  if (durable_ != nullptr && decision == Decision::kCommit && s.txn != nullptr) {
    WalCommitRecord rec;
    rec.writer = s.txn->id;
    rec.ts = s.txn->ts;
    for (const WriteEntry& w : s.txn->write_set) {
      if (OwnsKey(w.key)) {
        rec.writes.emplace_back(w.key, w.value);
      }
    }
    std::lock_guard<std::mutex> lock(wal_mu_);
    durable_->AppendCommit(rec);
  }
  if (s.txn != nullptr) {
    tracer_.Record(obs::Stage::kWbApply, s.txn->id, now() - t0);
    if (s.st1_arrive_ns != 0) {
      // Replica-observed end-to-end: first ST1 intake -> decision applied.
      tracer_.Record(obs::Stage::kSt1ToDecision, s.txn->id, now() - s.st1_arrive_ns);
    }
  }
  for (NodeId c : s.interested) {
    ReplyCert(c, s);
  }
  s.interested.clear();
}

// ---------------------------------------------------------------------------
// Replica recovery: peer state transfer (docs/RECOVERY.md).
// ---------------------------------------------------------------------------

void BasilReplica::StartRecovery(std::function<void()> on_complete) {
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    if (recovery_timer_armed_) {  // Re-entry: retire the previous round's timer.
      CancelTimer(recovery_timer_);
      recovery_timer_armed_ = false;
    }
    recovering_ = true;
    ++recovery_req_id_;
    recovery_done_peers_.clear();
    recovery_complete_cb_ = std::move(on_complete);
  }
  counters_.Inc("recovery_started");
  SendStateRequests();
}

void BasilReplica::SendStateRequests() {
  Timestamp since{};
  if (durable_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(wal_mu_);
      since = durable_->high_water();
    }
    // Commits apply in writeback order, not timestamp order: rewind the cursor so
    // commits below the high-water mark that we never logged are re-offered (the
    // applied-set makes re-application idempotent).
    since.time -= std::min(since.time, cfg_->recovery_lookback_ns);
    since.client_id = 0;
  }
  std::lock_guard<std::mutex> lock(recovery_mu_);
  for (NodeId peer : topo_->ShardReplicas(shard_)) {
    if (peer == id() || recovery_done_peers_.contains(peer)) {
      continue;
    }
    auto req = std::make_shared<StateRequestMsg>();
    req->req_id = recovery_req_id_;
    req->since = since;
    Send(peer, std::move(req));
  }
  recovery_timer_armed_ = true;
  recovery_timer_ = SetTimer(cfg_->recovery_retry_ns, [this]() {
    bool again = false;
    {
      std::lock_guard<std::mutex> timer_lock(recovery_mu_);
      recovery_timer_armed_ = false;
      again = recovering_;
    }
    if (again) {
      SendStateRequests();  // Re-ask the peers that have not finished streaming.
    }
  });
}

void BasilReplica::OnStateRequest(NodeId src, const StateRequestMsg& msg) {
  if (!topo_->IsReplicaNode(src) || topo_->ShardOfReplicaNode(src) != shard_) {
    return;  // Only shard peers recover from us.
  }
  // Serve every decided commit we can still prove (body + certificate). Collection
  // hops across the execution partitions in order; the final sort by timestamp
  // makes the chunk stream deterministic for any partition count.
  CollectStateFromPart(src, msg.req_id, msg.since, 0,
                       std::make_shared<std::vector<StateEntry>>());
}

void BasilReplica::CollectStateFromPart(
    NodeId src, uint64_t req_id, Timestamp since, size_t p,
    std::shared_ptr<std::vector<StateEntry>> commits) {
  if (p >= parts_.size()) {
    SendStateChunks(src, req_id, std::move(*commits));
    return;
  }
  RunOnPart(p, [this, src, req_id, since, p, commits]() {
    for (const auto& [digest, s] : parts_[p].txns) {
      (void)digest;
      if (s.decided && s.final_decision == Decision::kCommit && s.txn != nullptr &&
          s.final_cert != nullptr && since < s.txn->ts) {
        commits->push_back(StateEntry{s.txn, s.final_cert});
      }
    }
    CollectStateFromPart(src, req_id, since, p + 1, commits);
  });
}

void BasilReplica::SendStateChunks(NodeId src, uint64_t req_id,
                                   std::vector<StateEntry> commits) {
  std::sort(commits.begin(), commits.end(),
            [](const StateEntry& a, const StateEntry& b) {
              return a.txn->ts < b.txn->ts;
            });
  const uint32_t per_chunk = std::max<uint32_t>(1, cfg_->state_chunk_entries);
  size_t i = 0;
  do {
    auto chunk = std::make_shared<StateChunkMsg>();
    chunk->req_id = req_id;
    chunk->replica = id();
    for (size_t j = 0; j < per_chunk && i < commits.size(); ++j, ++i) {
      chunk->entries.push_back(commits[i]);
    }
    chunk->done = i == commits.size();
    counters_.Inc("state_entries_served", chunk->entries.size());
    Send(src, std::move(chunk));
  } while (i < commits.size());
  counters_.Inc("state_requests_served");
}

bool BasilReplica::ApplyStateEntry(const StateEntry& entry) {
  if (entry.txn == nullptr || entry.cert == nullptr) {
    return false;
  }
  const Transaction& txn = *entry.txn;
  // The body must hash to its claimed digest — a tampered body cannot reuse a
  // correct transaction's certificate.
  if (txn.ComputeDigest() != txn.id) {
    return false;
  }
  if (entry.cert->txn != txn.id || entry.cert->decision != Decision::kCommit) {
    return false;
  }
  if (const TxnState* existing = FindState(txn.id);
      existing != nullptr && existing->decided) {
    counters_.Inc("state_entries_duplicate");
    return true;
  }
  // SplitBFT's lesson: recovered state is validated against commit certificates,
  // never accepted on a peer's word. Validation runs before GetState so a rejected
  // entry leaves no TxnState behind (a Byzantine stream must not grow the map).
  if (!validator_.ValidateDecisionCert(*entry.cert, &txn, verifier_, &meter())) {
    return false;
  }
  TxnState& s = GetState(txn.id);
  if (s.txn == nullptr) {
    s.txn = entry.txn;
  }
  // A commit already in the WAL (re-offered by the conservative `since` cursor) is
  // re-applied only to regain its in-memory TxnState + certificate; it is not a
  // missed commit.
  bool already_durable = false;
  if (durable_ != nullptr) {
    std::lock_guard<std::mutex> lock(wal_mu_);
    already_durable = durable_->HasApplied(txn.id);
  }
  ApplyDecision(s, Decision::kCommit, entry.cert);
  counters_.Inc(already_durable ? "state_entries_reapplied"
                                : "state_entries_applied");
  return true;
}

void BasilReplica::OnStateChunk(NodeId src, std::shared_ptr<const StateChunkMsg> msg) {
  if (!topo_->IsReplicaNode(src) || topo_->ShardOfReplicaNode(src) != shard_ ||
      msg->replica != src) {  // The claimed sender must be the actual one.
    return;
  }
  // Entries are cert-validated, so applying them is safe whether or not a recovery
  // is in flight (late chunks from slow peers still land). Each entry applies on
  // its transaction's owning strand; the done bookkeeping runs after the last one.
  ApplyChunkEntries(src, msg, 0);
}

void BasilReplica::ApplyChunkEntries(NodeId src,
                                     const std::shared_ptr<const StateChunkMsg>& msg,
                                     size_t i) {
  if (i >= msg->entries.size()) {
    StateChunkDone(src, msg);
    return;
  }
  const StateEntry& e = msg->entries[i];
  if (e.txn == nullptr) {
    // No digest to route by; rejected in place.
    counters_.Inc("state_entries_rejected");
    ApplyChunkEntries(src, msg, i + 1);
    return;
  }
  RunOnPart(PartOfDigest(e.txn->id), [this, src, msg, i]() {
    if (!ApplyStateEntry(msg->entries[i])) {
      counters_.Inc("state_entries_rejected");
    }
    ApplyChunkEntries(src, msg, i + 1);
  });
}

void BasilReplica::StateChunkDone(NodeId src,
                                  const std::shared_ptr<const StateChunkMsg>& msg) {
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    if (!recovering_ || msg->req_id != recovery_req_id_ || !msg->done) {
      return;
    }
    recovery_done_peers_.insert(src);
    if (recovery_done_peers_.size() < cfg_->recovery_done_quorum()) {
      return;
    }
  }
  FinishRecovery();
}

void BasilReplica::FinishRecovery() {
  std::function<void()> cb;
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    if (!recovering_) {
      return;  // Another chunk's bookkeeping finished this round first.
    }
    recovering_ = false;
    if (recovery_timer_armed_) {
      CancelTimer(recovery_timer_);
      recovery_timer_armed_ = false;
    }
    cb = std::move(recovery_complete_cb_);
    recovery_complete_cb_ = nullptr;
  }
  counters_.Inc("recovery_completed");
  if (cb) {
    cb();
  }
}

// ---------------------------------------------------------------------------
// Fallback protocol (§5, divergent case).
// ---------------------------------------------------------------------------

void BasilReplica::OnInvokeFb(NodeId src, std::shared_ptr<const InvokeFbMsg> msg) {
  ChargeClientAuthVerify();
  RunOnPart(PartOfDigest(msg->txn), [this, src, msg]() {
    TxnState& s = GetState(msg->txn);
    s.interested.insert(src);
    if (s.txn == nullptr && msg->txn_body != nullptr && msg->txn_body->id == msg->txn) {
      s.txn = msg->txn_body;
    }
    if (s.decided) {
      ReplyCert(src, s);
      return;
    }
    counters_.Inc("fb_invocations");

    // Determine the new current view from the signed view evidence.
    std::vector<uint32_t> views;
    for (const SignedSt2Ack& ack : msg->views) {
      if (ack.txn != msg->txn || !topo_->IsReplicaNode(ack.replica) ||
          topo_->ShardOfReplicaNode(ack.replica) != shard_) {
        continue;
      }
      if (!verifier_.Verify(ack.Digest(), ack.cert, &meter())) {
        continue;
      }
      views.push_back(ack.view_current);
    }
    uint32_t target = ComputeTargetView(views, s.view_current,
                                        3 * cfg_->f + 1, cfg_->f + 1);
    if (msg->views.empty() && s.view_current == 0) {
      target = 1;  // Appendix B.5: the 0 -> 1 transition needs no proof.
    }
    if (target > s.view_current) {
      s.view_current = target;
    }
    if (s.view_current == 0) {
      return;  // No election in view 0: clients drive directly.
    }

    // ELECT FB to the view's leader. Correct replicas vote their logged decision; a
    // replica that never logged one falls back to its ST1 vote (DESIGN.md notes why
    // this preserves Lemma 4's majority argument).
    Decision d = Decision::kAbort;
    if (s.logged_decision.has_value()) {
      d = *s.logged_decision;
    } else if (s.vote.has_value() && *s.vote == Vote::kCommit) {
      d = Decision::kCommit;
    }
    auto elect = std::make_shared<ElectFbMsg>();
    elect->elect.txn = msg->txn;
    elect->elect.decision = d;
    elect->elect.view = s.view_current;
    elect->elect.replica = id();
    if (keys_->enabled()) {
      meter().ChargeSign();
    }
    elect->elect.sig = keys_->Sign(id(), elect->elect.Digest());
    const ReplicaId leader = FallbackLeaderIndex(msg->txn, s.view_current, cfg_->n());
    Send(topo_->ReplicaNode(shard_, leader), std::move(elect));
  });
}

void BasilReplica::OnElectFb(NodeId src, std::shared_ptr<const ElectFbMsg> msg) {
  RunOnPart(PartOfDigest(msg->elect.txn), [this, src, msg]() {
    const ElectFbData& e = msg->elect;
    if (keys_->enabled()) {
      meter().ChargeVerify();
    }
    if (!keys_->Verify(e.sig, e.Digest())) {
      counters_.Inc("elect_bad_sig");
      return;
    }
    if (FallbackLeaderIndex(e.txn, e.view, cfg_->n()) != index_) {
      return;  // Not this view's leader.
    }
    TxnState& s = GetState(e.txn);
    if (s.decided) {
      ReplyCert(src, s);
      return;
    }
    s.elect_msgs[e.view][src] = e;
    const auto& bucket = s.elect_msgs[e.view];
    if (bucket.size() < cfg_->elect_quorum() || s.dec_fb_sent.contains(e.view)) {
      return;
    }
    // Propose the majority decision (§5 step 3).
    uint32_t commits = 0;
    std::vector<ElectFbData> proof;
    proof.reserve(bucket.size());
    for (const auto& [node, data] : bucket) {
      (void)node;
      proof.push_back(data);
      if (data.decision == Decision::kCommit) {
        ++commits;
      }
    }
    const Decision dec = commits * 2 > bucket.size() ? Decision::kCommit
                                                     : Decision::kAbort;
    s.dec_fb_sent.insert(e.view);
    counters_.Inc("fb_elected_leader");

    auto dfb = std::make_shared<DecFbMsg>();
    dfb->txn = e.txn;
    dfb->decision = dec;
    dfb->view = e.view;
    dfb->leader = id();
    if (keys_->enabled()) {
      meter().ChargeSign();
    }
    dfb->leader_sig = keys_->Sign(id(), dfb->Digest());
    dfb->proof = std::move(proof);
    const MsgPtr out = dfb;
    SendToAll(topo_->ShardReplicas(shard_), out);
  });
}

void BasilReplica::OnDecFb(NodeId src, std::shared_ptr<const DecFbMsg> msg) {
  (void)src;
  RunOnPart(PartOfDigest(msg->txn), [this, msg]() {
    if (keys_->enabled()) {
      meter().ChargeVerify();
    }
    if (!keys_->Verify(msg->leader_sig, msg->Digest())) {
      return;
    }
    if (FallbackLeaderIndex(msg->txn, msg->view, cfg_->n()) !=
        topo_->ReplicaIndex(msg->leader)) {
      return;
    }
    // Validate the 4f+1 ELECT FB proof and the majority rule.
    std::set<NodeId> seen;
    uint32_t commits = 0;
    for (const ElectFbData& e : msg->proof) {
      if (e.txn != msg->txn || e.view != msg->view ||
          !topo_->IsReplicaNode(e.replica) ||
          topo_->ShardOfReplicaNode(e.replica) != shard_) {
        continue;
      }
      if (keys_->enabled()) {
        meter().ChargeVerify();
      }
      if (!keys_->Verify(e.sig, e.Digest())) {
        continue;
      }
      if (seen.insert(e.replica).second && e.decision == Decision::kCommit) {
        ++commits;
      }
    }
    if (seen.size() < cfg_->elect_quorum()) {
      return;
    }
    const Decision majority = commits * 2 > seen.size() ? Decision::kCommit
                                                        : Decision::kAbort;
    if (majority != msg->decision) {
      counters_.Inc("decfb_bad_majority");
      return;
    }
    TxnState& s = GetState(msg->txn);
    if (s.decided || s.view_current > msg->view) {
      return;
    }
    s.logged_decision = msg->decision;
    s.view_decision = msg->view;
    s.view_current = msg->view;
    counters_.Inc("fb_decisions_adopted");
    for (NodeId c : s.interested) {
      ReplySt2Ack(c, s);
    }
  });
}

void BasilReplica::OnFetch(NodeId src, const FetchMsg& msg) {
  const TxnDigest digest = msg.digest;
  RunOnPart(PartOfDigest(digest), [this, src, digest]() {
    const TxnState* s = FindState(digest);
    if (s == nullptr || s->txn == nullptr) {
      return;
    }
    auto reply = std::make_shared<FetchReplyMsg>();
    reply->txn = s->txn;
    Send(src, std::move(reply));
  });
}

}  // namespace basil
