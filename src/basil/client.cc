#include "src/basil/client.h"

#include <algorithm>
#include <cassert>

namespace basil {
namespace {

constexpr int kMaxPrepareAttempts = 12;
constexpr int kMaxRecoveryDepth = 8;
constexpr int kMaxFallbackRounds = 10;

}  // namespace

BasilClient::BasilClient(Runtime* rt, ClientId client_id, const BasilConfig* cfg,
                         const Topology* topo, const KeyRegistry* keys, Rng rng)
    : Process(rt),
      cfg_(cfg),
      topo_(topo),
      keys_(keys),
      validator_(cfg, topo, keys),
      verifier_(keys),
      client_id_(client_id),
      rng_(rng),
      tracer_(&rt->metrics()) {}

void BasilClient::ChargeSignIfEnabled() {
  if (keys_->enabled()) {
    meter().ChargeSign();
  }
}

// ---------------------------------------------------------------------------
// Session API.
// ---------------------------------------------------------------------------

TxnSession& BasilClient::BeginTxn() {
  active_.emplace();
  // §4.1: the client picks its own timestamp (local clock, client id tiebreak).
  active_->ts = Timestamp{now(), client_id_};
  return *this;
}

void BasilClient::Put(const Key& key, Value value) {
  if (!active_.has_value()) {
    return;
  }
  active_->write_lookup[key] = value;
  active_->write_buffer.emplace_back(key, std::move(value));
}

Task<std::optional<Value>> BasilClient::Get(const Key& key) {
  if (!active_.has_value() || active_->failed) {
    co_return std::nullopt;
  }
  // Read-your-writes from the local buffer (§4.1: writes are buffered client-side).
  if (auto it = active_->write_lookup.find(key); it != active_->write_lookup.end()) {
    co_return it->second;
  }
  if (auto it = active_->read_cache.find(key); it != active_->read_cache.end()) {
    co_return it->second;
  }

  const Timestamp ts = active_->ts;
  const uint64_t read_t0 = now();
  std::optional<ReadChoice> choice = co_await DoRead(key, ts);
  // Zero digest: the transaction body is not finalized at read time.
  tracer_.Record(obs::Stage::kClientRead, TxnDigest{}, now() - read_t0);
  if (!active_.has_value()) {
    co_return std::nullopt;  // Session was torn down while the read was in flight.
  }
  active_->rts_keys.push_back(key);
  if (!choice.has_value()) {
    active_->failed = true;
    counters_.Inc("read_failures");
    co_return std::nullopt;
  }
  active_->read_set.push_back(ReadEntry{key, choice->ts});
  if (choice->is_prepared && choice->prepared_txn != nullptr) {
    const TxnDigest& dep_id = choice->prepared_txn->id;
    if (!active_->dep_set.contains(dep_id)) {
      active_->dep_set.insert(dep_id);
      active_->deps.push_back(
          Dependency{dep_id, choice->ts, ShardOfKey(key, cfg_->num_shards)});
      dep_bodies_[dep_id] = choice->prepared_txn;
      counters_.Inc("deps_acquired");
    }
  }
  active_->read_cache[key] = choice->value;
  if (choice->ts.IsZero() && choice->value.empty()) {
    co_return std::nullopt;  // Key has no visible version: "not found".
  }
  co_return choice->value;
}

Task<void> BasilClient::Abort() {
  if (!active_.has_value()) {
    co_return;
  }
  // Release read timestamps so our reads stop aborting concurrent writers (§4.1).
  std::map<ShardId, std::vector<Key>> by_shard;
  for (const Key& key : active_->rts_keys) {
    by_shard[ShardOfKey(key, cfg_->num_shards)].push_back(key);
  }
  for (auto& [shard, keys] : by_shard) {
    auto msg = std::make_shared<AbortReadMsg>();
    msg->ts = active_->ts;
    msg->keys = std::move(keys);
    ChargeSignIfEnabled();
    const MsgPtr out = msg;
    SendToAll(topo_->ShardReplicas(shard), out);
  }
  active_.reset();
  counters_.Inc("user_aborts");
  co_return;
}

Task<TxnOutcome> BasilClient::Commit() {
  if (!active_.has_value()) {
    co_return TxnOutcome{false, false};
  }
  if (active_->failed) {
    co_await Abort();
    co_return TxnOutcome{false, true};
  }
  auto txn = std::make_shared<Transaction>();
  txn->ts = active_->ts;
  txn->client = client_id_;
  txn->read_set = std::move(active_->read_set);
  txn->write_set.reserve(active_->write_buffer.size());
  // Last write per key wins (write_lookup holds the final value).
  for (auto& [key, value] : active_->write_lookup) {
    txn->write_set.push_back(WriteEntry{key, value});
  }
  txn->deps = std::move(active_->deps);
  txn->Finalize(cfg_->num_shards);
  active_.reset();

  if (txn->read_set.empty() && txn->write_set.empty()) {
    counters_.Inc("empty_commits");
    co_return TxnOutcome{true, false};
  }
  TxnPtr body = std::move(txn);
  if (fault_mode_ != FaultMode::kCorrect) {
    co_return co_await CommitByzantine(body, fault_mode_);
  }
  const uint64_t commit_t0 = now();
  const Decision d = co_await FinishTransaction(body, /*depth=*/0);
  tracer_.Record(obs::Stage::kClientCommit, body->id, now() - commit_t0);
  counters_.Inc(d == Decision::kCommit ? "commits" : "system_aborts");
  co_return TxnOutcome{d == Decision::kCommit, d != Decision::kCommit};
}

// ---------------------------------------------------------------------------
// Execution phase: reads.
// ---------------------------------------------------------------------------

Task<std::optional<BasilClient::ReadChoice>> BasilClient::DoRead(const Key& key,
                                                                 const Timestamp& ts) {
  const ShardId shard = ShardOfKey(key, cfg_->num_shards);
  const std::vector<NodeId> replicas = topo_->ShardReplicas(shard);
  const uint32_t n = cfg_->n();
  const uint64_t req = next_req_++;

  auto rc = std::make_shared<ReadCollector>();
  rc->wait_for = std::min(cfg_->ReadWait(), n);
  pending_reads_[req] = rc;

  auto msg = std::make_shared<ReadMsg>();
  msg->req_id = req;
  msg->key = key;
  msg->ts = ts;
  ChargeSignIfEnabled();  // Read requests are authenticated (§4.1).

  const uint32_t fanout = std::min(cfg_->ReadFanout(), n);
  const uint32_t start = static_cast<uint32_t>(rng_.NextUint(n));
  const MsgPtr out = msg;
  for (uint32_t i = 0; i < fanout; ++i) {
    Send(replicas[(start + i) % n], out);
  }
  counters_.Inc("reads_sent");

  auto arm = [this, rc]() {
    rc->timer = SetTimer(cfg_->read_timeout_ns, [rc]() {
      if (!rc->done.fired()) {
        rc->timed_out = true;
        rc->done.Fire();
      }
    });
  };
  arm();
  co_await rc->done;

  if (rc->timed_out && rc->from.size() < rc->wait_for) {
    // Retry once against the full shard (Byzantine replicas may be silent).
    rc->done.Reset();
    rc->timed_out = false;
    ChargeSignIfEnabled();
    for (uint32_t i = 0; i < n; ++i) {
      if (!rc->from.contains(replicas[i])) {
        Send(replicas[i], out);
      }
    }
    counters_.Inc("read_retries");
    arm();
    co_await rc->done;
  }
  if (!rc->timed_out) {
    CancelTimer(rc->timer);
  }
  pending_reads_.erase(req);
  if (rc->from.size() < rc->wait_for) {
    co_return std::nullopt;
  }
  co_return EvaluateRead(*rc, ts);
}

bool BasilClient::ValidateCommittedReply(const ReadReplyMsg& reply) {
  if (reply.committed_ts.IsZero()) {
    return true;  // Genesis version: no certificate required.
  }
  if (reply.committed_cert == nullptr) {
    return false;
  }
  if (validated_certs_.contains(reply.committed_writer)) {
    return true;
  }
  if (reply.committed_cert->decision != Decision::kCommit ||
      reply.committed_cert->txn != reply.committed_writer) {
    return false;
  }
  const Transaction* body =
      reply.committed_txn != nullptr ? reply.committed_txn.get() : nullptr;
  if (!validator_.ValidateDecisionCert(*reply.committed_cert, body, verifier_,
                                       &meter())) {
    counters_.Inc("read_bad_cert");
    return false;
  }
  validated_certs_.insert(reply.committed_writer);
  return true;
}

std::optional<BasilClient::ReadChoice> BasilClient::EvaluateRead(
    const ReadCollector& rc, const Timestamp& ts) {
  ReadChoice best;
  best.ts = Timestamp{};  // Zero: "no version" baseline.
  bool found = false;

  // Committed candidates: must carry a valid C-CERT (or be genesis). Choosing the
  // highest valid version preserves Byzantine independence (§4.1 step 3).
  for (const auto& reply : rc.replies) {
    if (!reply->has_committed || reply->committed_ts >= ts) {
      continue;
    }
    if (!found || best.ts < reply->committed_ts) {
      if (ValidateCommittedReply(*reply)) {
        best.ts = reply->committed_ts;
        best.value = reply->committed_value;
        best.is_prepared = false;
        best.prepared_txn = nullptr;
        found = true;
      }
    }
  }

  // Prepared candidates: require f+1 matching replicas (§4.1 step 3).
  std::map<std::pair<Timestamp, TxnDigest>, std::pair<uint32_t, TxnPtr>> prepared;
  for (const auto& reply : rc.replies) {
    if (!reply->has_prepared || reply->prepared_txn == nullptr ||
        reply->prepared_ts >= ts) {
      continue;
    }
    auto& entry = prepared[{reply->prepared_ts, reply->prepared_txn->id}];
    entry.first++;
    entry.second = reply->prepared_txn;
  }
  for (const auto& [key_pair, entry] : prepared) {
    if (entry.first < cfg_->f + 1) {
      continue;
    }
    const Timestamp& pts = key_pair.first;
    if (!found || best.ts < pts) {
      // Value comes from the transaction body itself (self-consistent).
      const Transaction& dep_txn = *entry.second;
      for (const WriteEntry& w : dep_txn.write_set) {
        if (w.key == rc.replies.front()->key) {
          best.ts = pts;
          best.value = w.value;
          best.is_prepared = true;
          best.prepared_txn = entry.second;
          found = true;
          break;
        }
      }
    }
  }

  if (!found) {
    // No version anywhere: valid empty read at timestamp zero.
    return ReadChoice{Timestamp{}, Value{}, false, nullptr};
  }
  return best;
}

// ---------------------------------------------------------------------------
// Prepare + recovery.
// ---------------------------------------------------------------------------

Task<Decision> BasilClient::FinishTransaction(TxnPtr body, int depth) {
  const TxnDigest id = body->id;
  if (auto it = finished_cache_.find(id); it != finished_cache_.end()) {
    co_return it->second;
  }
  if (auto it = in_flight_.find(id); it != in_flight_.end()) {
    OneShot join;
    it->second.joiners.push_back(&join);
    co_await join;
    auto done = finished_cache_.find(id);
    co_return done != finished_cache_.end() ? done->second : Decision::kAbort;
  }
  in_flight_[id] = FinishJoin{};

  AttemptResult res;
  for (int attempt = 0; attempt < kMaxPrepareAttempts && !res.resolved; ++attempt) {
    PrepareCtx ctx;
    ctx.body = body;
    for (ShardId shard : body->involved_shards) {
      ctx.shards[shard].tally.shard = shard;
    }
    active_prepares_[id] = &ctx;
    const uint64_t prep_t0 = now();
    res = co_await RunPrepareAttempt(ctx, depth > 0 || attempt > 0);
    tracer_.Record(obs::Stage::kClientPrepare, id, now() - prep_t0);
    CancelCtxTimer(ctx);
    active_prepares_.erase(id);
    if (!res.resolved) {
      counters_.Inc("prepare_retries");
      if (depth < kMaxRecoveryDepth) {
        co_await RecoverDependencies(*body, depth);
      }
    }
  }

  if (res.resolved && res.cert != nullptr) {
    SendWriteback(body, res.cert);
    if (res.fast_path) {
      counters_.Inc("fastpath_decisions");
    } else {
      counters_.Inc("slowpath_decisions");
    }
  } else {
    counters_.Inc("unresolved_transactions");
    res.decision = Decision::kAbort;
  }

  finished_cache_[id] = res.decision;
  FinishJoin join = std::move(in_flight_[id]);
  in_flight_.erase(id);
  for (OneShot* j : join.joiners) {
    j->Fire();
  }
  co_return res.decision;
}

void BasilClient::SendSt1(const PrepareCtx& ctx, bool is_recovery) {
  auto msg = std::make_shared<St1Msg>();
  msg->txn = ctx.body;
  msg->is_recovery = is_recovery;
  ChargeSignIfEnabled();
  const MsgPtr out = msg;
  for (ShardId shard : ctx.body->involved_shards) {
    SendToAll(topo_->ShardReplicas(shard), out);
  }
}

void BasilClient::ArmCtxTimer(PrepareCtx& ctx, uint64_t delay_ns) {
  CancelCtxTimer(ctx);
  ctx.timed_out = false;
  ctx.timer_armed = true;
  PrepareCtx* p = &ctx;
  const TxnDigest id = ctx.body->id;
  ctx.timer = SetTimer(delay_ns, [this, p, id]() {
    auto it = active_prepares_.find(id);
    if (it == active_prepares_.end() || it->second != p) {
      return;  // The attempt this timer belonged to is gone.
    }
    p->timer_armed = false;
    p->timed_out = true;
    p->event.Fire();
  });
}

void BasilClient::CancelCtxTimer(PrepareCtx& ctx) {
  if (ctx.timer_armed) {
    CancelTimer(ctx.timer);
    ctx.timer_armed = false;
  }
}

void BasilClient::EvaluateStage1(PrepareCtx& ctx) {
  const uint32_t n = cfg_->n();
  for (auto& [shard, ss] : ctx.shards) {
    if (ss.complete) {
      continue;
    }
    if (ss.replied.size() >= n) {
      ss.complete = true;
      continue;
    }
    if (ss.replied.size() >= n - cfg_->f && !ss.straggler_armed) {
      // Enough replies for slow-path classification; give stragglers a short window
      // so the fast path isn't lost to ordinary skew.
      ss.straggler_armed = true;
      PrepareCtx* p = &ctx;
      const TxnDigest id = ctx.body->id;
      const ShardId s = shard;
      ss.straggler_timer = SetTimer(cfg_->straggler_window_ns, [this, p, id, s]() {
        auto it = active_prepares_.find(id);
        if (it == active_prepares_.end() || it->second != p) {
          return;
        }
        auto st = p->shards.find(s);
        if (st != p->shards.end() && !st->second.complete) {
          st->second.complete = true;
          p->event.Fire();
        }
      });
    }
  }
}

bool BasilClient::AcksDivergent(const PrepareCtx& ctx) const {
  if (ctx.ack_groups.size() < 2) {
    return false;
  }
  size_t max_group = 0;
  for (const auto& [k, group] : ctx.ack_groups) {
    (void)k;
    max_group = std::max(max_group, group.size());
  }
  const size_t remaining = cfg_->n() - ctx.ack_nodes.size();
  return max_group + remaining < cfg_->st2_quorum();
}

Task<BasilClient::AttemptResult> BasilClient::RunPrepareAttempt(PrepareCtx& ctx,
                                                                bool is_recovery) {
  SendSt1(ctx, is_recovery);
  ArmCtxTimer(ctx, cfg_->prepare_timeout_ns);

  while (true) {
    co_await ctx.event;
    ctx.event.Reset();

    if (ctx.received_cert != nullptr) {
      co_return AttemptResult{true, ctx.received_cert->decision, ctx.received_cert,
                              false};
    }
    // Recovery replies may be Stage-2 acks (replicas that already logged a decision):
    // a full matching quorum finishes the transaction directly, and conflicting acks
    // send us to the divergent-case fallback (§5).
    if (DecisionCertPtr cert = BuildSlowCert(ctx); cert != nullptr) {
      co_return AttemptResult{true, cert->decision, cert, false};
    }
    if (AcksDivergent(ctx) || (ctx.timed_out && !ctx.ack_groups.empty())) {
      counters_.Inc("divergent_detected");
      co_return co_await RunFallback(ctx);
    }

    bool all_classified = true;
    bool all_fast_commit = true;
    bool all_commit = true;
    for (auto& [shard, ss] : ctx.shards) {
      (void)shard;
      const ShardOutcome o = ss.tally.Classify(*cfg_, ss.complete);
      switch (o) {
        case ShardOutcome::kAbortFast:
        case ShardOutcome::kAbortConflict: {
          DecisionCertPtr cert = BuildFastAbortCert(ctx);
          if (cert != nullptr && cfg_->fast_path_enabled) {
            co_return AttemptResult{true, Decision::kAbort, cert, true};
          }
          all_commit = false;
          all_fast_commit = false;
          break;
        }
        case ShardOutcome::kUndecided:
          all_classified = false;
          all_fast_commit = false;
          break;
        case ShardOutcome::kCommitFast:
          break;
        case ShardOutcome::kCommitSlow:
          all_fast_commit = false;
          break;
        case ShardOutcome::kAbortSlow:
          all_fast_commit = false;
          all_commit = false;
          break;
      }
    }

    if (all_classified) {
      if (all_fast_commit && cfg_->fast_path_enabled) {
        // §4.2 case 3 on every shard: decision durable without Stage 2.
        co_return AttemptResult{true, Decision::kCommit, BuildFastCommitCert(ctx),
                                true};
      }
      const Decision decision = all_commit ? Decision::kCommit : Decision::kAbort;
      const uint64_t st2_t0 = now();
      AttemptResult st2_res = co_await RunSt2Phase(ctx, decision);
      tracer_.Record(obs::Stage::kClientSt2, ctx.body->id, now() - st2_t0);
      co_return st2_res;
    }
    if (ctx.timed_out) {
      co_return AttemptResult{};  // Unresolved: caller recovers dependencies.
    }
  }
}

void BasilClient::SendSt2(PrepareCtx& ctx, Decision decision, uint32_t view,
                          const std::vector<NodeId>& targets, bool forced) {
  auto msg = std::make_shared<St2Msg>();
  msg->txn = ctx.body->id;
  msg->decision = decision;
  msg->view = view;
  msg->shard_votes = CollectJustification(ctx, decision);
  msg->txn_body = ctx.body;
  msg->forced = forced;
  ChargeSignIfEnabled();
  const MsgPtr out = msg;
  for (NodeId dst : targets) {
    Send(dst, out);
  }
}

Task<BasilClient::AttemptResult> BasilClient::RunSt2Phase(PrepareCtx& ctx,
                                                          Decision decision) {
  ctx.waiting_acks = true;
  const ShardId log_shard = LogShardOf(*ctx.body);
  const std::vector<NodeId> targets = topo_->ShardReplicas(log_shard);
  SendSt2(ctx, decision, /*view=*/0, targets, /*forced=*/false);
  ArmCtxTimer(ctx, cfg_->prepare_timeout_ns);
  counters_.Inc("st2_rounds");
  int resend_budget = 1;

  while (true) {
    co_await ctx.event;
    ctx.event.Reset();

    if (ctx.received_cert != nullptr) {
      co_return AttemptResult{true, ctx.received_cert->decision, ctx.received_cert,
                              false};
    }
    if (DecisionCertPtr cert = BuildSlowCert(ctx); cert != nullptr) {
      co_return AttemptResult{true, cert->decision, cert, false};
    }

    // Divergence: distinct acks cover enough replicas that no single (decision, view)
    // group can still reach the logging quorum.
    if (AcksDivergent(ctx)) {
      counters_.Inc("divergent_detected");
      co_return co_await RunFallback(ctx);
    }

    if (ctx.timed_out) {
      if (ctx.ack_groups.size() > 1) {
        counters_.Inc("divergent_detected");
        co_return co_await RunFallback(ctx);
      }
      if (resend_budget-- > 0) {
        SendSt2(ctx, decision, 0, targets, false);
        ArmCtxTimer(ctx, cfg_->prepare_timeout_ns);
        continue;
      }
      co_return co_await RunFallback(ctx);
    }
  }
}

std::vector<SignedSt2Ack> BasilClient::CollectedAcks(const PrepareCtx& ctx) const {
  std::vector<SignedSt2Ack> acks;
  for (const auto& [k, group] : ctx.ack_groups) {
    (void)k;
    for (const auto& [node, ack] : group) {
      (void)node;
      acks.push_back(ack);
    }
  }
  return acks;
}

Task<BasilClient::AttemptResult> BasilClient::RunFallback(PrepareCtx& ctx) {
  const ShardId log_shard = LogShardOf(*ctx.body);
  const std::vector<NodeId> targets = topo_->ShardReplicas(log_shard);
  counters_.Inc("fallback_invocations");

  for (int round = 1; round <= kMaxFallbackRounds; ++round) {
    auto msg = std::make_shared<InvokeFbMsg>();
    msg->txn = ctx.body->id;
    msg->views = CollectedAcks(ctx);
    msg->txn_body = ctx.body;
    ChargeSignIfEnabled();
    const MsgPtr out = msg;
    for (NodeId dst : targets) {
      Send(dst, out);
    }
    // Exponential per-view timeout (§5).
    const uint64_t timeout =
        cfg_->fallback_view_timeout_ns << std::min(round - 1, 6);
    ArmCtxTimer(ctx, timeout);

    while (true) {
      co_await ctx.event;
      ctx.event.Reset();
      if (ctx.received_cert != nullptr) {
        co_return AttemptResult{true, ctx.received_cert->decision, ctx.received_cert,
                                false};
      }
      if (DecisionCertPtr cert = BuildSlowCert(ctx); cert != nullptr) {
        counters_.Inc("fallback_resolved");
        co_return AttemptResult{true, cert->decision, cert, false};
      }
      if (ctx.timed_out) {
        break;  // Next round with refreshed view evidence.
      }
    }
  }
  co_return AttemptResult{};
}

Task<void> BasilClient::RecoverDependencies(const Transaction& txn, int depth) {
  for (const Dependency& dep : txn.deps) {
    if (finished_cache_.contains(dep.txn)) {
      continue;
    }
    TxnPtr body;
    if (auto it = dep_bodies_.find(dep.txn); it != dep_bodies_.end()) {
      body = it->second;
    } else {
      body = co_await FetchBody(dep);
    }
    if (body == nullptr) {
      counters_.Inc("dep_body_unavailable");
      continue;
    }
    counters_.Inc("dep_recoveries");
    co_await FinishTransaction(body, depth + 1);
  }
}

Task<TxnPtr> BasilClient::FetchBody(const Dependency& dep) {
  if (pending_fetches_.contains(dep.txn)) {
    co_return nullptr;  // Another fetch in flight; let the caller retry later.
  }
  // Heap-owned and captured by the timer: late timer work must not touch a dead frame.
  auto fc = std::make_shared<FetchCtx>();
  pending_fetches_[dep.txn] = fc.get();
  auto msg = std::make_shared<FetchMsg>();
  msg->digest = dep.txn;
  const MsgPtr out = msg;
  const std::vector<NodeId> replicas = topo_->ShardReplicas(dep.shard);
  for (uint32_t i = 0; i < std::min<uint32_t>(2 * cfg_->f + 1, replicas.size()); ++i) {
    Send(replicas[i], out);
  }
  const EventId timer = SetTimer(cfg_->read_timeout_ns, [fc]() {
    if (!fc->done.fired()) {
      fc->timed_out = true;
      fc->done.Fire();
    }
  });
  co_await fc->done;
  if (!fc->timed_out) {
    CancelTimer(timer);
  }
  pending_fetches_.erase(dep.txn);
  if (fc->body != nullptr) {
    dep_bodies_[dep.txn] = fc->body;
  }
  co_return fc->body;
}

// ---------------------------------------------------------------------------
// Certificate construction.
// ---------------------------------------------------------------------------

DecisionCertPtr BasilClient::BuildFastCommitCert(const PrepareCtx& ctx) const {
  auto cert = std::make_shared<DecisionCert>();
  cert->txn = ctx.body->id;
  cert->decision = Decision::kCommit;
  cert->kind = DecisionCert::Kind::kFastVotes;
  for (const auto& [shard, ss] : ctx.shards) {
    cert->shard_votes[shard] = ss.tally.commit_votes;
  }
  return cert;
}

DecisionCertPtr BasilClient::BuildFastAbortCert(const PrepareCtx& ctx) const {
  // Prefer the conflict proof (case 5): constant size.
  for (const auto& [shard, ss] : ctx.shards) {
    (void)shard;
    if (ss.tally.conflict_cert != nullptr && ss.tally.conflict_txn != nullptr) {
      auto cert = std::make_shared<DecisionCert>();
      cert->txn = ctx.body->id;
      cert->decision = Decision::kAbort;
      cert->kind = DecisionCert::Kind::kConflict;
      cert->conflict_txn = ss.tally.conflict_txn;
      cert->conflict_cert = ss.tally.conflict_cert;
      return cert;
    }
  }
  for (const auto& [shard, ss] : ctx.shards) {
    if (ss.tally.abort_votes.size() >= cfg_->fast_abort_quorum()) {
      auto cert = std::make_shared<DecisionCert>();
      cert->txn = ctx.body->id;
      cert->decision = Decision::kAbort;
      cert->kind = DecisionCert::Kind::kFastVotes;
      cert->shard_votes[shard] = ss.tally.abort_votes;
      return cert;
    }
  }
  return nullptr;
}

DecisionCertPtr BasilClient::BuildSlowCert(const PrepareCtx& ctx) const {
  for (const auto& [key, group] : ctx.ack_groups) {
    if (group.size() < cfg_->st2_quorum()) {
      continue;
    }
    auto cert = std::make_shared<DecisionCert>();
    cert->txn = ctx.body->id;
    cert->decision = static_cast<Decision>(key.first);
    cert->kind = DecisionCert::Kind::kSlowLogged;
    cert->log_shard = LogShardOf(*ctx.body);
    for (const auto& [node, ack] : group) {
      (void)node;
      cert->st2_acks.push_back(ack);
    }
    return cert;
  }
  return nullptr;
}

std::map<ShardId, std::vector<SignedVote>> BasilClient::CollectJustification(
    const PrepareCtx& ctx, Decision decision) const {
  std::map<ShardId, std::vector<SignedVote>> out;
  if (decision == Decision::kCommit) {
    for (const auto& [shard, ss] : ctx.shards) {
      out[shard] = ss.tally.commit_votes;
    }
  } else {
    for (const auto& [shard, ss] : ctx.shards) {
      if (ss.tally.abort_votes.size() >= cfg_->abort_quorum()) {
        out[shard] = ss.tally.abort_votes;
        break;
      }
    }
  }
  return out;
}

void BasilClient::SendWriteback(const TxnPtr& body, const DecisionCertPtr& cert) {
  auto msg = std::make_shared<WritebackMsg>();
  msg->cert = cert;
  msg->txn_body = body;
  const MsgPtr out = msg;
  for (ShardId shard : body->involved_shards) {
    SendToAll(topo_->ShardReplicas(shard), out);
  }
}

// ---------------------------------------------------------------------------
// Byzantine client behaviours (§6.4).
// ---------------------------------------------------------------------------

Task<TxnOutcome> BasilClient::CommitByzantine(TxnPtr body, FaultMode mode) {
  counters_.Inc("byz_transactions");
  if (mode == FaultMode::kStallEarly) {
    // Send ST1 everywhere and walk away: replicas prepare the transaction (its writes
    // become visible) but nobody drives it to a decision.
    PrepareCtx ctx;
    ctx.body = body;
    SendSt1(ctx, false);
    counters_.Inc("byz_stall_early");
    co_return TxnOutcome{false, false};
  }

  // The remaining behaviours need Stage-1 votes first.
  PrepareCtx ctx;
  ctx.body = body;
  for (ShardId shard : body->involved_shards) {
    ctx.shards[shard].tally.shard = shard;
  }
  active_prepares_[body->id] = &ctx;
  SendSt1(ctx, false);
  ArmCtxTimer(ctx, cfg_->prepare_timeout_ns);
  while (true) {
    co_await ctx.event;
    ctx.event.Reset();
    bool all_complete = true;
    for (const auto& [shard, ss] : ctx.shards) {
      (void)shard;
      if (!ss.complete) {
        all_complete = false;
      }
    }
    if (all_complete || ctx.timed_out) {
      break;
    }
  }

  const ShardId log_shard = LogShardOf(*body);
  const std::vector<NodeId> targets = topo_->ShardReplicas(log_shard);

  auto equivocate = [&](bool forced) {
    // Conflicting ST2s to the two halves of S_log, then stall (Figure 3).
    const size_t half = targets.size() / 2;
    std::vector<NodeId> first(targets.begin(), targets.begin() + half);
    std::vector<NodeId> second(targets.begin() + half, targets.end());
    SendSt2(ctx, Decision::kCommit, 0, first, forced);
    SendSt2(ctx, Decision::kAbort, 0, second, forced);
    counters_.Inc("byz_equivocations");
  };

  TxnOutcome outcome{false, false};
  switch (mode) {
    case FaultMode::kStallLate: {
      // Finish Prepare so the decision is durable, but never write back.
      CancelCtxTimer(ctx);
      active_prepares_.erase(body->id);
      counters_.Inc("byz_stall_late");
      break;
    }
    case FaultMode::kEquivForced: {
      equivocate(/*forced=*/true);
      CancelCtxTimer(ctx);
      active_prepares_.erase(body->id);
      break;
    }
    case FaultMode::kEquivReal: {
      // Only equivocate if some shard's votes form both a CommitQuorum and an
      // AbortQuorum (§6.4); otherwise behave correctly.
      bool can_equivocate = false;
      for (const auto& [shard, ss] : ctx.shards) {
        (void)shard;
        if (ss.tally.commit_votes.size() >= cfg_->commit_quorum() &&
            ss.tally.abort_votes.size() >= cfg_->abort_quorum()) {
          can_equivocate = true;
          break;
        }
      }
      if (can_equivocate) {
        equivocate(/*forced=*/false);
        CancelCtxTimer(ctx);
        active_prepares_.erase(body->id);
      } else {
        CancelCtxTimer(ctx);
        active_prepares_.erase(body->id);
        const Decision d = co_await FinishTransaction(body, 0);
        outcome = TxnOutcome{d == Decision::kCommit, d != Decision::kCommit};
      }
      break;
    }
    default:
      break;
  }
  co_return outcome;
}

// ---------------------------------------------------------------------------
// Message handling.
// ---------------------------------------------------------------------------

void BasilClient::Handle(const MsgEnvelope& env) {
  switch (env.msg->kind) {
    case kBasilReadReply:
      OnReadReply(std::static_pointer_cast<const ReadReplyMsg>(env.msg));
      break;
    case kBasilSt1Reply:
      OnSt1Reply(std::static_pointer_cast<const St1ReplyMsg>(env.msg));
      break;
    case kBasilSt2Reply:
      OnSt2Reply(std::static_pointer_cast<const St2ReplyMsg>(env.msg));
      break;
    case kBasilWriteback:
      OnWritebackToClient(static_cast<const WritebackMsg&>(*env.msg));
      break;
    case kBasilFetchReply:
      OnFetchReply(static_cast<const FetchReplyMsg&>(*env.msg));
      break;
    default:
      break;
  }
}

void BasilClient::OnReadReply(std::shared_ptr<const ReadReplyMsg> msg) {
  {
    auto it = pending_reads_.find(msg->req_id);
    if (it == pending_reads_.end() || it->second->from.contains(msg->replica)) {
      return;  // Stale or duplicate: not worth a signature check.
    }
  }
  Verify1(
      [this, msg](CostMeter& m) {
        return verifier_.Verify(msg->Digest(), msg->batch_cert, &m);
      },
      [this, msg](bool ok) {
        if (!ok) {
          counters_.Inc("read_reply_bad_sig");
          return;
        }
        auto it = pending_reads_.find(msg->req_id);
        if (it == pending_reads_.end()) {
          return;  // The read completed while the signature was being checked.
        }
        ReadCollector& rc = *it->second;
        if (rc.from.contains(msg->replica)) {
          return;
        }
        rc.from.insert(msg->replica);
        rc.replies.push_back(msg);
        if (rc.from.size() >= rc.wait_for) {
          rc.done.Fire();
        }
      });
}

void BasilClient::OnSt1Reply(std::shared_ptr<const St1ReplyMsg> msg) {
  {
    auto it = active_prepares_.find(msg->vote.txn);
    if (it == active_prepares_.end() || !topo_->IsReplicaNode(msg->vote.replica)) {
      return;
    }
    const ShardId shard = topo_->ShardOfReplicaNode(msg->vote.replica);
    auto st = it->second->shards.find(shard);
    if (st == it->second->shards.end() ||
        st->second.replied.contains(msg->vote.replica)) {
      return;
    }
  }
  const ShardId shard = topo_->ShardOfReplicaNode(msg->vote.replica);
  Verify1(
      [this, msg](CostMeter& m) {
        return verifier_.Verify(msg->vote.Digest(), msg->vote.cert, &m);
      },
      [this, msg, shard](bool ok) {
        if (!ok) {
          counters_.Inc("st1r_bad_sig");
          return;
        }
        auto it = active_prepares_.find(msg->vote.txn);
        if (it == active_prepares_.end()) {
          return;  // Stage 1 completed while the signature was being checked.
        }
        PrepareCtx& ctx = *it->second;
        auto st = ctx.shards.find(shard);
        if (st == ctx.shards.end()) {
          return;
        }
        ShardState& ss = st->second;
        if (ss.replied.contains(msg->vote.replica)) {
          return;
        }
        ss.replied.insert(msg->vote.replica);
        ss.tally.replies++;
        if (msg->vote.vote == Vote::kCommit) {
          ss.tally.commit_votes.push_back(msg->vote);
          EvaluateStage1(ctx);
          ctx.event.Fire();
          return;
        }
        ss.tally.abort_votes.push_back(msg->vote);
        // Abort fast path case 5: a single valid conflict proof decides the shard.
        // The proof is itself a nested certificate — its validation chains through
        // the crypto pool before this shard's tally is re-evaluated.
        if (msg->conflict_cert == nullptr || msg->conflict_txn == nullptr ||
            ss.tally.conflict_cert != nullptr) {
          EvaluateStage1(ctx);
          ctx.event.Fire();
          return;
        }
        auto probe = std::make_shared<DecisionCert>();
        probe->txn = ctx.body->id;
        probe->decision = Decision::kAbort;
        probe->kind = DecisionCert::Kind::kConflict;
        probe->conflict_txn = msg->conflict_txn;
        probe->conflict_cert = msg->conflict_cert;
        Verify1(
            [this, probe, body = ctx.body](CostMeter& m) {
              return validator_.ValidateDecisionCert(*probe, body.get(), verifier_,
                                                     &m);
            },
            [this, msg, shard](bool proof_ok) {
              auto it = active_prepares_.find(msg->vote.txn);
              if (it == active_prepares_.end()) {
                return;
              }
              PrepareCtx& ctx = *it->second;
              auto st = ctx.shards.find(shard);
              if (st == ctx.shards.end()) {
                return;
              }
              ShardState& ss = st->second;
              if (proof_ok && ss.tally.conflict_cert == nullptr) {
                ss.tally.conflict_txn = msg->conflict_txn;
                ss.tally.conflict_cert = msg->conflict_cert;
              }
              EvaluateStage1(ctx);
              ctx.event.Fire();
            });
      });
}

void BasilClient::OnSt2Reply(std::shared_ptr<const St2ReplyMsg> msg) {
  if (!active_prepares_.contains(msg->ack.txn)) {
    return;
  }
  Verify1(
      [this, msg](CostMeter& m) {
        return verifier_.Verify(msg->ack.Digest(), msg->ack.cert, &m);
      },
      [this, msg](bool ok) {
        if (!ok) {
          counters_.Inc("st2r_bad_sig");
          return;
        }
        auto it = active_prepares_.find(msg->ack.txn);
        if (it == active_prepares_.end()) {
          return;  // Stage 2 completed while the signature was being checked.
        }
        PrepareCtx& ctx = *it->second;
        const ShardId log_shard = LogShardOf(*ctx.body);
        if (!topo_->IsReplicaNode(msg->ack.replica) ||
            topo_->ShardOfReplicaNode(msg->ack.replica) != log_shard) {
          return;
        }
        ctx.ack_nodes.insert(msg->ack.replica);
        ctx.ack_groups[{static_cast<uint8_t>(msg->ack.decision),
                        msg->ack.view_decision}][msg->ack.replica] = msg->ack;
        ctx.event.Fire();
      });
}

void BasilClient::OnWritebackToClient(const WritebackMsg& msg) {
  if (msg.cert == nullptr) {
    return;
  }
  auto it = active_prepares_.find(msg.cert->txn);
  if (it == active_prepares_.end()) {
    return;
  }
  PrepareCtx& ctx = *it->second;
  if (ctx.received_cert != nullptr) {
    return;
  }
  if (!validator_.ValidateDecisionCert(*msg.cert, ctx.body.get(), verifier_,
                                       &meter())) {
    counters_.Inc("client_bad_cert");
    return;
  }
  ctx.received_cert = msg.cert;
  ctx.event.Fire();
}

void BasilClient::OnFetchReply(const FetchReplyMsg& msg) {
  if (msg.txn == nullptr) {
    return;
  }
  auto it = pending_fetches_.find(msg.txn->id);
  if (it == pending_fetches_.end()) {
    return;
  }
  // Self-certifying: recompute the digest and compare.
  meter().ChargeHash(msg.txn->WireSize());
  if (msg.txn->ComputeDigest() != msg.txn->id) {
    counters_.Inc("fetch_bad_body");
    return;
  }
  FetchCtx* fc = it->second;
  fc->body = msg.txn;
  fc->done.Fire();
}

}  // namespace basil
