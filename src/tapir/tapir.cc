#include "src/tapir/tapir.h"

#include <algorithm>

#include "src/sim/codec_util.h"

namespace basil {

// ---------------------------------------------------------------------------
// Message codecs.
// ---------------------------------------------------------------------------

void TapirReadMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(req_id);
  enc.PutString(key);
  enc.PutTimestamp(ts);
}

TapirReadMsg TapirReadMsg::DecodeFrom(Decoder& dec) {
  TapirReadMsg msg;
  msg.req_id = dec.GetU64();
  msg.key = dec.GetString();
  msg.ts = dec.GetTimestamp();
  return msg;
}

void TapirReadReplyMsg::EncodeTo(Encoder& enc) const {
  enc.PutU64(req_id);
  enc.PutBool(found);
  if (found) {
    enc.PutTimestamp(version);
    enc.PutString(value);
  }
}

TapirReadReplyMsg TapirReadReplyMsg::DecodeFrom(Decoder& dec) {
  TapirReadReplyMsg msg;
  msg.req_id = dec.GetU64();
  msg.found = dec.GetBool();
  if (msg.found) {
    msg.version = dec.GetTimestamp();
    msg.value = dec.GetString();
  }
  return msg;
}

void TapirPrepareMsg::EncodeTo(Encoder& enc) const { EncodeOptionalTxn(enc, txn); }

TapirPrepareMsg TapirPrepareMsg::DecodeFrom(Decoder& dec) {
  TapirPrepareMsg msg;
  msg.txn = DecodeOptionalTxn(dec, &msg.txn_raw);
  return msg;
}

void TapirPrepareReplyMsg::EncodeTo(Encoder& enc) const {
  enc.PutDigest(txn);
  enc.PutU32(replica);
  enc.PutU8(static_cast<uint8_t>(vote));
}

TapirPrepareReplyMsg TapirPrepareReplyMsg::DecodeFrom(Decoder& dec) {
  TapirPrepareReplyMsg msg;
  msg.txn = dec.GetDigest();
  msg.replica = dec.GetU32();
  msg.vote = GetVote(dec);
  return msg;
}

void TapirFinalizeMsg::EncodeTo(Encoder& enc) const {
  enc.PutDigest(txn);
  enc.PutU8(static_cast<uint8_t>(result));
}

TapirFinalizeMsg TapirFinalizeMsg::DecodeFrom(Decoder& dec) {
  TapirFinalizeMsg msg;
  msg.txn = dec.GetDigest();
  msg.result = GetVote(dec);
  return msg;
}

void TapirFinalizeAckMsg::EncodeTo(Encoder& enc) const {
  enc.PutDigest(txn);
  enc.PutU32(replica);
}

TapirFinalizeAckMsg TapirFinalizeAckMsg::DecodeFrom(Decoder& dec) {
  TapirFinalizeAckMsg msg;
  msg.txn = dec.GetDigest();
  msg.replica = dec.GetU32();
  return msg;
}

void TapirDecideMsg::EncodeTo(Encoder& enc) const {
  enc.PutDigest(txn);
  enc.PutU8(static_cast<uint8_t>(decision));
  EncodeOptionalTxn(enc, txn_body);
}

TapirDecideMsg TapirDecideMsg::DecodeFrom(Decoder& dec) {
  TapirDecideMsg msg;
  msg.txn = dec.GetDigest();
  msg.decision = GetDecision(dec);
  msg.txn_body = DecodeOptionalTxn(dec);
  return msg;
}

namespace {

[[maybe_unused]] const bool kTapirCodecsRegistered = [] {
  RegisterMsgCodecFor<TapirReadMsg>(kTapirRead);
  RegisterMsgCodecFor<TapirReadReplyMsg>(kTapirReadReply);
  RegisterMsgCodecFor<TapirPrepareMsg>(kTapirPrepare);
  RegisterMsgCodecFor<TapirPrepareReplyMsg>(kTapirPrepareReply);
  RegisterMsgCodecFor<TapirFinalizeMsg>(kTapirFinalize);
  RegisterMsgCodecFor<TapirFinalizeAckMsg>(kTapirFinalizeAck);
  RegisterMsgCodecFor<TapirDecideMsg>(kTapirDecide);
  return true;
}();

}  // namespace

// ---------------------------------------------------------------------------
// Replica.
// ---------------------------------------------------------------------------

TapirReplica::TapirReplica(Runtime* rt, const TapirConfig* cfg, const Topology* topo)
    : Process(rt), cfg_(cfg), topo_(topo), tracer_(&rt->metrics()) {
  const uint32_t n_parts = std::max<uint32_t>(1, cfg->exec_partitions);
  parts_.resize(n_parts);
  store_.SetPartitions(n_parts);  // Key partitions line up with execution strands.
}

void TapirReplica::Handle(const MsgEnvelope& env) {
  switch (env.msg->kind) {
    case kTapirRead:
      OnRead(env.src, std::static_pointer_cast<const TapirReadMsg>(env.msg));
      break;
    case kTapirPrepare:
      OnPrepare(env.src, std::static_pointer_cast<const TapirPrepareMsg>(env.msg));
      break;
    case kTapirFinalize:
      OnFinalize(env.src, std::static_pointer_cast<const TapirFinalizeMsg>(env.msg));
      break;
    case kTapirDecide:
      OnDecide(std::static_pointer_cast<const TapirDecideMsg>(env.msg));
      break;
    default:
      break;
  }
}

void TapirReplica::RunOnPart(size_t part, std::function<void()> fn) {
  Post(static_cast<StrandKey>(part), [fn = std::move(fn)](CostMeter&) { fn(); });
}

void TapirReplica::OnRead(NodeId src, std::shared_ptr<const TapirReadMsg> msg) {
  RunOnPart(store_.PartitionOf(msg->key), [this, src, msg]() {
    auto reply = std::make_shared<TapirReadReplyMsg>();
    reply->req_id = msg->req_id;
    if (std::optional<CommittedVersion> v = store_.CommittedBefore(msg->key, msg->ts);
        v.has_value()) {
      reply->found = true;
      reply->version = v->ts;
      reply->value = std::move(v->value);
    }
    Send(src, std::move(reply));
    counters_.Inc("reads_served");
  });
}

Vote TapirReplica::OccCheck(const Transaction& txn) {
  // TAPIR's prepare-time OCC validation against committed and prepared state; each
  // shard validates its own partition only.
  for (const ReadEntry& r : txn.read_set) {
    if (!OwnsKey(r.key)) {
      continue;
    }
    if (store_.HasCommittedWriteBetween(r.key, r.version, txn.ts) ||
        store_.HasPreparedWriteBetween(r.key, r.version, txn.ts)) {
      return Vote::kAbort;
    }
  }
  for (const WriteEntry& w : txn.write_set) {
    if (OwnsKey(w.key) && store_.ReaderWouldMissWrite(w.key, txn.ts)) {
      return Vote::kAbort;
    }
  }
  return Vote::kCommit;
}

// Body-digest check with the zero-copy fast path (see BasilReplica's St1 twin):
// hash the frame's signed wire bytes in place when the message carries them,
// re-encode via ComputeDigest otherwise. Identical boolean either way.
static bool PrepareBodyDigestOk(const TapirPrepareMsg& msg) {
  if (!msg.txn_raw.empty()) {
    return TxnDigestOfSignedBytes(msg.txn_raw.data, msg.txn_raw.len) == msg.txn->id;
  }
  return msg.txn->ComputeDigest() == msg.txn->id;
}

void TapirReplica::OnPrepare(NodeId src, std::shared_ptr<const TapirPrepareMsg> msg) {
  if (msg->txn == nullptr) {
    return;
  }
  // Hash check and the full intake run on the owning strand — one hop, end-to-end.
  RunOnPart(PartOfDigest(msg->txn->id), [this, src, msg]() {
    // Duration is 0 on the simulator (virtual time does not advance inside a work
    // item); now() is thread-safe on both backends.
    const uint64_t t0 = now();
    if (!PrepareBodyDigestOk(*msg)) {
      counters_.Inc("prepare_bad_digest");
      return;
    }
    tracer_.Record(obs::Stage::kSt1DigestCheck, msg->txn->id, now() - t0);
    PrepareArrived(src, msg);
  });
}

void TapirReplica::PrepareArrived(NodeId src,
                                  const std::shared_ptr<const TapirPrepareMsg>& msg) {
  TxnState& s = GetState(msg->txn->id);
  if (s.txn == nullptr) {
    s.txn = msg->txn;
  }
  if (!s.vote.has_value()) {
    const Vote v = OccCheck(*msg->txn);
    s.vote = v;
    if (v == Vote::kCommit) {
      for (const WriteEntry& w : msg->txn->write_set) {
        if (OwnsKey(w.key)) {
          store_.AddPreparedWrite(w.key, msg->txn->ts, w.value, msg->txn->id);
        }
      }
      for (const ReadEntry& r : msg->txn->read_set) {
        if (OwnsKey(r.key)) {
          store_.AddReader(r.key, msg->txn->ts, r.version);
        }
      }
      s.prepared = true;
    }
    counters_.Inc(v == Vote::kCommit ? "votes_commit" : "votes_abort");
  }
  auto reply = std::make_shared<TapirPrepareReplyMsg>();
  reply->txn = msg->txn->id;
  reply->replica = id();
  reply->vote = *s.vote;
  Send(src, std::move(reply));
}

void TapirReplica::OnFinalize(NodeId src, std::shared_ptr<const TapirFinalizeMsg> msg) {
  RunOnPart(PartOfDigest(msg->txn), [this, src, msg]() {
    TxnState& s = GetState(msg->txn);
    s.finalized = msg->result;
    auto ack = std::make_shared<TapirFinalizeAckMsg>();
    ack->txn = msg->txn;
    ack->replica = id();
    Send(src, std::move(ack));
  });
}

void TapirReplica::OnDecide(std::shared_ptr<const TapirDecideMsg> msg) {
  RunOnPart(PartOfDigest(msg->txn), [this, msg]() { DecideOnOwner(*msg); });
}

void TapirReplica::DecideOnOwner(const TapirDecideMsg& msg) {
  TxnState& s = GetState(msg.txn);
  if (s.decided) {
    return;
  }
  if (s.txn == nullptr) {
    s.txn = msg.txn_body;
  }
  s.decided = true;
  if (s.txn == nullptr) {
    return;
  }
  const Transaction& txn = *s.txn;
  if (msg.decision == Decision::kCommit) {
    const bool had_readers = s.prepared;
    for (const WriteEntry& w : txn.write_set) {
      if (!OwnsKey(w.key)) {
        continue;
      }
      if (s.prepared) {
        store_.RemovePreparedWrite(w.key, txn.ts);
      }
      store_.ApplyCommittedWrite(w.key, txn.ts, w.value, txn.id);
    }
    if (!had_readers) {
      for (const ReadEntry& r : txn.read_set) {
        if (OwnsKey(r.key)) {
          store_.AddReader(r.key, txn.ts, r.version);
        }
      }
    }
    s.prepared = false;
    counters_.Inc("committed");
  } else {
    if (s.prepared) {
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
    counters_.Inc("aborted");
  }
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

TapirClient::TapirClient(Runtime* rt, ClientId client_id, const TapirConfig* cfg,
                         const Topology* topo, Rng rng)
    : Process(rt), cfg_(cfg), topo_(topo), client_id_(client_id), rng_(rng) {}

TxnSession& TapirClient::BeginTxn() {
  active_.emplace();
  active_->ts = Timestamp{now(), client_id_};
  return *this;
}

void TapirClient::Put(const Key& key, Value value) {
  if (active_.has_value()) {
    active_->write_lookup[key] = std::move(value);
  }
}

Task<std::optional<Value>> TapirClient::Get(const Key& key) {
  if (!active_.has_value() || active_->failed) {
    co_return std::nullopt;
  }
  if (auto it = active_->write_lookup.find(key); it != active_->write_lookup.end()) {
    co_return it->second;
  }
  if (auto it = active_->read_cache.find(key); it != active_->read_cache.end()) {
    co_return it->second;
  }
  const ShardId shard = ShardOfKey(key, cfg_->num_shards);
  const std::vector<NodeId> replicas = topo_->ShardReplicas(shard);

  auto rc = std::make_shared<ReadCtx>();
  const uint64_t req = next_req_++;
  pending_reads_[req] = rc;

  auto msg = std::make_shared<TapirReadMsg>();
  msg->req_id = req;
  msg->key = key;
  msg->ts = active_->ts;
  // TAPIR reads from a single (closest) replica; we model "closest" as random.
  Send(replicas[rng_.NextUint(replicas.size())], std::move(msg));

  const EventId timer = SetTimer(cfg_->prepare_timeout_ns, [rc]() {
    if (!rc->done.fired()) {
      rc->timed_out = true;
      rc->done.Fire();
    }
  });
  co_await rc->done;
  if (!rc->timed_out) {
    Process::CancelTimer(timer);
  }
  pending_reads_.erase(req);

  if (rc->reply == nullptr) {
    if (active_.has_value()) {
      active_->failed = true;
    }
    co_return std::nullopt;
  }
  if (!active_.has_value()) {
    co_return std::nullopt;
  }
  const Timestamp version = rc->reply->found ? rc->reply->version : Timestamp{};
  active_->read_set.push_back(ReadEntry{key, version});
  active_->read_cache[key] = rc->reply->value;
  if (!rc->reply->found) {
    co_return std::nullopt;
  }
  co_return rc->reply->value;
}

Task<void> TapirClient::Abort() {
  active_.reset();
  co_return;
}

Task<TxnOutcome> TapirClient::Commit() {
  if (!active_.has_value()) {
    co_return TxnOutcome{false, false};
  }
  if (active_->failed) {
    active_.reset();
    co_return TxnOutcome{false, true};
  }
  auto txn = std::make_shared<Transaction>();
  txn->ts = active_->ts;
  txn->client = client_id_;
  txn->read_set = std::move(active_->read_set);
  for (auto& [key, value] : active_->write_lookup) {
    txn->write_set.push_back(WriteEntry{key, value});
  }
  txn->Finalize(cfg_->num_shards);
  active_.reset();
  if (txn->read_set.empty() && txn->write_set.empty()) {
    co_return TxnOutcome{true, false};
  }
  const Decision d = co_await RunCommit(std::move(txn));
  counters_.Inc(d == Decision::kCommit ? "commits" : "system_aborts");
  co_return TxnOutcome{d == Decision::kCommit, d != Decision::kCommit};
}

void TapirClient::ArmTimer(PrepareCtx& ctx, uint64_t delay) {
  CancelTimer(ctx);
  ctx.timed_out = false;
  ctx.timer_armed = true;
  // Re-validate at fire time: timer work may outlive this prepare attempt in the
  // node's CPU queue even after cancellation.
  PrepareCtx* p = &ctx;
  const TxnDigest id = ctx.body->id;
  ctx.timer = SetTimer(delay, [this, p, id]() {
    auto it = pending_prepares_.find(id);
    if (it == pending_prepares_.end() || it->second != p) {
      return;
    }
    p->timer_armed = false;
    p->timed_out = true;
    p->event.Fire();
  });
}

void TapirClient::CancelTimer(PrepareCtx& ctx) {
  if (ctx.timer_armed) {
    Process::CancelTimer(ctx.timer);
    ctx.timer_armed = false;
  }
}

Task<Decision> TapirClient::RunCommit(TxnPtr body) {
  PrepareCtx ctx;
  ctx.body = body;
  pending_prepares_[body->id] = &ctx;

  auto prep = std::make_shared<TapirPrepareMsg>();
  prep->txn = body;
  const MsgPtr out = prep;
  for (ShardId shard : body->involved_shards) {
    SendToAll(topo_->ShardReplicas(shard), out);
  }
  ArmTimer(ctx, cfg_->prepare_timeout_ns);

  const uint32_t n = cfg_->n();
  Decision decision = Decision::kCommit;
  bool need_finalize = false;
  std::map<ShardId, Vote> shard_result;

  while (true) {
    co_await ctx.event;
    ctx.event.Reset();
    bool all_shards_done = true;
    need_finalize = false;
    shard_result.clear();
    for (ShardId shard : body->involved_shards) {
      const auto& votes = ctx.votes[shard];
      uint32_t commit = 0;
      uint32_t abort = 0;
      for (const auto& [node, v] : votes) {
        (void)node;
        (v == Vote::kCommit ? commit : abort)++;
      }
      if (commit + abort >= n) {
        // All replied: fast path if unanimous, else slow path consensus result.
        if (commit == n) {
          shard_result[shard] = Vote::kCommit;
        } else if (abort == n) {
          shard_result[shard] = Vote::kAbort;
        } else {
          shard_result[shard] = abort > 0 ? Vote::kAbort : Vote::kCommit;
          need_finalize = true;
        }
      } else if (abort >= cfg_->slow_quorum()) {
        shard_result[shard] = Vote::kAbort;
        need_finalize = true;
      } else if (ctx.timed_out && commit >= cfg_->slow_quorum()) {
        shard_result[shard] = Vote::kCommit;
        need_finalize = true;
      } else {
        all_shards_done = false;
      }
    }
    if (all_shards_done) {
      break;
    }
    if (ctx.timed_out) {
      // Could not assemble even slow quorums: abort conservatively.
      pending_prepares_.erase(body->id);
      CancelTimer(ctx);
      co_return Decision::kAbort;
    }
  }
  CancelTimer(ctx);

  for (const auto& [shard, v] : shard_result) {
    (void)shard;
    if (v != Vote::kCommit) {
      decision = Decision::kAbort;
    }
  }

  if (need_finalize) {
    // IR slow path: persist the consensus result on f+1 replicas of each shard.
    counters_.Inc("slow_paths");
    ctx.waiting_finalize = true;
    for (ShardId shard : body->involved_shards) {
      auto fin = std::make_shared<TapirFinalizeMsg>();
      fin->txn = body->id;
      fin->result = shard_result[shard];
      const MsgPtr fout = fin;
      SendToAll(topo_->ShardReplicas(shard), fout);
    }
    ArmTimer(ctx, cfg_->prepare_timeout_ns);
    while (true) {
      co_await ctx.event;
      ctx.event.Reset();
      bool acked = true;
      for (ShardId shard : body->involved_shards) {
        if (ctx.finalize_acks[shard].size() < cfg_->slow_quorum()) {
          acked = false;
        }
      }
      if (acked || ctx.timed_out) {
        break;
      }
    }
    CancelTimer(ctx);
  } else {
    counters_.Inc("fast_paths");
  }
  pending_prepares_.erase(body->id);

  auto dec = std::make_shared<TapirDecideMsg>();
  dec->txn = body->id;
  dec->decision = decision;
  dec->txn_body = body;
  const MsgPtr dout = dec;
  for (ShardId shard : body->involved_shards) {
    SendToAll(topo_->ShardReplicas(shard), dout);
  }
  co_return decision;
}

void TapirClient::Handle(const MsgEnvelope& env) {
  switch (env.msg->kind) {
    case kTapirReadReply: {
      auto msg = std::static_pointer_cast<const TapirReadReplyMsg>(env.msg);
      auto it = pending_reads_.find(msg->req_id);
      if (it != pending_reads_.end()) {
        it->second->reply = msg;
        it->second->done.Fire();
      }
      break;
    }
    case kTapirPrepareReply: {
      const auto& msg = static_cast<const TapirPrepareReplyMsg&>(*env.msg);
      auto it = pending_prepares_.find(msg.txn);
      if (it != pending_prepares_.end()) {
        const ShardId shard = topo_->ShardOfReplicaNode(msg.replica);
        it->second->votes[shard][msg.replica] = msg.vote;
        it->second->event.Fire();
      }
      break;
    }
    case kTapirFinalizeAck: {
      const auto& msg = static_cast<const TapirFinalizeAckMsg&>(*env.msg);
      auto it = pending_prepares_.find(msg.txn);
      if (it != pending_prepares_.end() && it->second->waiting_finalize) {
        const ShardId shard = topo_->ShardOfReplicaNode(msg.replica);
        it->second->finalize_acks[shard].insert(msg.replica);
        it->second->event.Fire();
      }
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Cluster.
// ---------------------------------------------------------------------------

TapirCluster::TapirCluster(const TapirClusterConfig& cfg) : cfg_(cfg) {
  topology_.num_shards = cfg_.tapir.num_shards;
  topology_.replicas_per_shard = cfg_.tapir.n();
  topology_.num_clients = cfg_.num_clients;

  Rng rng(cfg_.sim.seed);
  network_ = std::make_unique<Network>(&events_, cfg_.sim.net, rng.Fork());
  for (ShardId shard = 0; shard < topology_.num_shards; ++shard) {
    for (ReplicaId r = 0; r < topology_.replicas_per_shard; ++r) {
      nodes_.push_back(std::make_unique<Node>(network_.get(),
                                              topology_.ReplicaNode(shard, r),
                                              &cfg_.sim.cost,
                                              cfg_.sim.replica_workers));
      network_->Register(nodes_.back().get());
      replicas_.push_back(std::make_unique<TapirReplica>(nodes_.back().get(),
                                                         &cfg_.tapir, &topology_));
    }
  }
  for (uint32_t c = 0; c < cfg_.num_clients; ++c) {
    nodes_.push_back(std::make_unique<Node>(network_.get(), topology_.ClientNode(c),
                                            &cfg_.sim.cost, /*workers=*/1));
    network_->Register(nodes_.back().get());
    clients_.push_back(std::make_unique<TapirClient>(nodes_.back().get(), c + 1,
                                                     &cfg_.tapir, &topology_,
                                                     rng.Fork()));
  }
}

void TapirCluster::Load(const Key& key, const Value& value) {
  const ShardId shard = ShardOfKey(key, topology_.num_shards);
  for (ReplicaId r = 0; r < topology_.replicas_per_shard; ++r) {
    replicas_[topology_.ReplicaNode(shard, r)]->store().LoadGenesis(key, value);
  }
}

void TapirCluster::SetGenesisFn(VersionStore::GenesisFn fn) {
  for (auto& r : replicas_) {
    r->store().SetGenesisFn(fn);
  }
}

Counters TapirCluster::ReplicaCounters() const {
  Counters out;
  for (const auto& r : replicas_) {
    out.Merge(r->counters());
  }
  return out;
}

Counters TapirCluster::ClientCounters() const {
  Counters out;
  for (const auto& c : clients_) {
    out.Merge(c->counters());
  }
  return out;
}

}  // namespace basil
