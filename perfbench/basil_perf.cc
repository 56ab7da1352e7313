// basil_perf: the measuring program of the repository benchmark
// (perfbench/README.md has the workloads, metrics and measured numbers).
//
// Deploys one Basil shard inside this process: 6 replicas (f=1) on real
// TcpRuntimes over localhost TCP, each with a DurableStore on MemMedia, plus one
// session gateway carrying 256 logical sessions over one connection per replica.
// The gateway's event loop runs an open-loop Poisson arrival schedule of
// transactions from the src/workload generators. Latency runs from an arrival's
// scheduled time to its final commit.
//
//   basil_perf --workload NAME --seed N --seconds S --trace 0|1
//              [--warmup-s W] [--setup-reps K]
//
// The measured window of S seconds is cut into kSubWindows equal sub-windows.
// --trace 0 measures all of them with every metrics registry disabled.
// --trace 1 turns the registries on in every other sub-window (untraced, traced,
// untraced, ..., untraced), so a traced run lasts as long as an untraced one. The
// per-layer metrics come from the traced sub-windows: calls into the TxnSession
// are timed here, and each layer's public counters and registries are read at the
// sub-window edges.
//
// Output: a "fingerprint" JSON line, a "generator"/"run" JSON line, then one
// result JSON line with the check verdicts and every metric as
// {"name": {"value": v, "unit": u}}.
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/basil/client.h"
#include "src/basil/messages.h"
#include "src/basil/replica.h"
#include "src/harness/driver.h"
#include "src/net/gateway.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/runtime/task.h"
#include "src/sim/topology.h"
#include "src/store/wal.h"
#include "src/workload/retwis.h"
#include "src/workload/ycsb.h"

#ifndef BASIL_PERF_BUILD_TYPE
#define BASIL_PERF_BUILD_TYPE "unknown"
#endif

namespace basil {
namespace {

using SteadyClock = std::chrono::steady_clock;
// Taken during static initialization: the closest this program gets to its own
// process start without reading /proc at clock-tick resolution.
const SteadyClock::time_point kProcessStart = SteadyClock::now();

constexpr uint32_t kSessions = 256;
constexpr uint32_t kLanes = 1;
constexpr uint32_t kWorkers = 2;  // Strand and crypto pool size of every node.
constexpr uint32_t kWalFsyncEvery = 8;
// A run is invalid when the generator's p99 dispatch lateness exceeds this multiple
// of the p50 commit latency: a stalled generator must not read as a slow system.
// The pump shares the host's cores with six replicas, and healthy runs on a 4-core
// host already show p99 wakeup lateness of up to 0.9x the p50 commit latency, so
// the limit sits above that (perfbench/README.md).
constexpr double kMaxGenLateShare = 1.5;
// The measured window is cut into this many equal sub-windows by arrival time;
// latency figures are the median over them, so one disturbed stretch of a run (a
// burst of timeouts, a noisy neighbour) does not move the result. The count
// is odd so that a traced run's untraced sub-windows (the even ones) and traced
// ones (the odd ones) share a midpoint, and a drift over the run cancels out of
// bench.trace_overhead_pct.
constexpr uint32_t kSubWindows = 9;
// Transactions still unfinished this long after the last arrival fail.
constexpr double kDrainS = 20;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  double rate_tps;
  double byz_session_fraction;  // Share of sessions (and of arrivals) that are Byzantine.
  double byz_txn_fraction;      // Share of a Byzantine session's transactions that stall.
  std::function<std::unique_ptr<Workload>()> make;
};

std::vector<WorkloadSpec> Workloads() {
  return {
      {"retwis_light", 300, 0, 0,
       []() { return std::make_unique<RetwisWorkload>(RetwisConfig{}); }},
      {"ycsb_loaded", 250, 0, 0,
       []() { return std::make_unique<YcsbWorkload>(YcsbConfig{}); }},
      {"ycsb_zipf_byz", 300, 0.3, 1.0,
       []() {
         YcsbConfig cfg;
         cfg.zipfian = true;
         return std::make_unique<YcsbWorkload>(cfg);
       }},
  };
}

// ---------------------------------------------------------------------------
// Deployment.
// ---------------------------------------------------------------------------

// Counts the signed replies a session receives. Read, ST1 and ST2 replies are
// exactly the messages replicas route through their reply batches.
class CountingClient : public BasilClient {
 public:
  using BasilClient::BasilClient;

  void Handle(const MsgEnvelope& env) override {
    const uint16_t kind = env.msg->kind;
    if (kind == kBasilReadReply || kind == kBasilSt1Reply || kind == kBasilSt2Reply) {
      signed_replies.fetch_add(1, std::memory_order_relaxed);
    }
    BasilClient::Handle(env);
  }

  std::atomic<uint64_t> signed_replies{0};
};

// Declared in dependency order, so destruction runs clients -> mux -> gateway ->
// replicas -> replica runtimes -> durable stores, after Stop() joined every thread.
struct Deployment {
  BasilConfig cfg;
  Topology topo;
  Workload* workload = nullptr;
  std::unique_ptr<KeyRegistry> keys;
  std::vector<std::unique_ptr<MemMedia>> media;
  std::vector<std::unique_ptr<DurableStore>> durable;
  std::vector<std::unique_ptr<TcpRuntime>> replica_rts;
  std::vector<std::unique_ptr<BasilReplica>> replicas;
  std::unique_ptr<TcpRuntime> gw_rt;
  std::unique_ptr<SessionMux> mux;
  std::vector<SessionRuntime*> session_rts;
  std::vector<std::unique_ptr<CountingClient>> clients;
  uint32_t port_retries = 0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  void Stop() {
    if (gw_rt != nullptr) {
      gw_rt->Stop();
    }
    for (auto& rt : replica_rts) {
      rt->Stop();
    }
  }

  std::vector<TcpRuntime*> AllRuntimes() const {
    std::vector<TcpRuntime*> out;
    for (const auto& rt : replica_rts) {
      out.push_back(rt.get());
    }
    out.push_back(gw_rt.get());
    return out;
  }

  std::vector<TcpRuntime*> ReplicaRuntimes() const {
    std::vector<TcpRuntime*> out;
    for (const auto& rt : replica_rts) {
      out.push_back(rt.get());
    }
    return out;
  }
};

// Asks the kernel for `n` distinct free ports: all are bound at once, then released.
std::vector<uint16_t> ProbeFreePorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      break;
    }
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) {
    ::close(fd);
  }
  return ports;
}

// Runs `fn` on `rt`'s event loop and waits for it to finish.
void RunOnLoop(TcpRuntime* rt, const std::function<void()>& fn) {
  std::promise<void> done;
  rt->Execute([&fn, &done]() {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

// One bring-up attempt on `ports`. Returns null when a listener could not bind.
std::unique_ptr<Deployment> TryDeploy(Workload* workload,
                                      const std::vector<uint16_t>& ports) {
  auto d = std::make_unique<Deployment>();
  d->cfg.exec_partitions = kWorkers;
  d->cfg.wal_fsync_every = kWalFsyncEvery;
  const uint32_t n = d->cfg.n();
  d->topo.num_shards = 1;
  d->topo.replicas_per_shard = n;
  d->topo.num_clients = 1;  // The gateway is the deployment's only client node.
  d->keys = std::make_unique<KeyRegistry>(n + 1, /*seed=*/4242, /*enabled=*/true);
  d->workload = workload;
  const VersionStore::GenesisFn genesis = workload->GenesisFn();

  std::vector<PeerAddr> peers;
  for (uint32_t i = 0; i <= n; ++i) {
    peers.push_back({"127.0.0.1", ports[i]});
  }
  for (uint32_t i = 0; i < n; ++i) {
    auto rt = std::make_unique<TcpRuntime>(i, peers, kWorkers);
    auto replica =
        std::make_unique<BasilReplica>(rt.get(), &d->cfg, &d->topo, d->keys.get());
    replica->store().SetGenesisFn(genesis);
    d->media.push_back(std::make_unique<MemMedia>());
    d->durable.push_back(std::make_unique<DurableStore>(
        d->media.back().get(), d->cfg.wal_snapshot_every, d->cfg.wal_fsync_every));
    d->durable.back()->Open(&replica->store());
    replica->AttachDurable(d->durable.back().get());
    d->replicas.push_back(std::move(replica));
    d->replica_rts.push_back(std::move(rt));
  }
  GatewayConfig gcfg;
  gcfg.lanes = kLanes;
  d->gw_rt = std::make_unique<TcpRuntime>(/*id=*/n, SessionMux::ExtendPeers(peers, n, kLanes),
                                          kWorkers);
  d->mux = std::make_unique<SessionMux>(d->gw_rt.get(), n, gcfg);
  for (uint32_t s = 0; s < kSessions; ++s) {
    SessionRuntime* srt = d->mux->CreateSession();
    if (srt == nullptr) {
      return nullptr;
    }
    d->session_rts.push_back(srt);
    d->clients.push_back(std::make_unique<CountingClient>(
        srt, /*client_id=*/srt->id(), &d->cfg, &d->topo, d->keys.get(), Rng(7919 + s)));
  }
  for (auto& rt : d->replica_rts) {
    if (!rt->Start()) {
      return nullptr;
    }
  }
  if (!d->gw_rt->Start()) {
    return nullptr;
  }
  return d;
}

// Opens every connection a run uses before the first arrival: each replica sends an
// empty AbortRead (a no-op) to every peer and session 0 sends one to every replica.
// Bring-up is complete once every replica has heard from all of them.
bool WarmConnections(Deployment* d) {
  const uint32_t n = d->cfg.n();
  std::vector<uint64_t> base;
  for (auto& rt : d->replica_rts) {
    base.push_back(rt->messages_received());
  }
  const MsgPtr peer_probe = std::make_shared<AbortReadMsg>();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j) {
        d->replica_rts[i]->Send(j, peer_probe);
      }
    }
  }
  const MsgPtr gw_probe = std::make_shared<AbortReadMsg>();
  RunOnLoop(d->gw_rt.get(), [d, n, &gw_probe]() {
    for (uint32_t j = 0; j < n; ++j) {
      d->session_rts[0]->Send(j, gw_probe);
    }
  });
  const auto deadline = SteadyClock::now() + std::chrono::seconds(10);
  while (SteadyClock::now() < deadline) {
    bool all = true;
    for (uint32_t i = 0; i < n; ++i) {
      all = all && d->replica_rts[i]->messages_received() - base[i] >= n;
    }
    if (all) {
      return true;
    }
    // Polled finely: set-up takes ~10 ms, so a coarse poll would quantize setup_s.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return false;
}

// Bring-up with port robustness: probe the kernel for free ports and retry on a
// bind failure, since a port taken between probe and bind is a host artifact.
std::unique_ptr<Deployment> Deploy(Workload* workload) {
  const uint32_t nodes = BasilConfig{}.n() + 1;
  for (uint32_t attempt = 0; attempt < 8; ++attempt) {
    const std::vector<uint16_t> ports = ProbeFreePorts(nodes);
    if (ports.size() != nodes) {
      continue;
    }
    std::unique_ptr<Deployment> d = TryDeploy(workload, ports);
    if (d == nullptr) {
      continue;
    }
    if (!WarmConnections(d.get())) {
      std::fprintf(stderr, "basil_perf: connections did not come up\n");
      return nullptr;
    }
    d->port_retries = attempt;
    return d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Open-loop engine. Its state is confined to the gateway's event loop.
// ---------------------------------------------------------------------------

enum class Status : uint8_t { kPending, kCommitted, kRolledBack, kStalled, kFailed };

struct Arrival {
  uint64_t sched_ns = 0;
  uint64_t txn_seed = 0;
  int32_t sub = -1;    // Sub-window of the measured window; -1 = warmup.
  bool byz = false;    // Issued by a Byzantine session.
  bool stall = false;  // The Byzantine session stalls this one (kStallEarly).
};

struct TxnRec {
  uint64_t late_ns = 0;      // How late the pump dispatched the arrival.
  uint64_t done_ns = 0;      // Final commit.
  uint64_t in_calls_ns = 0;  // Time inside Get/Commit calls, over all attempts.
  uint32_t attempts = 0;
  uint32_t gets = 0;
  Status status = Status::kPending;
};

// Whether sub-window `sub` of the measured window runs with the registries on.
bool TracedSub(bool trace, int32_t sub) { return trace && sub >= 0 && sub % 2 == 1; }

struct Engine {
  Deployment* d = nullptr;
  TcpRuntime* rt = nullptr;
  bool trace = false;
  DriverConfig retry;  // Backoff and retry budget for system aborts.
  std::vector<Arrival> arrivals;
  std::vector<TxnRec> recs;
  size_t next = 0;
  uint64_t finished = 0;
  uint64_t deadline_ns = 0;       // No retry starts after this.
  std::vector<uint32_t> idle[2];  // [0] correct sessions, [1] Byzantine sessions.
  std::deque<uint32_t> backlog[2];
  Rng jitter{1};
  // Per-call durations (ns) in correct transactions of the traced sub-windows.
  std::vector<uint64_t> get_ns;
  std::vector<uint64_t> commit_ns;
  // Keys written by committed transactions of correct sessions.
  std::vector<Key> committed_keys;
};

// The TxnSession a workload generator runs against: forwards to the client's
// session and adds up the time spent inside each call.
class BenchSession : public TxnSession {
 public:
  BenchSession(TxnSession* inner, Engine* e, uint32_t arrival)
      : inner_(inner), e_(e), arrival_(arrival) {}

  Task<std::optional<Value>> Get(const Key& key) override {
    const uint64_t t0 = e_->rt->now();
    std::optional<Value> v = co_await inner_->Get(key);
    const uint64_t dt = e_->rt->now() - t0;
    TxnRec& r = e_->recs[arrival_];
    r.in_calls_ns += dt;
    r.gets += 1;
    if (Traced()) {
      e_->get_ns.push_back(dt);
    }
    co_return v;
  }

  void Put(const Key& key, Value value) override {
    written_.push_back(key);
    inner_->Put(key, std::move(value));
  }

  Task<TxnOutcome> Commit() override {
    const uint64_t t0 = e_->rt->now();
    const TxnOutcome out = co_await inner_->Commit();
    const uint64_t dt = e_->rt->now() - t0;
    e_->recs[arrival_].in_calls_ns += dt;
    if (Traced()) {
      e_->commit_ns.push_back(dt);
    }
    co_return out;
  }

  Task<void> Abort() override { co_await inner_->Abort(); }

  const std::vector<Key>& written() const { return written_; }

 private:
  bool Traced() const {
    const Arrival& a = e_->arrivals[arrival_];
    return TracedSub(e_->trace, a.sub) && !a.byz;
  }

  TxnSession* inner_;
  Engine* e_;
  uint32_t arrival_;
  std::vector<Key> written_;
};

// Runs arrival `a` on session `s` to its final outcome, retrying system aborts with
// the DriverConfig backoff, then serves the session pool's backlog or goes idle.
Task<void> Drive(Engine* e, uint32_t s, uint32_t a) {
  CountingClient* client = e->d->clients[s].get();
  const int pool = e->arrivals[a].byz ? 1 : 0;
  for (;;) {
    const Arrival& arr = e->arrivals[a];
    TxnRec& rec = e->recs[a];
    int retries = 0;
    for (;;) {
      client->set_fault_mode(arr.stall ? BasilClient::FaultMode::kStallEarly
                                       : BasilClient::FaultMode::kCorrect);
      Rng rng(arr.txn_seed);  // Every attempt issues the same transaction.
      rec.attempts += 1;
      BenchSession session(&client->BeginTxn(), e, a);
      const bool want_commit = co_await e->d->workload->RunTransaction(session, rng);
      if (!want_commit) {
        co_await session.Abort();
        rec.status = Status::kRolledBack;
        break;
      }
      const TxnOutcome out = co_await session.Commit();
      if (arr.stall) {
        rec.status = Status::kStalled;
        break;
      }
      if (out.committed) {
        rec.status = Status::kCommitted;
        rec.done_ns = e->rt->now();
        if (!arr.byz) {
          e->committed_keys.insert(e->committed_keys.end(), session.written().begin(),
                                   session.written().end());
        }
        break;
      }
      if (!out.system_abort || ++retries > e->retry.max_retries ||
          e->rt->now() >= e->deadline_ns) {
        rec.status = Status::kFailed;
        break;
      }
      const uint64_t backoff = std::min(e->retry.backoff_max_ns,
                                        e->retry.backoff_base_ns << std::min(retries, 10));
      co_await SleepNs(*e->d->session_rts[s],
                       backoff / 2 + e->jitter.NextUint(backoff / 2 + 1));
    }
    e->finished += 1;
    if (e->backlog[pool].empty()) {
      e->idle[pool].push_back(s);
      co_return;
    }
    a = e->backlog[pool].front();
    e->backlog[pool].pop_front();
  }
}

void Dispatch(Engine* e, uint32_t a) {
  const int pool = e->arrivals[a].byz ? 1 : 0;
  if (e->idle[pool].empty()) {
    e->backlog[pool].push_back(a);  // The queueing delay stays in its latency.
    return;
  }
  const uint32_t s = e->idle[pool].back();
  e->idle[pool].pop_back();
  Spawn(Drive(e, s, a));
}

// Timer-driven arrival pump: dispatches every arrival that is due, then re-arms.
void Pump(Engine* e) {
  const uint64_t now = e->rt->now();
  while (e->next < e->arrivals.size() && e->arrivals[e->next].sched_ns <= now) {
    const auto a = static_cast<uint32_t>(e->next++);
    e->recs[a].late_ns = now - e->arrivals[a].sched_ns;
    Dispatch(e, a);
  }
  if (e->next < e->arrivals.size()) {
    e->rt->SetTimer(e->arrivals[e->next].sched_ns - now, [e]() { Pump(e); });
  }
}

// Poisson arrivals over [start, start + len): rate * len points at the normalized
// partial sums of that many + 1 exponential gaps. That is a Poisson process
// conditioned on its count, so every seed offers exactly the same load; the
// Byzantine and stalling shares are exact too, shuffled over the window.
void AppendSegment(const WorkloadSpec& spec, uint64_t start_ns, double len_s, Rng* rng,
                   std::vector<Arrival>* out) {
  const auto count = static_cast<size_t>(std::llround(spec.rate_tps * len_s));
  std::vector<double> cum(count + 1);
  double total = 0;
  for (size_t i = 0; i <= count; ++i) {
    total += -std::log(1.0 - rng->NextDouble());
    cum[i] = total;
  }
  // 0 = correct session, 1 = Byzantine session, 2 = Byzantine session that stalls.
  std::vector<uint8_t> kind(count, 0);
  const auto byz = static_cast<size_t>(
      std::llround(static_cast<double>(count) * spec.byz_session_fraction));
  const auto stall =
      static_cast<size_t>(std::llround(static_cast<double>(byz) * spec.byz_txn_fraction));
  for (size_t i = 0; i < byz; ++i) {
    kind[i] = i < stall ? 2 : 1;
  }
  for (size_t i = count; i > 1; --i) {
    std::swap(kind[i - 1], kind[rng->NextUint(i)]);
  }
  for (size_t i = 0; i < count; ++i) {
    Arrival a;
    a.sched_ns = start_ns + static_cast<uint64_t>(len_s * 1e9 * cum[i] / total);
    a.byz = kind[i] != 0;
    a.stall = kind[i] == 2;
    a.txn_seed = rng->Next();
    out->push_back(a);
  }
}

// ---------------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------------

// Nearest-rank quantile, q in [0, 1]; 0 for no samples.
double Quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t k =
      std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

uint64_t CpuNs() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB.
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return line.substr(std::min(line.size(), colon + 2));
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Cumulative figures of the whole deployment at one instant; a window's figures
// are the difference of the snapshots at its two edges.
struct Snapshot {
  uint64_t cpu_ns = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t posted = 0;
  uint64_t verifies = 0;
  uint64_t reconnects = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t envelopes = 0;
  uint64_t signed_replies = 0;
  std::map<std::string, uint64_t> client;   // Correct sessions, summed.
  std::map<std::string, uint64_t> replica;  // Summed over replicas.
};

Snapshot Capture(Deployment* d, uint32_t byz_sessions) {
  Snapshot s;
  s.cpu_ns = CpuNs();
  for (TcpRuntime* rt : d->AllRuntimes()) {
    s.msgs += rt->messages_sent();
    s.bytes += rt->bytes_sent();
    s.posted += rt->posted_tasks();
    s.verifies += rt->offloaded_checks() + rt->inline_checks();
    s.reconnects += rt->reconnects();
    const BufferPool::Stats ps = rt->pool().stats();
    s.pool_hits += ps.hits;
    s.pool_misses += ps.misses;
  }
  RunOnLoop(d->gw_rt.get(),
            [d, &s]() { s.envelopes = d->mux->envelopes_tx() + d->mux->envelopes_rx(); });
  for (uint32_t i = 0; i < d->clients.size(); ++i) {
    s.signed_replies += d->clients[i]->signed_replies.load(std::memory_order_relaxed);
    if (i >= byz_sessions) {
      for (const auto& [k, v] : d->clients[i]->counters().values()) {
        s.client[k] += v;
      }
    }
  }
  for (auto& r : d->replicas) {
    for (const auto& [k, v] : r->counters().values()) {
      s.replica[k] += v;
    }
  }
  return s;
}

uint64_t Get(const std::map<std::string, uint64_t>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

// Adds the growth from snapshot `a` to the later snapshot `b` into `acc`.
void AddGrowth(const Snapshot& a, const Snapshot& b, Snapshot* acc) {
  acc->cpu_ns += b.cpu_ns - a.cpu_ns;
  acc->msgs += b.msgs - a.msgs;
  acc->bytes += b.bytes - a.bytes;
  acc->posted += b.posted - a.posted;
  acc->verifies += b.verifies - a.verifies;
  acc->reconnects += b.reconnects - a.reconnects;
  acc->pool_hits += b.pool_hits - a.pool_hits;
  acc->pool_misses += b.pool_misses - a.pool_misses;
  acc->envelopes += b.envelopes - a.envelopes;
  acc->signed_replies += b.signed_replies - a.signed_replies;
  for (const auto& [k, v] : b.client) {
    acc->client[k] += v - Get(a.client, k);
  }
  for (const auto& [k, v] : b.replica) {
    acc->replica[k] += v - Get(a.replica, k);
  }
}

// Sum of the counters whose name starts with `prefix`.
uint64_t SumWithPrefix(const std::map<std::string, uint64_t>& m, const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [k, v] : m) {
    if (k.rfind(prefix, 0) == 0) {
      sum += v;
    }
  }
  return sum;
}

// Histogram `name` merged across `rts`' registries. Registries record only in the
// traced sub-windows, so this is their distribution.
std::unique_ptr<obs::Histogram> Merged(const std::vector<TcpRuntime*>& rts,
                                       const std::string& name) {
  auto h = std::make_unique<obs::Histogram>();
  for (TcpRuntime* rt : rts) {
    const obs::MetricId id = rt->metrics().Find(name);
    if (const obs::Histogram* src = rt->metrics().histogram(id); src != nullptr) {
      h->MergeFrom(*src);
    }
  }
  return h;
}

// Every replica must hold the same latest committed (non-genesis) version of every
// key, and every key a committed correct transaction wrote must be among them.
// Writebacks land asynchronously, so this polls for up to `timeout_ms`.
std::string CheckReplicaAgreement(Deployment* d, const std::vector<Key>& committed_keys,
                                  int timeout_ms, size_t* keys_checked) {
  using Latest = std::map<Key, std::tuple<Timestamp, Value, TxnDigest>>;
  std::string why;
  const auto deadline = SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  do {
    std::vector<Latest> views;
    for (auto& r : d->replicas) {
      Latest latest;
      for (const VersionStore::KeyChain& chain : r->store().CommittedChains()) {
        if (!chain.versions.empty() && !chain.versions.back().ts.IsZero()) {
          const CommittedVersion& v = chain.versions.back();
          latest.emplace(chain.key, std::make_tuple(v.ts, v.value, v.writer));
        }
      }
      views.push_back(std::move(latest));
    }
    why.clear();
    for (size_t i = 1; i < views.size() && why.empty(); ++i) {
      if (views[i] != views[0]) {
        why = "replica " + std::to_string(i) + " disagrees with replica 0 (" +
              std::to_string(views[i].size()) + " vs " +
              std::to_string(views[0].size()) + " written keys)";
      }
    }
    for (size_t i = 0; i < committed_keys.size() && why.empty(); ++i) {
      if (!views[0].contains(committed_keys[i])) {
        why = "committed key " + committed_keys[i] + " has no committed version";
      }
    }
    *keys_checked = views[0].size();
    if (why.empty()) {
      return why;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  } while (SteadyClock::now() < deadline);
  return why;
}

void SleepUntilNs(const TcpRuntime* rt, uint64_t t_ns) {
  const uint64_t now = rt->now();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

// Outcome tallies of the correct-session arrivals of one or more sub-windows.
struct Tally {
  uint64_t offered = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t attempts = 0;
  uint64_t gets = 0;
  std::vector<uint64_t> lat_ns;
  std::vector<uint64_t> unattributed_ns;

  void Add(const Tally& o) {
    offered += o.offered;
    committed += o.committed;
    failed += o.failed;
    attempts += o.attempts;
    gets += o.gets;
    lat_ns.insert(lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
    unattributed_ns.insert(unattributed_ns.end(), o.unattributed_ns.begin(),
                           o.unattributed_ns.end());
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double warmup_s = 2;
  uint32_t setup_reps = 11;
};

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--workload") {
      opt->workload = v;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--warmup-s") {
      opt->warmup_s = std::strtod(v, nullptr);
    } else if (arg == "--setup-reps") {
      opt->setup_reps = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && opt->seconds > 0 && opt->warmup_s >= 0 && opt->setup_reps > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  const std::vector<WorkloadSpec> specs = Workloads();
  const WorkloadSpec* spec = nullptr;
  if (ParseOptions(argc, argv, &opt)) {
    for (const WorkloadSpec& s : specs) {
      spec = opt.workload == s.name ? &s : spec;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "usage: basil_perf --workload retwis_light|ycsb_loaded|ycsb_zipf_byz "
                 "--seed N --seconds S --trace 0|1 [--warmup-s W] [--setup-reps K]\n");
    return 2;
  }

  // Untraced until a traced sub-window opens: no spans, no queue stamps.
  obs::SetGlobalEnabled(false);

  // Set-up, repeated: each repetition deploys the cluster and opens every
  // connection. The first one is timed from process start and also builds the
  // workload generator, which is the benchmark's input rather than the system's
  // set-up (zeta(10M) alone takes ~0.2 s of pure CPU). The previous repetition's
  // teardown is not timed. Only the last deployment is kept; its set-up ends at the
  // first scheduled arrival.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Deployment> d;
  for (uint32_t rep = 0; rep < opt.setup_reps; ++rep) {
    d.reset();
    const SteadyClock::time_point t0 = rep == 0 ? kProcessStart : SteadyClock::now();
    if (workload == nullptr) {
      workload = spec->make();
    }
    d = Deploy(workload.get());
    if (d == nullptr) {
      std::fprintf(stderr, "basil_perf: deployment failed\n");
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(SteadyClock::now() - t0).count());
  }

  // The arrival pump runs on the gateway loop: give that thread 1 us of timer slack
  // instead of the default 50 us, so arrivals leave on time.
  RunOnLoop(d->gw_rt.get(), []() { ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); });

  Engine e;
  e.d = d.get();
  e.rt = d->gw_rt.get();
  e.jitter = Rng(opt.seed * 7919 + 17);
  const auto byz_sessions =
      static_cast<uint32_t>(std::llround(kSessions * spec->byz_session_fraction));
  for (uint32_t s = kSessions; s-- > 0;) {
    e.idle[s < byz_sessions ? 1 : 0].push_back(s);
  }
  e.trace = opt.trace;
  Rng rng(opt.seed);
  const uint64_t window_ns = static_cast<uint64_t>(opt.seconds * 1e9);
  const uint64_t t_start = e.rt->now() + 1'000'000;
  const uint64_t t_w = t_start + static_cast<uint64_t>(opt.warmup_s * 1e9);
  const uint64_t t_end = t_w + window_ns;
  AppendSegment(*spec, t_start, opt.warmup_s, &rng, &e.arrivals);
  const size_t measured_from = e.arrivals.size();
  AppendSegment(*spec, t_w, opt.seconds, &rng, &e.arrivals);
  for (size_t i = measured_from; i < e.arrivals.size(); ++i) {
    e.arrivals[i].sub = static_cast<int32_t>(std::min<uint64_t>(
        kSubWindows - 1, (e.arrivals[i].sched_ns - t_w) * kSubWindows / window_ns));
  }
  e.recs.resize(e.arrivals.size());
  e.deadline_ns = t_end + static_cast<uint64_t>(kDrainS * 1e9);
  setup_s.back() += static_cast<double>(t_start - std::min(t_start, e.rt->now())) / 1e9;

  Engine* ep = &e;
  e.rt->Execute([ep, t_start]() {
    const uint64_t now = ep->rt->now();
    ep->rt->SetTimer(t_start > now ? t_start - now : 0, [ep]() { Pump(ep); });
  });

  // One snapshot at every sub-window edge; a traced run switches the registries on
  // for the odd sub-windows.
  std::vector<Snapshot> edges;
  for (uint32_t k = 0; k <= kSubWindows; ++k) {
    SleepUntilNs(e.rt, t_w + window_ns * k / kSubWindows);
    obs::SetGlobalEnabled(TracedSub(opt.trace, static_cast<int32_t>(k)) && k < kSubWindows);
    edges.push_back(Capture(d.get(), byz_sessions));
  }

  const size_t total = e.arrivals.size();
  const bool drained = e.rt->WaitUntil(
      [ep, total]() { return ep->next == total && ep->finished == total; },
      static_cast<uint64_t>((kDrainS + 1) * 1e9));
  const double peak_rss_mb = PeakRssMb();

  Tally subs[kSubWindows];
  std::vector<uint64_t> late_ns;
  uint64_t stalled = 0;
  uint64_t park_events = 0;
  uint64_t dropped_sessions = 0;
  std::vector<uint64_t> get_ns;
  std::vector<uint64_t> commit_ns;
  std::vector<Key> committed_keys;
  RunOnLoop(e.rt, [&]() {
    for (size_t i = 0; i < total; ++i) {
      const Arrival& a = e.arrivals[i];
      const TxnRec& r = e.recs[i];
      if (a.sub >= 0 && i < e.next) {
        late_ns.push_back(r.late_ns);
      }
      stalled += r.status == Status::kStalled ? 1 : 0;
      if (a.byz || a.sub < 0) {
        continue;  // Metrics count correct sessions of the measured window only.
      }
      Tally& t = subs[a.sub];
      t.offered += 1;
      t.attempts += r.attempts;
      if (r.status == Status::kCommitted) {
        const uint64_t lat = r.done_ns - a.sched_ns;
        t.committed += 1;
        t.gets += r.gets;
        t.lat_ns.push_back(lat);
        t.unattributed_ns.push_back(lat > r.in_calls_ns ? lat - r.in_calls_ns : 0);
      } else if (r.status != Status::kRolledBack) {
        t.failed += 1;  // Retries exhausted, or unfinished at the drain deadline.
      }
    }
    park_events = e.d->mux->park_events();
    dropped_sessions = e.d->mux->dropped_sessions();
    get_ns = e.get_ns;
    commit_ns = e.commit_ns;
    committed_keys = e.committed_keys;
  });

  // ---- Checks: a failed one fails the run instead of reporting numbers. ----
  std::vector<std::string> errors;
  size_t keys_checked = 0;
  if (std::string why = CheckReplicaAgreement(d.get(), committed_keys, 5000, &keys_checked);
      !why.empty()) {
    errors.push_back("replica agreement: " + why);
  }
  uint64_t decode_failures = 0;
  uint64_t dropped_frames = 0;
  for (TcpRuntime* rt : d->AllRuntimes()) {
    decode_failures += rt->decode_failures();
    dropped_frames += rt->dropped_frames();
  }
  const Snapshot s_end = Capture(d.get(), byz_sessions);
  uint64_t bad_auth = 0;
  for (const auto* m : {&s_end.client, &s_end.replica}) {
    for (const auto& [k, v] : *m) {
      if (k.find("bad_sig") != std::string::npos || k.find("bad_cert") != std::string::npos) {
        bad_auth += v;
      }
    }
  }
  if (decode_failures != 0 || dropped_frames != 0 || dropped_sessions != 0 || bad_auth != 0) {
    errors.push_back("transport/auth failures: decode=" + std::to_string(decode_failures) +
                     " shed_frames=" + std::to_string(dropped_frames) +
                     " dropped_sessions=" + std::to_string(dropped_sessions) +
                     " bad_sig_or_cert=" + std::to_string(bad_auth));
  }
  Tally all;
  for (const Tally& t : subs) {
    all.Add(t);
  }
  if (all.committed == 0) {
    errors.push_back("nothing committed in the measured window");
  }
  // Process CPU per commit in sub-window k, in ms.
  auto sub_cpu_ms = [&edges, &subs](uint32_t k) {
    return static_cast<double>(edges[k + 1].cpu_ns - edges[k].cpu_ns) / 1e6 /
           static_cast<double>(std::max<uint64_t>(subs[k].committed, 1));
  };
  // The median over the measured window's sub-windows of `f(sub-window)`.
  auto sub_median = [](const std::function<double(uint32_t)>& f) {
    std::vector<double> v;
    for (uint32_t k = 0; k < kSubWindows; ++k) {
      v.push_back(f(k));
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double commit_p50_ms =
      sub_median([&subs](uint32_t k) { return Quantile(subs[k].lat_ns, 0.50) / 1e6; });
  const double gen_late_p99_us = Quantile(late_ns, 0.99) / 1e3;
  if (gen_late_p99_us / 1e3 > kMaxGenLateShare * commit_p50_ms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "generator validity: p99 dispatch lateness %.1f us exceeds %.0f%% of "
                  "p50 commit latency %.3f ms",
                  gen_late_p99_us, kMaxGenLateShare * 100, commit_p50_ms);
    errors.push_back(buf);
  }

  // ---- Metrics. ----
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  auto add = [&metrics](const std::string& name, double value, const char* unit) {
    metrics.emplace_back(name, value, unit);
  };
  std::vector<double> setup_sorted = setup_s;
  std::sort(setup_sorted.begin(), setup_sorted.end());

  add("commit_p50_ms", commit_p50_ms, "ms");
  add("commit_p90_ms",
      sub_median([&subs](uint32_t k) { return Quantile(subs[k].lat_ns, 0.90) / 1e6; }), "ms");
  add("goodput_tps", static_cast<double>(all.committed) / opt.seconds, "1/s");
  add("commit_rate",
      static_cast<double>(all.committed) / static_cast<double>(std::max<uint64_t>(all.offered, 1)),
      "ratio");
  // Over the whole window, not a sub-window median: CPU per commit grows through a
  // run as replica state grows, and its run-to-run spread comes from host load
  // shifting whole runs, so the total is the steadier figure.
  add("cpu_ms_per_txn",
      static_cast<double>(edges.back().cpu_ns - edges.front().cpu_ns) / 1e6 /
          static_cast<double>(std::max<uint64_t>(all.committed, 1)),
      "ms");
  add("peak_rss_mb", peak_rss_mb, "MB");
  add("setup_s", setup_sorted[setup_sorted.size() / 2], "s");

  if (opt.trace) {
    // Growth over the traced sub-windows, and the mean CPU per commit of the traced
    // and the untraced ones.
    Tally m2;
    Snapshot tr;
    double cpu_traced = 0;
    double cpu_untraced = 0;
    for (uint32_t k = 0; k < kSubWindows; ++k) {
      if (TracedSub(true, static_cast<int32_t>(k))) {
        m2.Add(subs[k]);
        AddGrowth(edges[k], edges[k + 1], &tr);
        cpu_traced += sub_cpu_ms(k) / (kSubWindows / 2);
      } else {
        cpu_untraced += sub_cpu_ms(k) / (kSubWindows / 2 + 1);
      }
    }
    const double commits2 = static_cast<double>(std::max<uint64_t>(m2.committed, 1));
    const double per_k = 1000.0 / commits2;
    const std::vector<TcpRuntime*> all_rts = d->AllRuntimes();
    const std::vector<TcpRuntime*> reps = d->ReplicaRuntimes();
    auto hist_us = [](const std::unique_ptr<obs::Histogram>& h, double q) {
      return h->Quantile(q) / 1e3;
    };
    auto client_growth = [&tr](const char* k) { return static_cast<double>(Get(tr.client, k)); };
    auto replica_growth = [&tr](const char* k) {
      return static_cast<double>(Get(tr.replica, k));
    };
    const double median_lat = Quantile(m2.lat_ns, 0.50);

    add("bench.gen_late_p99_us", gen_late_p99_us, "us");
    add("bench.commit_p99_ms", Quantile(m2.lat_ns, 0.99) / 1e6, "ms");
    add("bench.unattributed_pct",
        median_lat > 0 ? 100.0 * Quantile(m2.unattributed_ns, 0.50) / median_lat : 0, "%");
    add("bench.trace_overhead_pct", 100.0 * (cpu_traced / cpu_untraced - 1.0), "%");

    add("client.get_p50_us", Quantile(get_ns, 0.50) / 1e3, "us");
    add("client.get_p90_us", Quantile(get_ns, 0.90) / 1e3, "us");
    add("client.commit_p50_us", Quantile(commit_ns, 0.50) / 1e3, "us");
    add("client.commit_p90_us", Quantile(commit_ns, 0.90) / 1e3, "us");
    add("client.gets_per_txn", static_cast<double>(m2.gets) / commits2, "count/txn");
    const double fast = client_growth("fastpath_decisions");
    const double slow = client_growth("slowpath_decisions");
    add("client.fastpath_share", fast + slow > 0 ? fast / (fast + slow) : 0, "ratio");
    add("client.attempts_per_txn",
        static_cast<double>(m2.attempts) /
            static_cast<double>(std::max<uint64_t>(m2.offered, 1)),
        "count/txn");
    add("client.dep_waits_per_ktxn", client_growth("deps_acquired") * per_k, "count/ktxn");
    add("client.fallback_per_ktxn",
        (client_growth("dep_recoveries") + client_growth("fallback_invocations")) * per_k,
        "count/ktxn");

    add("gateway.envelopes_per_txn", static_cast<double>(tr.envelopes) / commits2, "count/txn");
    add("gateway.park_events", static_cast<double>(park_events), "count");

    add("tcp.msgs_per_txn", static_cast<double>(tr.msgs) / commits2, "count/txn");
    add("tcp.wire_bytes_per_txn", static_cast<double>(tr.bytes) / commits2, "B/txn");
    add("tcp.posted_per_txn", static_cast<double>(tr.posted) / commits2, "count/txn");
    add("tcp.verifies_per_txn", static_cast<double>(tr.verifies) / commits2, "count/txn");
    add("tcp.loop_busy_pct", Merged(all_rts, "rt.loop.residency_pct")->Mean(), "%");
    for (const char* q : {"loop", "strand", "crypto"}) {
      const auto h = Merged(all_rts, std::string("rt.") + q + ".queue_wait_ns");
      add(std::string("tcp.") + q + "_wait_p50_us", hist_us(h, 0.50), "us");
      add(std::string("tcp.") + q + "_wait_p99_us", hist_us(h, 0.99), "us");
    }
    add("tcp.dropped_frames", static_cast<double>(dropped_frames), "count");
    add("tcp.decode_failures", static_cast<double>(decode_failures), "count");
    add("tcp.reconnects", static_cast<double>(s_end.reconnects - edges[0].reconnects), "count");

    const double hits = static_cast<double>(tr.pool_hits);
    const double misses = static_cast<double>(tr.pool_misses);
    add("pool.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    add("pool.misses_per_ktxn", misses * per_k, "count/ktxn");

    const double seals = replica_growth("batches_flushed");
    add("replica.batch_fill", seals > 0 ? static_cast<double>(tr.signed_replies) / seals : 0,
        "count/batch");
    add("replica.seals_per_txn", seals / commits2, "count/txn");
    add("replica.st1_to_decision_p50_us",
        hist_us(Merged(reps, "span.st1_to_decision_ns"), 0.50), "us");
    const auto vote = Merged(reps, "span.vote_ns");
    add("replica.vote_p50_us", hist_us(vote, 0.50), "us");
    add("replica.vote_p99_us", hist_us(vote, 0.99), "us");
    add("replica.abort_votes_per_ktxn",
        static_cast<double>(SumWithPrefix(tr.replica, "abort_")) * per_k,
        "count/ktxn");
    add("replica.fb_invocations_per_ktxn", replica_growth("fb_invocations") * per_k,
        "count/ktxn");

    add("crypto.seal_p50_us", hist_us(Merged(reps, "span.batch_seal_ns"), 0.50), "us");
    add("crypto.wb_verify_p50_us", hist_us(Merged(reps, "span.wb_cert_verify_ns"), 0.50),
        "us");
    add("crypto.st2_verify_p50_us", hist_us(Merged(reps, "span.st2_cert_verify_ns"), 0.50),
        "us");

    add("store.wb_apply_p50_us", hist_us(Merged(reps, "span.wb_apply_ns"), 0.50), "us");
    add("store.wal_append_p50_us", hist_us(Merged(reps, "wal.append_ns"), 0.50), "us");
    const auto fsync = Merged(reps, "wal.fsync_ns");
    add("store.wal_fsync_p50_us", hist_us(fsync, 0.50), "us");
    add("store.fsyncs_per_ktxn", static_cast<double>(fsync->Count()) * per_k, "count/ktxn");
  }

  // ---- Output. ----
  std::string fp = "{\"fingerprint\": {";
  auto field = [&fp](const std::string& k, const std::string& v, bool first = false) {
    fp += (first ? "" : ", ") + JsonString(k) + ": " + v;
  };
  field("workload", JsonString(spec->name), true);
  field("seed", std::to_string(opt.seed));
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("cpu_model", JsonString(CpuModel()));
  field("build_type", JsonString(BASIL_PERF_BUILD_TYPE));
  field("replicas", std::to_string(d->cfg.n()));
  field("f", std::to_string(d->cfg.f));
  field("workers", std::to_string(kWorkers));
  field("exec_partitions", std::to_string(d->cfg.exec_partitions));
  field("sessions", std::to_string(kSessions));
  field("lanes", std::to_string(kLanes));
  field("rate_tps", JsonNumber(spec->rate_tps));
  field("arrivals", JsonString("poisson, count fixed per window"));
  field("byz_session_fraction", JsonNumber(spec->byz_session_fraction));
  field("byz_txn_fraction", JsonNumber(spec->byz_txn_fraction));
  field("byz_mode", JsonString(spec->byz_session_fraction > 0 ? "stall_early" : "none"));
  field("wal", JsonString("MemMedia, fsync_every=" + std::to_string(d->cfg.wal_fsync_every) +
                          ", snapshot_every=" + std::to_string(d->cfg.wal_snapshot_every)));
  field("batch_size", std::to_string(d->cfg.batch_size));
  field("batch_timeout_ns", std::to_string(d->cfg.batch_timeout_ns));
  field("window_s", JsonNumber(opt.seconds));
  field("sub_windows", std::to_string(kSubWindows));
  field("traced_sub_windows", JsonString(opt.trace ? "odd" : "none"));
  field("warmup_s", JsonNumber(opt.warmup_s));
  field("drain_s", JsonNumber(kDrainS));
  field("port_retries", std::to_string(d->port_retries));
  std::string reps = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    reps += (i > 0 ? ", " : "") + JsonNumber(setup_s[i]);
  }
  field("setup_reps_s", reps + "]");
  fp += "}}";
  std::printf("%s\n", fp.c_str());

  // One figure per sub-window, as a JSON array.
  auto per_sub = [](const std::function<double(uint32_t)>& f) {
    std::string out = "[";
    for (uint32_t k = 0; k < kSubWindows; ++k) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.3f", k > 0 ? ", " : "", f(k));
      out += buf;
    }
    return out + "]";
  };
  const std::string sub_p90 =
      per_sub([&subs](uint32_t k) { return Quantile(subs[k].lat_ns, 0.9) / 1e6; });
  const std::string sub_cpu = per_sub(sub_cpu_ms);
  char gen[1024];
  std::snprintf(gen, sizeof(gen),
                "{\"generator\": {\"late_p50_us\": %.3f, \"late_p99_us\": %.3f, "
                "\"late_max_us\": %.3f, \"dispatched\": %zu, \"limit_share_of_p50\": %.2f}, "
                "\"run\": {\"offered\": %llu, \"committed\": %llu, \"failed\": %llu, "
                "\"stalled_byz\": %llu, \"latency_samples\": %zu, \"drained\": %s, "
                "\"keys_checked\": %zu, \"sub_window_p90_ms\": %s, "
                "\"sub_window_cpu_ms_per_txn\": %s}}",
                Quantile(late_ns, 0.50) / 1e3, gen_late_p99_us, Quantile(late_ns, 1.0) / 1e3,
                late_ns.size(), kMaxGenLateShare,
                static_cast<unsigned long long>(all.offered),
                static_cast<unsigned long long>(all.committed),
                static_cast<unsigned long long>(all.failed),
                static_cast<unsigned long long>(stalled), all.lat_ns.size(),
                drained ? "true" : "false", keys_checked, sub_p90.c_str(), sub_cpu.c_str());
  std::printf("%s\n", gen);

  std::string out = "{\"correct\": ";
  out += errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(all.offered);
  out += ", \"failed\": " + std::to_string(all.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(errors[i]);
    std::fprintf(stderr, "FAIL: %s\n", errors[i].c_str());
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    out += (i > 0 ? ", " : "") + JsonString(name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);

  d->Stop();
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace basil

int main(int argc, char** argv) { return basil::Main(argc, argv); }
