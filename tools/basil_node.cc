// basil_node: one Basil node as one OS process, speaking canonical frames over TCP.
//
//   basil_node --config cluster.cfg --id 0                 # replica (runs until
//                                                          # SIGTERM/SIGINT)
//   basil_node --config cluster.cfg --id 0 --data-dir d    # replica with a durable
//                                                          # WAL + snapshot store and
//                                                          # peer state transfer at
//                                                          # startup (docs/RECOVERY.md)
//   basil_node --config cluster.cfg --id 6 --txns 1000     # client driver: runs
//                                                          # read-modify-write
//                                                          # transactions, then exits
//
// Every process reads the same config file (src/net/peer_config.h) and derives the
// same topology and key registry from it, so signatures verify across processes. The
// client driver prints "PROGRESS <n>" every 100 commits and a final
// "DONE committed=<n> attempts=<n>"; scripts/run_tcp_cluster.sh builds the whole
// deployment and asserts liveness through a replica kill.
//
// Observability (docs/OBSERVABILITY.md): every role writes a "basil-metrics-v1"
// snapshot (--metrics-out PATH, default basil_metrics_<id>.json) at shutdown, on
// SIGUSR1, and every --metrics-interval seconds; each dump prints "METRICS <path>".
// tools/metrics_merge aggregates the per-process snapshots into one cluster view.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "src/basil/client.h"
#include "src/basil/replica.h"
#include "src/net/gateway.h"
#include "src/net/peer_config.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/runtime/task.h"

namespace basil {
namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;  // SIGUSR1: dump a metrics snapshot.

void OnSignal(int) { g_stop = 1; }
void OnDumpSignal(int) { g_dump = 1; }

struct Options {
  std::string config;
  NodeId id = kInvalidNode;
  std::string data_dir;    // Replica role: durable store root (empty = in-memory only).
  uint32_t workers = 0;    // Strand + crypto pool threads (0 = event loop only).
  // Replica role: execution-state partitions (docs/TRANSPORT.md). UINT32_MAX =
  // default to --workers (one partition per strand worker); 0 = loop-owned state.
  uint32_t partitions = UINT32_MAX;
  uint64_t txns = 1000;    // Client role: transactions to commit before exiting.
  uint32_t keys = 16;      // Client role: key-space width.
  uint64_t timeout_s = 120;  // Client role: overall deadline.
  std::string metrics_out;       // Snapshot path ("" = basil_metrics_<id>.json).
  uint64_t metrics_interval_s = 0;  // Periodic snapshot cadence (0 = on demand only).
  // Client role, session gateway (docs/TRANSPORT.md "Session gateway"): drive
  // --sessions logical sessions over --lanes pooled connections per replica
  // instead of one closed loop on one socket.
  bool gateway = false;
  uint32_t sessions = 4;
  uint32_t lanes = 2;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--config") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->config = v;
    } else if (arg == "--id") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->id = static_cast<NodeId>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--txns") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->txns = std::strtoull(v, nullptr, 10);
    } else if (arg == "--keys") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->keys = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--timeout") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->timeout_s = std::strtoull(v, nullptr, 10);
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->data_dir = v;
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->workers = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--partitions") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->partitions = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->metrics_out = v;
    } else if (arg == "--metrics-interval") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->metrics_interval_s = std::strtoull(v, nullptr, 10);
    } else if (arg == "--gateway") {
      opt->gateway = true;
    } else if (arg == "--sessions") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->sessions = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--lanes") {
      const char* v = next();
      if (v == nullptr) {
        return false;
      }
      opt->lanes = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opt->config.empty() && opt->id != kInvalidNode;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

std::string SnapshotPath(const Options& opt, NodeId id) {
  return opt.metrics_out.empty() ? "basil_metrics_" + std::to_string(id) + ".json"
                                 : opt.metrics_out;
}

// Writes one "basil-metrics-v1" snapshot (docs/OBSERVABILITY.md) and prints
// "METRICS <path>". `proto` is a loop-thread-consistent copy of the protocol
// counters; the registry itself is safe to read from any thread.
bool WriteSnapshot(TcpRuntime& rt, const std::string& role, const Counters& proto,
                   uint64_t start_ns, const std::string& path) {
  rt.PublishAllocMetrics();  // Fold live pool counters into the rt.alloc.* gauges.
  obs::SnapshotMeta meta;
  meta.node = rt.id();
  meta.role = role;
  meta.uptime_ns = NowNs() - start_ns;
  const std::string text = obs::SnapshotJson(rt.metrics(), meta, proto.values());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write metrics snapshot %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  std::printf("METRICS %s\n", path.c_str());
  std::fflush(stdout);
  return ok;
}

// Copies `src` counters on the runtime's loop thread (they are loop-owned state);
// falls back to a direct racy read if the loop is already gone.
Counters CopyCountersOnLoop(TcpRuntime& rt, const Counters& src) {
  Counters copy;
  const bool ran = rt.WaitUntil(
      [&]() {
        copy = src;
        return true;
      },
      2'000'000'000ull);
  if (!ran) {
    copy = src;
  }
  return copy;
}

struct DriverState {
  uint64_t committed = 0;
  uint64_t attempts = 0;
  bool done = false;
};

// Closed-loop read-modify-write driver: the client-side workload of the integration
// deployment. Retries system aborts with backoff, like the paper's clients.
Task<void> RunDriver(BasilClient* client, const Options* opt, DriverState* state) {
  uint64_t i = 0;
  while (state->committed < opt->txns) {
    const Key key = "k" + std::to_string(i++ % opt->keys);
    int backoff_shift = 0;
    while (true) {
      ++state->attempts;
      TxnSession& s = client->BeginTxn();
      std::optional<Value> v = co_await s.Get(key);
      const uint64_t counter =
          v.has_value() ? std::strtoull(v->c_str(), nullptr, 10) + 1 : 1;
      s.Put(key, std::to_string(counter));
      const TxnOutcome out = co_await s.Commit();
      if (out.committed) {
        ++state->committed;
        if (state->committed % 100 == 0) {
          std::printf("PROGRESS %llu\n",
                      static_cast<unsigned long long>(state->committed));
          std::fflush(stdout);
        }
        break;
      }
      backoff_shift = std::min(backoff_shift + 1, 8);
      co_await SleepNs(*client, (1ull << backoff_shift) * 250'000);
    }
  }
  state->done = true;
}

int RunReplica(const DeployConfig& cfg, TcpRuntime& rt, const Topology& topo,
               const KeyRegistry& keys, const Options& opt) {
  const uint64_t start_ns = NowNs();
  // --partitions defaults to one execution partition per strand worker; 0 keeps the
  // legacy loop-owned state. The config copy outlives the replica.
  BasilConfig basil_cfg = cfg.basil;
  basil_cfg.exec_partitions =
      opt.partitions == UINT32_MAX ? opt.workers : opt.partitions;
  BasilReplica replica(&rt, &basil_cfg, &topo, &keys);

  // Durable store: replay the WAL + snapshot into the version store before any
  // traffic, then catch up on missed commits from peers once the runtime is live.
  std::unique_ptr<DiskMedia> media;
  std::unique_ptr<DurableStore> durable;
  if (!opt.data_dir.empty()) {
    media = std::make_unique<DiskMedia>(opt.data_dir + "/node" +
                                        std::to_string(rt.id()));
    if (!media->ok()) {
      std::fprintf(stderr, "cannot create data dir under %s\n",
                   opt.data_dir.c_str());
      return 1;
    }
    durable = std::make_unique<DurableStore>(media.get(),
                                             cfg.basil.wal_snapshot_every,
                                             cfg.basil.wal_fsync_every);
    const DurableStore::ReplayStats stats = durable->Open(&replica.store());
    replica.AttachDurable(durable.get());
    // snapshot= counts writes replayed from snapshot.bin, wal= records replayed from
    // the WAL tail (run_tcp_cluster.sh requires their sum > 0 after a restart).
    std::printf("REPLAY snapshot=%llu wal=%llu torn=%llu\n",
                static_cast<unsigned long long>(stats.snapshot_versions),
                static_cast<unsigned long long>(stats.wal_records),
                static_cast<unsigned long long>(stats.torn_bytes_discarded));
  }
  if (!rt.Start()) {
    return 1;
  }
  std::printf("READY replica %u shard %u workers %u partitions %u\n", rt.id(),
              replica.shard(), rt.workers(), basil_cfg.exec_partitions);
  std::fflush(stdout);
  // Transfer applications (fresh + re-offered) also bump "committed"; printing both
  // lets the cluster script separate real quorum participation from late chunks.
  auto transfer_applied = [&replica]() {
    return replica.counters().Get("state_entries_applied") +
           replica.counters().Get("state_entries_reapplied");
  };
  if (durable != nullptr) {
    rt.Execute([&replica, &transfer_applied]() {
      replica.StartRecovery([&replica, &transfer_applied]() {
        std::printf("RECOVERED applied=%llu commits=%llu\n",
                    static_cast<unsigned long long>(transfer_applied()),
                    static_cast<unsigned long long>(
                        replica.counters().Get("committed")));
        std::fflush(stdout);
      });
    });
  }
  // Serve until signalled; SIGUSR1 or the --metrics-interval timer dumps a metrics
  // snapshot without disturbing the protocol.
  uint64_t next_dump_ns =
      opt.metrics_interval_s > 0 ? start_ns + opt.metrics_interval_s * 1'000'000'000ull
                                 : 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const bool interval_due = next_dump_ns != 0 && NowNs() >= next_dump_ns;
    if (g_dump != 0 || interval_due) {
      g_dump = 0;
      if (interval_due) {
        next_dump_ns = NowNs() + opt.metrics_interval_s * 1'000'000'000ull;
      }
      WriteSnapshot(rt, "replica", CopyCountersOnLoop(rt, replica.counters()),
                    start_ns, SnapshotPath(opt, rt.id()));
    }
  }
  rt.Stop();
  // Final snapshot: the loop is stopped, so the counters are safe to read directly.
  WriteSnapshot(rt, "replica", replica.counters(), start_ns,
                SnapshotPath(opt, rt.id()));
  const BufferPool::Stats alloc = rt.pool().stats();
  std::printf(
      "STOPPED replica %u partitions=%u handled=%llu commits=%llu applied=%llu "
      "rejected=%llu offloaded=%llu posted=%llu fsyncs=%llu dropped=%llu "
      "pool_hits=%llu pool_misses=%llu pool_recycled_bytes=%llu\n",
      rt.id(), basil_cfg.exec_partitions,
      static_cast<unsigned long long>(rt.messages_received()),
      static_cast<unsigned long long>(replica.counters().Get("committed")),
      static_cast<unsigned long long>(transfer_applied()),
      static_cast<unsigned long long>(
          replica.counters().Get("state_entries_rejected")),
      static_cast<unsigned long long>(rt.offloaded_checks()),
      static_cast<unsigned long long>(rt.posted_tasks()),
      static_cast<unsigned long long>(durable ? durable->fsyncs() : 0),
      static_cast<unsigned long long>(rt.dropped_frames()),
      static_cast<unsigned long long>(alloc.hits),
      static_cast<unsigned long long>(alloc.misses),
      static_cast<unsigned long long>(alloc.recycled_bytes));
  return 0;
}

int RunClient(const DeployConfig& cfg, TcpRuntime& rt, const Topology& topo,
              const KeyRegistry& keys, const Options& opt) {
  const uint64_t start_ns = NowNs();
  const ClientId client_id = rt.id() - cfg.num_replicas + 1;
  BasilClient client(&rt, client_id, &cfg.basil, &topo, &keys,
                     Rng(cfg.seed * 77 + rt.id()));
  if (!rt.Start()) {
    return 1;
  }
  std::printf("READY client %u\n", rt.id());
  std::fflush(stdout);

  DriverState state;
  rt.Execute([&]() { Spawn(RunDriver(&client, &opt, &state)); });

  const bool ok = rt.WaitUntil(
      [&]() { return state.done || g_stop != 0 || g_dump != 0; },
      opt.timeout_s * 1'000'000'000ull);
  while (ok && g_dump != 0 && !state.done && g_stop == 0) {
    g_dump = 0;
    WriteSnapshot(rt, "client", CopyCountersOnLoop(rt, client.counters()), start_ns,
                  SnapshotPath(opt, rt.id()));
    if (rt.WaitUntil([&]() { return state.done || g_stop != 0 || g_dump != 0; },
                     opt.timeout_s * 1'000'000'000ull)) {
      continue;
    }
    break;
  }
  // Snapshot results on the loop thread before stopping it.
  DriverState final_state;
  rt.WaitUntil(
      [&]() {
        final_state = state;
        return true;
      },
      5'000'000'000ull);
  rt.Stop();
  WriteSnapshot(rt, "client", client.counters(), start_ns, SnapshotPath(opt, rt.id()));
  std::printf("DONE committed=%llu attempts=%llu\n",
              static_cast<unsigned long long>(final_state.committed),
              static_cast<unsigned long long>(final_state.attempts));
  std::fflush(stdout);
  if (!ok || !final_state.done) {
    std::fprintf(stderr, "client %u: timed out with %llu/%llu committed\n", rt.id(),
                 static_cast<unsigned long long>(final_state.committed),
                 static_cast<unsigned long long>(opt.txns));
    return 2;
  }
  return 0;
}

// Gateway client driver state, shared by every session's coroutine (all run on
// the one event loop, so plain counters are safe).
struct GatewayState {
  uint64_t committed = 0;
  uint64_t attempts = 0;
  uint32_t done_sessions = 0;
};

// One session's share of the closed-loop workload: commits `quota` transactions,
// retrying aborts with backoff exactly like RunDriver, but reporting into the
// shared aggregate so PROGRESS/DONE lines cover the whole gateway.
Task<void> RunSessionDriver(BasilClient* client, const Options* opt,
                            uint64_t quota, GatewayState* state) {
  uint64_t i = 0;
  uint64_t committed = 0;
  while (committed < quota) {
    const Key key = "k" + std::to_string(i++ % opt->keys);
    int backoff_shift = 0;
    while (true) {
      ++state->attempts;
      TxnSession& s = client->BeginTxn();
      std::optional<Value> v = co_await s.Get(key);
      const uint64_t counter =
          v.has_value() ? std::strtoull(v->c_str(), nullptr, 10) + 1 : 1;
      s.Put(key, std::to_string(counter));
      const TxnOutcome out = co_await s.Commit();
      if (out.committed) {
        ++committed;
        ++state->committed;
        if (state->committed % 100 == 0) {
          std::printf("PROGRESS %llu\n",
                      static_cast<unsigned long long>(state->committed));
          std::fflush(stdout);
        }
        break;
      }
      backoff_shift = std::min(backoff_shift + 1, 8);
      co_await SleepNs(*client, (1ull << backoff_shift) * 250'000);
    }
  }
  ++state->done_sessions;
}

// Client role behind the session gateway: N logical sessions multiplexed over
// `lanes` connections per replica, splitting --txns across the sessions. The
// runtime must have been built with a SessionMux::ExtendPeers peer table.
int RunGatewayClient(const DeployConfig& cfg, TcpRuntime& rt, const Topology& topo,
                     const KeyRegistry& keys, const Options& opt) {
  const uint64_t start_ns = NowNs();
  GatewayConfig gcfg;
  gcfg.lanes = opt.lanes;
  SessionMux mux(&rt, cfg.num_replicas, gcfg);
  std::vector<std::unique_ptr<BasilClient>> clients;
  clients.reserve(opt.sessions);
  for (uint32_t s = 0; s < opt.sessions; ++s) {
    SessionRuntime* srt = mux.CreateSession();
    if (srt == nullptr) {
      std::fprintf(stderr, "session space exhausted at %u\n", s);
      return 1;
    }
    clients.push_back(std::make_unique<BasilClient>(
        srt, /*client_id=*/srt->id(), &cfg.basil, &topo, &keys,
        Rng(cfg.seed * 77 + rt.id() * 131 + s)));
  }
  if (!rt.Start()) {
    return 1;
  }
  std::printf("READY client %u gateway sessions=%u lanes=%u\n", rt.id(),
              opt.sessions, opt.lanes);
  std::fflush(stdout);

  // Sessions beyond the txn count get no quota (and no coroutine).
  const uint32_t active = static_cast<uint32_t>(
      std::min<uint64_t>(opt.sessions, opt.txns));
  GatewayState state;
  rt.Execute([&]() {
    for (uint32_t s = 0; s < opt.sessions; ++s) {
      const uint64_t quota =
          opt.txns / opt.sessions + (s < opt.txns % opt.sessions ? 1 : 0);
      if (quota > 0) {
        Spawn(RunSessionDriver(clients[s].get(), &opt, quota, &state));
      }
    }
  });

  const bool ok = rt.WaitUntil(
      [&]() { return state.done_sessions >= active || g_stop != 0; },
      opt.timeout_s * 1'000'000'000ull);
  GatewayState final_state;
  rt.WaitUntil(
      [&]() {
        final_state = state;
        return true;
      },
      5'000'000'000ull);
  rt.Stop();
  // The loop is stopped: fold every session's protocol counters into one view.
  Counters merged;
  for (const auto& c : clients) {
    merged.Merge(c->counters());
  }
  WriteSnapshot(rt, "client", merged, start_ns, SnapshotPath(opt, rt.id()));
  std::printf("GATEWAY sessions=%u envelopes_tx=%llu envelopes_rx=%llu "
              "park_events=%llu dropped_sessions=%llu dropped=%llu\n",
              opt.sessions, static_cast<unsigned long long>(mux.envelopes_tx()),
              static_cast<unsigned long long>(mux.envelopes_rx()),
              static_cast<unsigned long long>(mux.park_events()),
              static_cast<unsigned long long>(mux.dropped_sessions()),
              static_cast<unsigned long long>(rt.dropped_frames()));
  std::printf("DONE committed=%llu attempts=%llu\n",
              static_cast<unsigned long long>(final_state.committed),
              static_cast<unsigned long long>(final_state.attempts));
  std::fflush(stdout);
  if (!ok || final_state.done_sessions < active) {
    std::fprintf(stderr, "client %u: timed out with %llu/%llu committed\n",
                 rt.id(), static_cast<unsigned long long>(final_state.committed),
                 static_cast<unsigned long long>(opt.txns));
    return 2;
  }
  return 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: basil_node --config <file> --id <node> [--data-dir D] "
                 "[--workers W] [--partitions P] [--txns N] [--keys K] "
                 "[--timeout S] [--metrics-out PATH] [--metrics-interval S] "
                 "[--gateway [--sessions N] [--lanes K]]\n");
    return 1;
  }
  DeployConfig cfg;
  std::string err;
  if (!DeployConfig::Load(opt.config, &cfg, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  if (opt.id >= cfg.peers.size()) {
    std::fprintf(stderr, "--id %u out of range (config has %zu nodes)\n", opt.id,
                 cfg.peers.size());
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGUSR1, OnDumpSignal);

  const Topology topo = cfg.MakeTopology();
  // Deterministic from the shared seed: every process derives the same keys, so
  // signatures made in one process verify in all others.
  const KeyRegistry keys(topo.TotalNodes(), cfg.seed, /*enabled=*/true);
  // Gateway clients extend the peer table with alias slots: `lanes` distinct
  // connections per replica (the table is immutable once the runtime exists).
  const bool gateway_client = opt.gateway && !cfg.is_replica[opt.id];
  TcpRuntime rt(opt.id,
                gateway_client
                    ? SessionMux::ExtendPeers(cfg.peers, cfg.num_replicas, opt.lanes)
                    : cfg.peers,
                opt.workers);
  if (cfg.is_replica[opt.id]) {
    return RunReplica(cfg, rt, topo, keys, opt);
  }
  return gateway_client ? RunGatewayClient(cfg, rt, topo, keys, opt)
                        : RunClient(cfg, rt, topo, keys, opt);
}

}  // namespace
}  // namespace basil

int main(int argc, char** argv) { return basil::Main(argc, argv); }
