// Real-socket throughput of the parallel execution pipeline (docs/TRANSPORT.md):
// deploys one Basil shard (f=1, 6 replicas) plus closed-loop clients as TcpRuntimes
// in this process — real threads, real TCP frames, real HMAC/Merkle crypto — and
// measures commits/sec as the per-node worker count N sweeps {1, 2, 4, 8}. Each row
// also reports how many signature checks the crypto pool ran and the simulator's
// k-worker prediction for the same N, the model the TCP backend is chasing.
//
//   bench_tcp_throughput [--smoke] [--clients C] [--duration-ms D] [--out PATH]
//
// --smoke (CI, ctest `tcp_throughput_smoke`): N=2 only, short duration, exits
// nonzero unless transactions committed, signature checks ran on the crypto pool and
// handler work ran on the strands — the regression guard for the parallel path.
//
// Every run (smoke included) also writes a "basil-bench-v1" artifact (default
// BENCH_tcp_throughput.json) with the sweep rows plus per-stage latency
// distributions merged from every runtime's metrics registry
// (docs/OBSERVABILITY.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/basil/client.h"
#include "src/basil/replica.h"
#include "src/harness/experiment.h"
#include "src/harness/report.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/runtime/task.h"
#include "src/sim/topology.h"

namespace basil {
namespace {

struct BenchOptions {
  bool smoke = false;
  uint32_t clients = 4;
  uint64_t duration_ms = 3000;
  uint32_t keys = 64;
  std::string out = "BENCH_tcp_throughput.json";
};

struct ClientState {
  uint64_t committed = 0;
  uint64_t attempts = 0;
  bool stopped = false;
};

// Closed-loop read-modify-write driver, time-bounded: runs until `*stop`, retrying
// aborts with backoff like the paper's clients.
Task<void> DriveUntilStopped(BasilClient* client, uint32_t keyspace,
                             const std::atomic<bool>* stop, ClientState* state) {
  uint64_t i = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const Key key = "k" + std::to_string(i++ % keyspace);
    int backoff_shift = 0;
    while (!stop->load(std::memory_order_relaxed)) {
      ++state->attempts;
      TxnSession& s = client->BeginTxn();
      std::optional<Value> v = co_await s.Get(key);
      const uint64_t counter =
          v.has_value() ? std::strtoull(v->c_str(), nullptr, 10) + 1 : 1;
      s.Put(key, std::to_string(counter));
      const TxnOutcome out = co_await s.Commit();
      if (out.committed) {
        ++state->committed;
        break;
      }
      backoff_shift = std::min(backoff_shift + 1, 8);
      co_await SleepNs(*client, (1ull << backoff_shift) * 250'000);
    }
  }
  state->stopped = true;
}

struct Row {
  uint32_t workers = 0;
  double tcp_tps = 0;
  uint64_t committed = 0;
  uint64_t attempts = 0;
  uint64_t offloaded = 0;
  uint64_t posted = 0;       // Strand tasks: partitioned handlers leaving the loop.
  double depth_p99 = 0;      // Worst per-partition strand queue depth p99.
  double sim_tps = 0;
  uint64_t pool_hits = 0;    // BufferPool rents served from a freelist (all nodes).
  uint64_t pool_misses = 0;  // Rents that had to allocate.
  uint64_t dropped = 0;      // Outbox frames shed under backpressure (must be 0).
};

// Worst p99 across the per-worker strand queue depth histograms
// (rt.strand.w<i>.queue_depth, docs/OBSERVABILITY.md): partition imbalance shows
// up here long before it shows in throughput.
double MaxStrandDepthP99(const obs::MetricsRegistry& metrics, uint32_t workers) {
  double worst = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    const obs::MetricId id =
        metrics.Find("rt.strand.w" + std::to_string(w) + ".queue_depth");
    if (id == obs::kInvalidMetric) {
      continue;
    }
    if (const obs::Histogram* h = metrics.histogram(id); h != nullptr) {
      worst = std::max(worst, h->Quantile(0.99));
    }
  }
  return worst;
}

// One measurement: a full in-process deployment at `workers` pool threads per node.
// Returns false if the deployment could not come up (ports) or drivers wedged.
// Folds every runtime's metrics registry into `artifact` before teardown.
bool MeasureTcp(const BenchOptions& opt, uint32_t workers, uint16_t port_base,
                Row* row, BenchJson* artifact) {
  BasilConfig basil;  // f=1, 1 shard, signatures + batching on (defaults).
  // One execution partition per strand worker (docs/TRANSPORT.md "Partitioned
  // execution state"): handlers run end-to-end on the owning strand.
  basil.exec_partitions = workers;
  Topology topo;
  topo.num_shards = 1;
  topo.replicas_per_shard = basil.n();
  topo.num_clients = opt.clients;
  const uint32_t num_nodes = basil.n() + opt.clients;

  std::vector<PeerAddr> peers;
  peers.reserve(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    peers.push_back({"127.0.0.1", static_cast<uint16_t>(port_base + i)});
  }
  const KeyRegistry keys(num_nodes, /*seed=*/4242, /*enabled=*/true);

  std::vector<std::unique_ptr<TcpRuntime>> replica_rts;
  std::vector<std::unique_ptr<BasilReplica>> replicas;
  for (uint32_t i = 0; i < basil.n(); ++i) {
    auto rt = std::make_unique<TcpRuntime>(i, peers, workers);
    if (!rt->Start()) {
      return false;
    }
    replicas.push_back(std::make_unique<BasilReplica>(rt.get(), &basil, &topo, &keys));
    replica_rts.push_back(std::move(rt));
  }
  std::vector<std::unique_ptr<TcpRuntime>> client_rts;
  std::vector<std::unique_ptr<BasilClient>> clients;
  for (uint32_t i = 0; i < opt.clients; ++i) {
    const NodeId id = basil.n() + i;
    auto rt = std::make_unique<TcpRuntime>(id, peers, workers);
    if (!rt->Start()) {
      for (auto& r : replica_rts) {
        r->Stop();
      }
      return false;
    }
    clients.push_back(std::make_unique<BasilClient>(rt.get(), i + 1, &basil, &topo,
                                                    &keys, Rng(1000 + id)));
    client_rts.push_back(std::move(rt));
  }

  std::atomic<bool> stop{false};
  std::vector<ClientState> states(opt.clients);
  for (uint32_t i = 0; i < opt.clients; ++i) {
    BasilClient* c = clients[i].get();
    ClientState* st = &states[i];
    client_rts[i]->Execute(
        [c, st, &stop, &opt]() { Spawn(DriveUntilStopped(c, opt.keys, &stop, st)); });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(opt.duration_ms));
  stop.store(true);
  // Let every driver finish its in-flight transaction, then snapshot on the loop.
  bool drivers_done = true;
  for (uint32_t i = 0; i < opt.clients; ++i) {
    drivers_done &= client_rts[i]->WaitUntil(
        [st = &states[i]]() { return st->stopped; }, 20'000'000'000ull);
  }
  row->workers = workers;
  for (const ClientState& st : states) {
    row->committed += st.committed;
    row->attempts += st.attempts;
  }
  row->tcp_tps = static_cast<double>(row->committed) * 1000.0 /
                 static_cast<double>(opt.duration_ms);
  for (auto& rt : replica_rts) {
    row->offloaded += rt->offloaded_checks();
    row->posted += rt->posted_tasks();
    row->depth_p99 = std::max(row->depth_p99, MaxStrandDepthP99(rt->metrics(), workers));
  }
  // Allocation-lean hot path accounting: pool hit rate across every runtime in the
  // deployment (replicas and clients rent encode scratch, outbox frames, and
  // receive blocks from their runtime's pool), plus backpressure drops.
  for (auto* rts : {&replica_rts, &client_rts}) {
    for (auto& rt : *rts) {
      rt->PublishAllocMetrics();
      const BufferPool::Stats s = rt->pool().stats();
      row->pool_hits += s.hits;
      row->pool_misses += s.misses;
      row->dropped += rt->dropped_frames();
    }
  }
  // Per-stage spans and queue-wait distributions, merged across every node in the
  // deployment (workers are quiescent by now; histogram merges add bucket-wise).
  if (artifact != nullptr) {
    for (auto& rt : replica_rts) {
      artifact->AddStages(rt->metrics());
    }
    for (auto& rt : client_rts) {
      artifact->AddStages(rt->metrics());
    }
  }
  for (auto& rt : client_rts) {
    rt->Stop();
  }
  for (auto& rt : replica_rts) {
    rt->Stop();
  }
  return drivers_done;
}

// The simulator's prediction for the same worker count: its k-worker CPU queue with
// ed25519-calibrated costs is the model whose scaling the TCP backend now chases.
double SimPrediction(const BenchOptions& opt, uint32_t workers) {
  ExperimentParams params;
  params.system = SystemKind::kBasil;
  params.clients = 32;
  params.warmup_ns = 100'000'000;
  params.measure_ns = opt.smoke ? 300'000'000 : 800'000'000;
  params.seed = 4242;
  params.sim.replica_workers = workers;
  return RunExperiment(params).tput_tps;
}

int Main(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--smoke") {
      opt.smoke = true;
      opt.clients = 2;
      opt.duration_ms = 1000;
    } else if (arg == "--clients") {
      const char* v = next();
      if (v != nullptr) {
        opt.clients = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
      }
    } else if (arg == "--duration-ms") {
      const char* v = next();
      if (v != nullptr) {
        opt.duration_ms = std::strtoull(v, nullptr, 10);
      }
    } else if (arg == "--out") {
      const char* v = next();
      if (v != nullptr) {
        opt.out = v;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }

  const std::vector<uint32_t> sweep =
      opt.smoke ? std::vector<uint32_t>{2} : std::vector<uint32_t>{1, 2, 4, 8};
  const long host_cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "bench_tcp_throughput: 1 shard (f=1, 6 replicas), %u closed-loop clients, "
      "%llu ms per point, %ld host core(s)\n",
      opt.clients, static_cast<unsigned long long>(opt.duration_ms), host_cores);
  std::printf(
      "  %-8s %12s %10s %16s %10s %14s\n", "workers", "tcp_tps", "commits",
      "offloaded_sigs", "depth_p99", "sim_tps");

  BenchJson artifact("tcp_throughput");
  artifact.AddParam("smoke", static_cast<uint64_t>(opt.smoke ? 1 : 0));
  artifact.AddParam("clients", static_cast<uint64_t>(opt.clients));
  artifact.AddParam("duration_ms", opt.duration_ms);
  artifact.AddParam("keys", static_cast<uint64_t>(opt.keys));
  artifact.AddParam("host_cores", static_cast<uint64_t>(host_cores > 0 ? host_cores : 0));

  std::vector<Row> rows;
  for (size_t n = 0; n < sweep.size(); ++n) {
    Row row;
    const uint16_t port_base = static_cast<uint16_t>(
        22000 + (::getpid() * 31 + n * 701) % 30000);
    if (!MeasureTcp(opt, sweep[n], port_base, &row, &artifact)) {
      std::fprintf(stderr, "FAIL: deployment at workers=%u did not run cleanly\n",
                   sweep[n]);
      return 1;
    }
    row.sim_tps = SimPrediction(opt, sweep[n]);
    std::printf("  %-8u %12.1f %10llu %16llu %10.1f %14.1f\n", row.workers,
                row.tcp_tps, static_cast<unsigned long long>(row.committed),
                static_cast<unsigned long long>(row.offloaded), row.depth_p99,
                row.sim_tps);
    std::fflush(stdout);

    RunResult rr;
    rr.tput_tps = row.tcp_tps;
    rr.committed = row.committed;
    rr.attempts = row.attempts;
    rr.commit_rate = row.attempts > 0 ? static_cast<double>(row.committed) /
                                            static_cast<double>(row.attempts)
                                      : 0;
    artifact.AddRow("workers=" + std::to_string(row.workers), rr);
    artifact.AddParam("sim_tps_w" + std::to_string(row.workers), row.sim_tps);
    artifact.AddParam("depth_p99_w" + std::to_string(row.workers), row.depth_p99);
    artifact.AddParam("posted_w" + std::to_string(row.workers), row.posted);
    const double hit_rate =
        row.pool_hits + row.pool_misses > 0
            ? static_cast<double>(row.pool_hits) /
                  static_cast<double>(row.pool_hits + row.pool_misses)
            : 0;
    artifact.AddParam("pool_hit_rate_w" + std::to_string(row.workers), hit_rate);
    artifact.AddParam("dropped_frames_w" + std::to_string(row.workers), row.dropped);
    std::printf("  pool: %llu hits / %llu misses (%.1f%% hit rate), %llu dropped "
                "frame(s)\n",
                static_cast<unsigned long long>(row.pool_hits),
                static_cast<unsigned long long>(row.pool_misses), hit_rate * 100.0,
                static_cast<unsigned long long>(row.dropped));
    rows.push_back(row);
  }
  if (!opt.out.empty()) {
    artifact.WriteFile(opt.out);
  }

  // Regression guard (both modes): work must flow, replica-side signature checks
  // must run on the crypto pool and handlers on the strands.
  for (const Row& row : rows) {
    if (row.committed == 0) {
      std::fprintf(stderr, "FAIL: workers=%u committed nothing\n", row.workers);
      return 1;
    }
    if (row.offloaded == 0) {
      std::fprintf(stderr, "FAIL: workers=%u offloaded no signature checks\n",
                   row.workers);
      return 1;
    }
    if (row.posted == 0) {
      std::fprintf(stderr,
                   "FAIL: workers=%u but no handler work was posted to the strands "
                   "— partitioned execution never left the loop\n",
                   row.workers);
      return 1;
    }
    // Allocation-lean guards: steady-state traffic must run out of the pool (hit
    // rate > 95% — only warmup rents miss), and backpressure must shed nothing.
    if (row.dropped != 0) {
      std::fprintf(stderr, "FAIL: workers=%u shed %llu outbox frame(s)\n",
                   row.workers, static_cast<unsigned long long>(row.dropped));
      return 1;
    }
    if (row.pool_hits + row.pool_misses > 0) {
      const double hit_rate = static_cast<double>(row.pool_hits) /
                              static_cast<double>(row.pool_hits + row.pool_misses);
      if (hit_rate <= 0.95) {
        std::fprintf(stderr,
                     "FAIL: workers=%u pool hit rate %.1f%% (need > 95%%) — the "
                     "hot path is allocating\n",
                     row.workers, hit_rate * 100.0);
        return 1;
      }
    }
  }
  if (host_cores < 2 && !opt.smoke) {
    std::printf(
        "note: single-core host — the tcp_tps column cannot show parallel speedup "
        "here; compare the sim_tps column (k-worker model) and run on multicore "
        "hardware for the real-socket scaling table.\n");
  }
  return 0;
}

}  // namespace
}  // namespace basil

int main(int argc, char** argv) { return basil::Main(argc, argv); }
