// The strand/offload contract on the simulator backend (src/runtime/runtime.h):
// Post and OffloadVerify run inline and synchronously, so the partition count must
// not change a single simulated outcome. These tests pin that — the tier-1
// substrate stays deterministic and bit-identical — plus the base-class execution
// semantics the contract rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/harness/experiment.h"
#include "src/harness/report.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/metrics.h"
#include "src/runtime/runtime.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/node.h"
#include "src/store/version_store.h"

namespace basil {
namespace {

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.tput_tps, b.tput_tps);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p50_ms, b.p50_ms);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.user_aborts, b.user_aborts);
  EXPECT_EQ(a.commit_rate, b.commit_rate);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.wire_bytes_per_txn, b.wire_bytes_per_txn);
  // Every counter on every node, not just the headline numbers: any divergence in
  // event order shows up here first.
  EXPECT_EQ(a.clients.values(), b.clients.values());
  EXPECT_EQ(a.replicas.values(), b.replicas.values());
}

TEST(Strands, PipelineIsDeterministicAcrossRuns) {
  ExperimentParams params;
  params.system = SystemKind::kBasil;
  params.clients = 6;
  params.warmup_ns = 100'000'000;
  params.measure_ns = 300'000'000;
  params.seed = 21;

  const RunResult a = RunExperiment(params);
  const RunResult b = RunExperiment(params);
  EXPECT_GT(a.committed, 0u);
  ExpectBitIdentical(a, b);
}

TEST(Strands, MetricsRecordingDoesNotChangeResults) {
  // Metrics recording is passive (docs/OBSERVABILITY.md): spans, queue gauges, and
  // histograms observe the run but feed nothing back into the protocol, so disabling
  // them globally must leave every simulated outcome bit-identical.
  ExperimentParams params;
  params.system = SystemKind::kBasil;
  params.clients = 8;
  params.warmup_ns = 100'000'000;
  params.measure_ns = 400'000'000;
  params.seed = 7;

  const RunResult with_metrics = RunExperiment(params);
  obs::SetGlobalEnabled(false);
  const RunResult without_metrics = RunExperiment(params);
  obs::SetGlobalEnabled(true);

  EXPECT_GT(with_metrics.committed, 0u);
  ExpectBitIdentical(with_metrics, without_metrics);
}

TEST(Strands, PartitionedStateDoesNotChangeBasilResults) {
  // Partitioned execution state (docs/TRANSPORT.md): sharding the TxnState map and
  // the version store by strand key routes every handler through RunOnPart, which
  // is inline on the simulator — so any partition count must reproduce the
  // single-partition run counter for counter.
  ExperimentParams params;
  params.system = SystemKind::kBasil;
  params.clients = 8;
  params.warmup_ns = 100'000'000;
  params.measure_ns = 400'000'000;
  params.seed = 7;

  params.basil.exec_partitions = 1;
  const RunResult one_part = RunExperiment(params);
  params.basil.exec_partitions = 4;
  const RunResult four_parts = RunExperiment(params);

  EXPECT_GT(one_part.committed, 0u);
  ExpectBitIdentical(four_parts, one_part);
}

TEST(Strands, PartitionedStateDoesNotChangeTapirResults) {
  ExperimentParams params;
  params.system = SystemKind::kTapir;
  params.clients = 6;
  params.warmup_ns = 100'000'000;
  params.measure_ns = 300'000'000;
  params.seed = 11;

  params.tapir.exec_partitions = 1;
  const RunResult one_part = RunExperiment(params);
  params.tapir.exec_partitions = 4;
  const RunResult four_parts = RunExperiment(params);

  EXPECT_GT(one_part.committed, 0u);
  ExpectBitIdentical(four_parts, one_part);
}

TEST(Strands, SimBackendRunsPostInlineAndSynchronously) {
  // The determinism above rests on this: on sim::Node, Post's work and continuation
  // complete before Post returns, in order, charging the node's own meter.
  EventQueue events;
  NetConfig net_cfg;
  CostModel cost;
  Network net(&events, net_cfg, Rng(1));
  Node node(&net, 0, &cost, /*workers=*/4);

  std::vector<int> order;
  node.Execute([&]() {
    order.push_back(0);
    node.Post(
        StrandOfNode(3),
        [&](CostMeter& m) {
          EXPECT_EQ(&m, &node.meter());  // Inline work charges the node meter.
          order.push_back(1);
        },
        [&]() { order.push_back(2); });
    order.push_back(3);  // Runs only after work + continuation returned.

    node.Verify1([](CostMeter&) { return false; },
                 [&](bool ok) { order.push_back(ok ? -1 : 4); });
  });
  events.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Strands, OffloadVerifyReportsPerCheckVerdicts) {
  EventQueue events;
  NetConfig net_cfg;
  CostModel cost;
  Network net(&events, net_cfg, Rng(1));
  Node node(&net, 0, &cost, /*workers=*/2);

  std::vector<uint8_t> got;
  std::vector<VerifyFn> batch;
  batch.push_back([](CostMeter&) { return true; });
  batch.push_back([](CostMeter&) { return false; });
  batch.push_back([](CostMeter& m) {
    m.ChargeVerify();  // Charges land on the node meter, like the old inline code.
    return true;
  });
  node.Execute([&]() {
    node.OffloadVerify(std::move(batch),
                       [&](std::vector<uint8_t> verdicts) { got = verdicts; });
  });
  events.RunAll();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_GT(node.busy_ns(), 0u);  // The ChargeVerify accrued simulated CPU.
}

// ---------------------------------------------------------------------------
// Partition ownership on the TCP backend (real threads; run under TSan in CI).
// ---------------------------------------------------------------------------

// Binds one runtime with a worker pool; no peer needed for strand tests.
std::unique_ptr<TcpRuntime> UpSolo(uint32_t workers) {
  for (int attempt = 0; attempt < 10; ++attempt) {
    const uint16_t port = static_cast<uint16_t>(
        30000 + (::getpid() * 29 + attempt * 401 + 23 * workers) % 30000);
    auto rt = std::make_unique<TcpRuntime>(
        0, std::vector<PeerAddr>{{"127.0.0.1", port}}, workers);
    if (rt->Start()) {
      return rt;
    }
  }
  return nullptr;
}

// Spin-waits (off any runtime thread) until pred or deadline.
bool SpinUntil(const std::function<bool()>& pred, uint64_t timeout_ms = 10'000) {
  for (uint64_t waited = 0; waited < timeout_ms; ++waited) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(Strands, SamePartitionWritesStayFifoAcrossPartitionsOverlap) {
  // The partitioned-state ownership contract: writes routed to one partition's
  // strand are serialized FIFO (the replica mutates its shard without locks), while
  // writes on distinct partitions run concurrently. The same-key phase uses a
  // deliberately race-prone canary — a plain in-flight flag and a non-atomic
  // read-modify-write counter — that TSan would flag and the overlap check would
  // trip if two same-partition tasks ever interleaved.
  auto rt = UpSolo(/*workers=*/2);
  ASSERT_NE(rt, nullptr);

  VersionStore store;
  store.SetPartitions(2);
  // Two keys on distinct store partitions; each partition index doubles as the
  // owning strand key, exactly like BasilReplica::PartOfKey routing.
  Key k0, k1;
  for (int i = 0; k1.empty() && i < 64; ++i) {
    Key k = "key" + std::to_string(i);
    if (store.PartitionOf(k) == 0 && k0.empty()) {
      k0 = k;
    } else if (store.PartitionOf(k) == 1 && k1.empty()) {
      k1 = k;
    }
  }
  ASSERT_FALSE(k0.empty());
  ASSERT_FALSE(k1.empty());

  // Phase 1: concurrent same-key writes on one partition stay FIFO.
  constexpr int kWrites = 300;
  static bool in_flight;
  static int applied;
  in_flight = false;
  applied = 0;
  std::atomic<int> done{0};
  std::atomic<bool> overlapped{false};
  for (int i = 0; i < kWrites; ++i) {
    rt->Post(static_cast<StrandKey>(store.PartitionOf(k0)),
             [&store, &k0, i, &done, &overlapped](CostMeter&) {
               if (in_flight) {
                 overlapped.store(true);
               }
               in_flight = true;
               store.ApplyCommittedWrite(k0, Timestamp{static_cast<uint64_t>(i + 1), 0},
                                         std::to_string(i), TxnDigest{});
               const int expected = applied;  // Read...
               for (volatile int spin = 0; spin < 50; spin = spin + 1) {
               }
               applied = expected + 1;  // ...modify-write: loses updates if racy.
               in_flight = false;
               done.fetch_add(1);
             });
  }
  ASSERT_TRUE(SpinUntil([&]() { return done.load() == kWrites; }));
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(applied, kWrites);
  ASSERT_TRUE(store.Committed(k0).has_value());
  EXPECT_EQ(store.Committed(k0)->value, std::to_string(kWrites - 1));

  // Phase 2: writes on distinct partitions overlap. Each side writes its own key,
  // then waits (bounded) for the other to have started: serialized execution could
  // never satisfy both rendezvous.
  std::atomic<bool> p0_started{false};
  std::atomic<bool> p1_started{false};
  std::atomic<int> both_seen{0};
  auto writer = [&](const Key& key, std::atomic<bool>& mine,
                    std::atomic<bool>& other) {
    store.ApplyCommittedWrite(key, Timestamp{1'000'000, 0}, "rendezvous",
                              TxnDigest{});
    mine.store(true);
    for (int i = 0; i < 10'000 && !other.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (other.load()) {
      both_seen.fetch_add(1);
    }
  };
  rt->Post(static_cast<StrandKey>(store.PartitionOf(k0)),
           [&](CostMeter&) { writer(k0, p0_started, p1_started); });
  rt->Post(static_cast<StrandKey>(store.PartitionOf(k1)),
           [&](CostMeter&) { writer(k1, p1_started, p0_started); });
  ASSERT_TRUE(SpinUntil([&]() { return both_seen.load() == 2; }));
  rt->Stop();
}

}  // namespace
}  // namespace basil
