// Node: the simulator's Runtime backend — a machine in the simulated cluster.
// Serializes protocol work through a k-worker CPU queue (k = cores); handler work
// charges a CostMeter whose consumed time advances the worker clock, and messages sent
// by a handler depart when its CPU work completes. This queueing model is what turns
// crypto cost into the throughput ceilings seen in the paper's Figures 5a and 6b.
//
// Protocol logic lives in a Process (src/runtime/runtime.h) bound to this node; the
// same protocol code runs unchanged on net::TcpRuntime for real deployments.
//
// Strands (Runtime::Post / OffloadVerify): this backend keeps the Runtime base
// implementation — work and continuation run inline, synchronously, charging this
// node's meter. That *is* the k-worker mapping: each delivered message is already its
// own work item dispatched to the earliest-free simulated worker, so cross-message
// parallelism (including parallel signature verification) is modeled by the CPU
// queue, while inline execution keeps event order — and therefore every simulated
// result — independent of the partition count. tests/test_strands.cc pins this.
#ifndef BASIL_SRC_SIM_NODE_H_
#define BASIL_SRC_SIM_NODE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/cost.h"
#include "src/common/types.h"
#include "src/runtime/runtime.h"
#include "src/sim/network.h"

namespace basil {

class Node : public Runtime {
 public:
  // `workers` models server cores (replicas: 8 on m510); client processes use 1.
  Node(Network* net, NodeId id, const CostModel* cost_model, uint32_t workers);

  NodeId id() const override { return id_; }
  uint64_t now() const override;

  // Attaches the protocol actor (done by Process's constructor).
  void Bind(MsgHandler* handler) override { handler_ = handler; }

  // Called by the network on message arrival; enqueues the handler into the CPU queue.
  void Deliver(MsgEnvelope env);

  // Queues an arbitrary work item through the same CPU queue (timer bodies, batch
  // flushes — anything that costs CPU and may send messages).
  void Execute(std::function<void()> work) override;

  // Timer facility: fires `cb` after `delay_ns` through the CPU queue. Cancelable.
  EventId SetTimer(uint64_t delay_ns, std::function<void()> cb) override;
  void CancelTimer(EventId id) override;

  CostMeter& meter() override { return meter_; }

  uint64_t busy_ns() const { return busy_ns_; }  // Total CPU time consumed.
  uint64_t handled_messages() const { return handled_; }

  // Crash simulation (recovery tests): a crashed node silently drops deliveries and
  // queued work, and every pending timer dies with the incarnation (a generation
  // check — the Node object itself must stay alive because in-flight network events
  // hold raw pointers to it). Restart() begins a fresh incarnation; the new protocol
  // actor re-binds itself via its Process constructor.
  void Crash();
  void Restart() { crashed_ = false; }
  bool crashed() const { return crashed_; }

 protected:
  // Sends `msg` to `dst`; legal only inside Handle()/Execute() work. Charges the
  // serialization cost and buffers the message until the work item's CPU time is
  // spent. (wire_size was already finalized by Runtime::Send.)
  void DoSend(NodeId dst, MsgPtr msg) override;

  Network* network() { return net_; }

 private:
  struct Work {
    std::function<void()> fn;
    uint64_t enq_ns = 0;  // Simulated enqueue time; start - enq is queue wait.
  };

  void Dispatch();
  void RunWork(Work work, size_t worker);

  Network* net_;
  NodeId id_;
  MsgHandler* handler_ = nullptr;
  CostMeter meter_;
  std::vector<uint64_t> worker_free_at_;
  std::deque<Work> queue_;
  std::vector<std::pair<NodeId, MsgPtr>> outbox_;
  bool in_work_ = false;
  bool crashed_ = false;
  uint64_t generation_ = 0;  // Bumped by Crash(); orphans that incarnation's timers.
  bool wakeup_scheduled_ = false;
  uint64_t wakeup_at_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t handled_ = 0;
  // Queue observability in simulated time (docs/OBSERVABILITY.md). Recording is
  // passive — nothing reads these during a run — so results stay bit-identical
  // with metrics on (tests/test_strands.cc).
  obs::MetricId queue_wait_hist_ = obs::kInvalidMetric;
  obs::MetricId queue_depth_gauge_ = obs::kInvalidMetric;
};

}  // namespace basil

#endif  // BASIL_SRC_SIM_NODE_H_
