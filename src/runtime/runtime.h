// The messaging runtime a protocol actor runs on. Protocol code (Basil, Tapir, the
// BFT baselines) is written against this interface only; the backend underneath is
// swappable:
//
//   - sim::Node (src/sim/node.h): the deterministic discrete-event simulator with the
//     CPU-cost queueing model. All tier-1 tests and the paper-figure benchmarks run on
//     this backend.
//   - net::TcpRuntime (src/net/tcp_runtime.h): real threads, a monotonic clock, and
//     canonical frames over TCP sockets — one OS process per node (docs/TRANSPORT.md).
//
// A `Process` is the protocol-side half: it binds itself to a Runtime at construction
// and receives messages through Handle(). The forwarding members keep protocol code
// reading exactly as it did when nodes and protocol logic were one class.
#ifndef BASIL_SRC_RUNTIME_RUNTIME_H_
#define BASIL_SRC_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/cost.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/runtime/msg.h"
#include "src/runtime/task.h"

namespace basil {

using EventId = uint64_t;

// Key selecting a serialization strand for Runtime::Post. Tasks posted under the same
// key are serialized in FIFO order; tasks under different keys may run concurrently
// (on the TCP backend's worker pool), so strand work must only touch state that is
// private to the strand — in practice: pure CPU work (hashing, signature checks,
// batch sealing) over immutable inputs. Conventions (docs/TRANSPORT.md): transaction
// execution work is keyed by txn digest, connection-scoped work by peer id.
using StrandKey = uint64_t;

inline StrandKey StrandOfDigest(const TxnDigest& digest) {
  StrandKey k = 0;
  static_assert(sizeof(k) <= sizeof(digest));
  __builtin_memcpy(&k, digest.data(), sizeof(k));
  return k;
}

inline StrandKey StrandOfNode(NodeId id) { return 0x9e3779b97f4a7c15ull ^ id; }

// A unit of strand work. It receives the CostMeter it must charge: the node's own
// meter when the backend runs it inline (the simulator), a per-worker scratch meter
// when it runs on a real thread (the TCP backend, where real time is the cost and
// the node meter must not be raced).
using StrandFn = std::function<void(CostMeter&)>;

// One signature-verification job for Runtime::OffloadVerify: a pure predicate over
// immutable keys/certificates (plus thread-safe caches like BatchVerifier's).
using VerifyFn = std::function<bool(CostMeter&)>;

// Protocol-side message sink; implemented by Process.
class MsgHandler {
 public:
  virtual ~MsgHandler() = default;

  // Protocol logic, invoked by the runtime for each delivered message. Backends
  // guarantee handlers never run concurrently with each other or with timer/Execute
  // work on the same runtime, so protocol state needs no locking.
  virtual void Handle(const MsgEnvelope& env) = 0;
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  virtual NodeId id() const = 0;

  // Current time in ns. Simulated time on sim::Node; CLOCK_MONOTONIC on TcpRuntime
  // (consistent across processes on one host, which keeps MVTSO timestamps sane for
  // localhost deployments).
  virtual uint64_t now() const = 0;

  // Sends `msg` to `dst`. For codec-registered kinds the message's wire_size is
  // derived from its canonical encoding here — no call site sizes messages by hand.
  void Send(NodeId dst, MsgPtr msg) {
    FinalizeWireSize(*msg);
    DoSend(dst, std::move(msg));
  }

  void SendToAll(const std::vector<NodeId>& dsts, const MsgPtr& msg) {
    FinalizeWireSize(*msg);
    for (NodeId dst : dsts) {
      DoSend(dst, msg);
    }
  }

  // Queues an arbitrary work item onto the runtime's handler context (timer bodies,
  // batch flushes — anything that may touch protocol state or send messages).
  virtual void Execute(std::function<void()> work) = 0;

  // ---- Strand-sharded execution (the parallel pipeline, docs/TRANSPORT.md) ----
  //
  // Post: runs `work` on the strand selected by `strand`, then `then` (optional)
  // back in the handler context. Contract: work posted under the same strand key is
  // serialized in FIFO order; different keys may run concurrently, so `work` must be
  // pure CPU over inputs it owns or that are immutable. `then` may touch protocol
  // state — it runs where handlers run.
  //
  // The default implementation is the simulator's: both closures run inline,
  // synchronously, charging the node meter. Parallelism there is already modeled by
  // the k-worker CPU queue dispatching concurrent *messages* (sim::Node), so inline
  // execution keeps simulated results independent of strand keys and partition
  // counts while the same protocol source exploits real cores on TcpRuntime.
  virtual void Post(StrandKey strand, StrandFn work, std::function<void()> then = {}) {
    (void)strand;  // One handler context: every strand is trivially serialized.
    work(meter());
    if (then) {
      then();
    }
  }

  // OffloadVerify: runs a batch of signature checks off the handler thread (the
  // TCP backend's dedicated crypto pool), then `done` with one verdict per check,
  // back in the handler context. Same default as Post: inline and synchronous, so
  // the simulator charges verification to the current work item exactly as the old
  // inline call sites did.
  virtual void OffloadVerify(std::vector<VerifyFn> batch,
                             std::function<void(std::vector<uint8_t>)> done) {
    std::vector<uint8_t> verdicts;
    verdicts.reserve(batch.size());
    for (VerifyFn& check : batch) {
      verdicts.push_back(check(meter()) ? 1 : 0);
    }
    done(std::move(verdicts));
  }

  // OffloadVerifyTo: like OffloadVerify, but `done` runs on the strand selected by
  // `home` instead of the handler context. This is the partitioned-state variant
  // (docs/TRANSPORT.md "Partitioned execution state"): a handler running on its owning strand
  // offloads a signature check and continues on the same strand when the verdict
  // lands, never touching the loop thread. Default (the simulator's): inline and
  // synchronous, identical to OffloadVerify.
  virtual void OffloadVerifyTo(StrandKey home, std::vector<VerifyFn> batch,
                               std::function<void(std::vector<uint8_t>)> done) {
    (void)home;  // One handler context: the home strand is where we already are.
    OffloadVerify(std::move(batch), std::move(done));
  }

  // Single-check convenience over OffloadVerify.
  void Verify1(VerifyFn check, std::function<void(bool)> then) {
    std::vector<VerifyFn> batch;
    batch.push_back(std::move(check));
    OffloadVerify(std::move(batch),
                  [then = std::move(then)](std::vector<uint8_t> verdicts) {
                    then(!verdicts.empty() && verdicts[0] != 0);
                  });
  }

  // Timer facility: fires `cb` in the handler context after `delay_ns`. Cancelable.
  virtual EventId SetTimer(uint64_t delay_ns, std::function<void()> cb) = 0;
  virtual void CancelTimer(EventId id) = 0;

  // CPU-cost accounting. The simulator's queueing model consumes it; the TCP backend
  // accepts charges but real time is what passes.
  virtual CostMeter& meter() = 0;

  // Observability registry for this runtime (docs/OBSERVABILITY.md): backends record
  // queue wait/depth here, protocol actors intern their counters and trace-span
  // histograms through it. Recording is passive — nothing in the protocol reads a
  // metric — so simulated results stay bit-identical with metrics on.
  // Virtual so facade runtimes (the gateway's per-session SessionRuntime,
  // src/net/gateway.h) can expose a shared registry instead of their own.
  virtual obs::MetricsRegistry& metrics() { return metrics_; }
  virtual const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Attaches the protocol actor that receives this runtime's messages.
  virtual void Bind(MsgHandler* handler) = 0;

 protected:
  Runtime() = default;

  // Backend send: `msg` already has its final wire_size.
  virtual void DoSend(NodeId dst, MsgPtr msg) = 0;

  obs::MetricsRegistry metrics_;
};

// Base class for protocol actors. Construction binds the actor to its runtime; the
// protected forwarders give subclasses the familiar Send/SetTimer/now surface.
class Process : public MsgHandler {
 public:
  explicit Process(Runtime* rt) : rt_(rt) { rt_->Bind(this); }

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  NodeId id() const { return rt_->id(); }
  uint64_t now() const { return rt_->now(); }
  CostMeter& meter() { return rt_->meter(); }
  obs::MetricsRegistry& metrics() { return rt_->metrics(); }
  Runtime& runtime() { return *rt_; }

  void Send(NodeId dst, MsgPtr msg) { rt_->Send(dst, std::move(msg)); }
  void SendToAll(const std::vector<NodeId>& dsts, const MsgPtr& msg) {
    rt_->SendToAll(dsts, msg);
  }
  void Execute(std::function<void()> work) { rt_->Execute(std::move(work)); }
  void Post(StrandKey strand, StrandFn work, std::function<void()> then = {}) {
    rt_->Post(strand, std::move(work), std::move(then));
  }
  void Verify1(VerifyFn check, std::function<void(bool)> then) {
    rt_->Verify1(std::move(check), std::move(then));
  }
  // Single-check convenience over OffloadVerifyTo: the verdict continuation runs on
  // strand `home` (the partition that issued the check), not the handler context.
  void Verify1On(StrandKey home, VerifyFn check, std::function<void(bool)> then) {
    std::vector<VerifyFn> batch;
    batch.push_back(std::move(check));
    rt_->OffloadVerifyTo(home, std::move(batch),
                         [then = std::move(then)](std::vector<uint8_t> verdicts) {
                           then(!verdicts.empty() && verdicts[0] != 0);
                         });
  }
  EventId SetTimer(uint64_t delay_ns, std::function<void()> cb) {
    return rt_->SetTimer(delay_ns, std::move(cb));
  }
  void CancelTimer(EventId id) { rt_->CancelTimer(id); }

 private:
  Runtime* rt_;
};

// Coroutine sleep: resumes after `delay_ns` through the node's timer facility (used
// by closed-loop clients for retry backoff). Works on anything exposing SetTimer —
// a Runtime or a Process.
template <typename N>
Task<void> SleepNs(N& node, uint64_t delay_ns) {
  OneShot done;
  OneShot* signal = &done;
  node.SetTimer(delay_ns, [signal]() { signal->Fire(); });
  co_await done;
}

}  // namespace basil

#endif  // BASIL_SRC_RUNTIME_RUNTIME_H_
