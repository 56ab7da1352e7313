// TcpRuntime: the real-network Runtime backend. One instance per node (usually one
// per OS process, see tools/basil_node.cc); peers are reached over TCP using the
// canonical message frames of docs/WIRE_FORMAT.md (stream rules in docs/TRANSPORT.md).
//
// Threading model (docs/TRANSPORT.md has the full picture):
//   - One event-loop thread runs the protocol's *stateful* work: message handlers,
//     Execute() items, timer callbacks, and every Post/OffloadVerify continuation.
//     Protocol state therefore needs no locking, exactly as on the simulator backend.
//   - N strand workers (the `workers` constructor argument) run Post() work items:
//     strand key -> worker by modulo, so tasks on one strand are FIFO-serialized on
//     one thread while distinct strands use distinct cores. There is always at
//     least one strand worker.
//   - A dedicated crypto pool (same size as the worker pool) runs OffloadVerify
//     batches, so Ed25519/HMAC signature verification never blocks the event loop;
//     verdicts are marshalled back to the loop via Execute (OffloadVerify) or to the
//     issuing strand via Post (OffloadVerifyTo).
//   - One acceptor thread owns the listening socket. Each accepted connection gets a
//     reader thread that reassembles frames (partial reads included) and posts decoded
//     messages to the event loop.
//   - Each peer this node sends to gets a writer thread with an outbox queue; the
//     writer (re)connects with capped exponential backoff, writes an identifying hello,
//     then streams frames. A send while disconnected just queues.
//
// Clocks: now() is CLOCK_MONOTONIC, which on Linux is system-wide (time since boot),
// so all processes on one host see the same timeline — MVTSO timestamp watermarks work
// unchanged for localhost deployments. Cross-machine deployments would need the
// watermark delta to absorb clock skew, as the paper's does.
#ifndef BASIL_SRC_NET_TCP_RUNTIME_H_
#define BASIL_SRC_NET_TCP_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/buffer_pool.h"
#include "src/common/config.h"
#include "src/common/cost.h"
#include "src/runtime/runtime.h"
#include "src/runtime/session.h"

namespace basil {

struct PeerAddr {
  std::string host;
  uint16_t port = 0;
};

// Gateway-side hook for session envelopes (docs/TRANSPORT.md "Session gateway"):
// when installed via SetSessionDemux, the reader hands each unwrapped inner
// message here instead of the node's MsgHandler, so the gateway can route it to
// the owning session. Calls arrive on the event loop.
class SessionDemux {
 public:
  virtual ~SessionDemux() = default;
  // `session` is the local session's virtual NodeId, `src` the real node the
  // envelope came from (the replying replica).
  virtual void DeliverToSession(NodeId session, NodeId src, MsgPtr msg) = 0;
};

class TcpRuntime : public Runtime {
 public:
  // `peers` is the full node table indexed by NodeId; peers[id] is this node's own
  // listen address. `workers` sizes both the strand worker pool and the crypto
  // offload pool; values below 1 are raised to 1. Call Start() to begin accepting
  // and delivering.
  TcpRuntime(NodeId id, std::vector<PeerAddr> peers, uint32_t workers = 1);
  ~TcpRuntime() override;

  // Binds the listen socket, then launches the event loop and acceptor threads.
  // Returns false if the listen address cannot be bound.
  bool Start();

  // Stops all threads and closes every socket. Idempotent; called by the destructor.
  void Stop();

  // Runtime interface.
  NodeId id() const override { return id_; }
  uint64_t now() const override;
  void Execute(std::function<void()> work) override;
  void Post(StrandKey strand, StrandFn work, std::function<void()> then = {}) override;
  void OffloadVerify(std::vector<VerifyFn> batch,
                     std::function<void(std::vector<uint8_t>)> done) override;
  void OffloadVerifyTo(StrandKey home, std::vector<VerifyFn> batch,
                       std::function<void(std::vector<uint8_t>)> done) override;
  EventId SetTimer(uint64_t delay_ns, std::function<void()> cb) override;
  void CancelTimer(EventId id) override;
  // Loop thread: the node meter. Pool threads: the worker's scratch meter (via a
  // thread-local), so partitioned handlers charging costs deep in protocol code
  // never race the loop's meter.
  CostMeter& meter() override;
  void Bind(MsgHandler* handler) override { handler_ = handler; }

  uint32_t workers() const { return static_cast<uint32_t>(strand_workers_.size()); }

  // Number of peer-table slots (aliases included — the gateway extends the table
  // with extra lanes per replica, see SessionMux::ExtendPeers).
  size_t num_peers() const { return peers_.size(); }

  // Installs (or clears, with nullptr) the gateway-side demultiplexer for
  // incoming session envelopes. Replica-side runtimes leave this unset: their
  // reader delivers the unwrapped message to the bound MsgHandler with the
  // virtual session id as its source.
  void SetSessionDemux(SessionDemux* demux) { session_demux_.store(demux); }

  // Bytes currently queued toward `dst` (outbox depth). The gateway's
  // backpressure window polls this to decide park vs send.
  size_t OutboxBytes(NodeId dst) const;

  // Replica-side envelopes dropped because a session's reply sequence space was
  // exhausted (kSessionSeqLimit sends — effectively never in practice).
  uint64_t session_seq_drops() const { return session_seq_drops_.load(); }

  // Blocks until `pred()` (evaluated on the event loop) returns true or `timeout_ns`
  // elapses. The driver's bridge from the blocking main thread into the loop.
  bool WaitUntil(const std::function<bool()>& pred, uint64_t timeout_ns);

  uint64_t messages_sent() const { return messages_sent_.load(); }
  uint64_t messages_received() const { return messages_received_.load(); }
  uint64_t bytes_sent() const { return bytes_sent_.load(); }
  uint64_t decode_failures() const { return decode_failures_.load(); }
  uint64_t reconnects() const { return reconnects_.load(); }
  // Parallel-pipeline accounting: how the heavy work was placed. The throughput
  // bench uses these to prove signature verification left the event-loop thread.
  uint64_t posted_tasks() const { return posted_tasks_.load(); }
  uint64_t offloaded_checks() const { return offloaded_checks_.load(); }
  // Always 0: every signature check runs on the crypto pool. Kept only because
  // perfbench/basil_perf.cc still sums it into tcp.verifies_per_txn.
  uint64_t inline_checks() const { return 0; }
  // Frames shed by DoSend when a peer's outbox hit its cap. Nonzero means the
  // deployment lost messages to backpressure — quorums mask it, benches assert 0.
  uint64_t dropped_frames() const { return dropped_frames_.load(); }

  // The runtime-owned frame pool: encode scratch, outbox frames, and reader blocks
  // all rent from here. Exposed for benches that want hit-rate numbers.
  const BufferPool& pool() const { return pool_; }

  // Copies the pool's live counters into the rt.alloc.* gauges and bytes_sent()
  // into the rt.wire.bytes_sent gauge. The pool itself never touches the registry
  // (frame deleters may run after it is gone) and the send path only bumps its
  // atomic, so snapshots call this just before reading metrics().
  void PublishAllocMetrics();

 protected:
  void DoSend(NodeId dst, MsgPtr msg) override;

 private:
  // One outbox entry: pooled frame bytes plus how many wire frames they hold.
  // DoSend coalesces into the newest entry while the writer is backlogged, so an
  // entry can carry several length-prefixed frames back to back — the count keeps
  // drop accounting exact when the shed loop discards a coalesced entry.
  struct OutFrame {
    std::vector<uint8_t> bytes;
    uint32_t frames = 1;
  };

  struct Peer {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<OutFrame> outbox;  // Encoded frames awaiting the writer.
    size_t outbox_bytes = 0;
    bool writer_running = false;
    std::thread writer;
  };

  struct TimerEntry {
    std::function<void()> cb;
  };

  // Loop task stamped with its enqueue time (0 when metrics were off at enqueue):
  // the delta to dequeue is the event-loop queue-wait histogram.
  struct LoopTask {
    std::function<void()> fn;
    uint64_t enq_ns = 0;
  };

  struct PoolTask {
    std::function<void(CostMeter&)> fn;
    uint64_t enq_ns = 0;
  };

  // One strand/crypto pool thread: a FIFO queue of closures plus a scratch CostMeter
  // (protocol code charges simulated costs uniformly; on this backend the charges
  // are discarded, but they must not race the event loop's meter). `wait_hist` /
  // `depth_gauge` identify the pool's queue metrics (strand vs crypto) in metrics().
  struct PoolWorker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<PoolTask> queue;
    std::thread thread;
    obs::MetricId wait_hist = obs::kInvalidMetric;
    obs::MetricId depth_gauge = obs::kInvalidMetric;
    // Per-worker depth distribution (rt.strand.w<i>.queue_depth), observed at every
    // enqueue: with partitioned execution state each strand worker owns a set of
    // partitions, so this histogram is the per-partition backlog p99 the throughput
    // bench and docs/OBSERVABILITY.md report. Invalid for crypto workers (their
    // round-robin queues are interchangeable).
    obs::MetricId depth_hist = obs::kInvalidMetric;
  };

  void LoopMain();
  void AcceptMain(int listen_fd);
  void ReaderMain(size_t slot, int fd);
  void WriterMain(NodeId dst);
  void PoolMain(PoolWorker* worker);
  void EnqueuePool(PoolWorker* worker, std::function<void(CostMeter&)> task);

  // Connects to `dst` and writes the hello; returns the fd or -1.
  int ConnectToPeer(NodeId dst);

  const NodeId id_;
  const std::vector<PeerAddr> peers_;
  // Atomic: bound from the constructing thread, read by the event loop.
  std::atomic<MsgHandler*> handler_{nullptr};
  // Gateway-side envelope router (null on replicas). Atomic: installed once at
  // setup, read by reader threads.
  std::atomic<SessionDemux*> session_demux_{nullptr};

  // Replica-side per-session reply sequence counters. Guarded by session_mu_,
  // which is held across the enqueue of the wrapped envelope so sequence order
  // matches outbox order even when loop and strand threads reply concurrently.
  std::mutex session_mu_;
  std::unordered_map<NodeId, uint32_t> session_tx_seq_;
  std::atomic<uint64_t> session_seq_drops_{0};

  // The meter exists so shared protocol code can charge costs uniformly; on this
  // backend nothing consumes it (real CPU time is the cost model).
  CostModel cost_model_;
  CostMeter meter_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;

  // Event loop: task queue + timer heap, both guarded by loop_mu_.
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  std::deque<LoopTask> tasks_;
  std::map<std::pair<uint64_t, EventId>, TimerEntry> timers_;  // (deadline, id).
  std::unordered_set<EventId> cancelled_timers_;
  EventId next_timer_id_ = 1;
  std::thread loop_thread_;

  std::thread accept_thread_;
  // Reader-fd ownership: reader_fds_[slot] holds a live fd; the reader closes it
  // and writes -1 under readers_mu_ when it exits, so Stop (which only shutdown()s
  // under the same mutex to wake blocked recvs, then joins) never touches a closed
  // or recycled descriptor.
  std::mutex readers_mu_;
  std::vector<std::thread> readers_;
  std::vector<int> reader_fds_;

  std::vector<std::unique_ptr<Peer>> peer_state_;

  // Strand workers (Post) and the crypto offload pool (OffloadVerify). Sized by the
  // `workers` constructor argument (at least one worker each).
  std::vector<std::unique_ptr<PoolWorker>> strand_workers_;
  std::vector<std::unique_ptr<PoolWorker>> crypto_workers_;
  std::atomic<uint64_t> crypto_rr_{0};  // Round-robin cursor over crypto_workers_.

  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> messages_received_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> decode_failures_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> posted_tasks_{0};
  std::atomic<uint64_t> offloaded_checks_{0};
  std::atomic<uint64_t> dropped_frames_{0};

  // Size-classed frame pool shared by the send path (Encoder scratch, outbox
  // frames) and the receive path (reassembler blocks). Destruction order is a
  // non-issue: Stop() joins every thread before members die, and blocks that
  // escaped into handlers keep the pool's shared state alive on their own.
  BufferPool pool_;

  // Queue observability (docs/OBSERVABILITY.md): wait histograms + depth gauges for
  // the event loop and the per-peer writer outboxes (pool workers carry their own
  // IDs). Interned once in the constructor; record paths are lock-free.
  obs::MetricId loop_wait_hist_ = obs::kInvalidMetric;
  obs::MetricId loop_depth_gauge_ = obs::kInvalidMetric;
  obs::MetricId writer_frames_gauge_ = obs::kInvalidMetric;
  obs::MetricId writer_bytes_gauge_ = obs::kInvalidMetric;
  // Backpressure drops (counter, Inc'd at the shed site), pool counters and bytes
  // sent (gauges, filled by PublishAllocMetrics from BufferPool::stats() and
  // bytes_sent_).
  obs::MetricId writer_dropped_counter_ = obs::kInvalidMetric;
  obs::MetricId alloc_hits_gauge_ = obs::kInvalidMetric;
  obs::MetricId alloc_misses_gauge_ = obs::kInvalidMetric;
  obs::MetricId alloc_recycled_gauge_ = obs::kInvalidMetric;
  obs::MetricId alloc_recycled_bytes_gauge_ = obs::kInvalidMetric;
  obs::MetricId alloc_outstanding_hw_gauge_ = obs::kInvalidMetric;
  obs::MetricId wire_bytes_gauge_ = obs::kInvalidMetric;
  // Self-sampled busy fraction of the event loop (percent, ~1 s windows): with
  // partitioned state the loop should be mostly demux + send, so this histogram is
  // the "loop went idle" proof (docs/OBSERVABILITY.md).
  obs::MetricId loop_residency_hist_ = obs::kInvalidMetric;
};

}  // namespace basil

#endif  // BASIL_SRC_NET_TCP_RUNTIME_H_
