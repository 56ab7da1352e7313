#include "src/net/tcp_runtime.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/runtime/frame.h"

namespace basil {
namespace {

// Connection hello: magic + protocol version + sender NodeId, all little-endian.
// Written once by the connecting side; the accepting side learns who is talking.
constexpr uint8_t kHelloMagic[4] = {'B', 'S', 'L', '1'};
constexpr uint32_t kProtocolVersion = 1;
constexpr size_t kHelloBytes = 12;

// Per-peer outbox cap. A dead peer must not make a sender hoard unbounded memory;
// Basil tolerates lost messages (clients retry, f replicas may be silent), so frames
// beyond the cap are dropped oldest-first.
constexpr size_t kMaxOutboxBytes = 64u << 20;

// When the writer is backlogged, DoSend appends new frames into the newest outbox
// entry until it reaches this size, so one write() moves many frames. Capped well
// under the pool's largest size class to keep the coalesced buffer recyclable.
constexpr size_t kCoalesceLimitBytes = 256u << 10;

// Max outbox entries one writev() covers. With coalescing each entry can already
// hold many frames, so a small iovec is plenty.
constexpr int kWritevBatch = 16;

uint64_t MonotonicNowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void PutU32Le(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

bool WriteAll(int fd, const uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, uint8_t* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

void CloseQuiet(int fd) {
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

// Loop-residency sampling window (LoopMain).
constexpr uint64_t kResidencyWindowNs = 1'000'000'000ull;

// Pool threads run protocol code that may call Runtime::meter() arbitrarily deep
// (partitioned handlers charge costs from their owning strand); this points them at
// their worker's scratch meter instead of the loop-owned one. Each pool thread
// belongs to exactly one TcpRuntime, so a plain thread_local is unambiguous.
thread_local CostMeter* tls_scratch_meter = nullptr;

// Runs a verify batch on a crypto worker: one verdict byte per check.
std::vector<uint8_t> RunChecks(std::vector<VerifyFn>& batch, CostMeter& m) {
  std::vector<uint8_t> verdicts;
  verdicts.reserve(batch.size());
  for (VerifyFn& check : batch) {
    verdicts.push_back(check(m) ? 1 : 0);
  }
  return verdicts;
}

}  // namespace

TcpRuntime::TcpRuntime(NodeId id, std::vector<PeerAddr> peers, uint32_t workers)
    : id_(id), peers_(std::move(peers)), meter_(&cost_model_) {
  peer_state_.reserve(peers_.size());
  for (size_t i = 0; i < peers_.size(); ++i) {
    peer_state_.push_back(std::make_unique<Peer>());
  }
  loop_wait_hist_ = metrics_.RegisterHistogram("rt.loop.queue_wait_ns");
  loop_depth_gauge_ = metrics_.RegisterGauge("rt.loop.queue_depth");
  writer_frames_gauge_ = metrics_.RegisterGauge("rt.writer.outbox_frames");
  writer_bytes_gauge_ = metrics_.RegisterGauge("rt.writer.outbox_bytes");
  writer_dropped_counter_ = metrics_.RegisterCounter("rt.writer.dropped_frames");
  alloc_hits_gauge_ = metrics_.RegisterGauge("rt.alloc.pool_hits");
  alloc_misses_gauge_ = metrics_.RegisterGauge("rt.alloc.pool_misses");
  alloc_recycled_gauge_ = metrics_.RegisterGauge("rt.alloc.recycled");
  alloc_recycled_bytes_gauge_ = metrics_.RegisterGauge("rt.alloc.recycled_bytes");
  alloc_outstanding_hw_gauge_ =
      metrics_.RegisterGauge("rt.alloc.outstanding_high_water");
  wire_bytes_gauge_ = metrics_.RegisterGauge("rt.wire.bytes_sent");
  // All strand workers share one wait histogram (ditto crypto): the interesting
  // signal is pipeline-stage backlog, not per-thread skew.
  const obs::MetricId strand_wait = metrics_.RegisterHistogram("rt.strand.queue_wait_ns");
  const obs::MetricId strand_depth = metrics_.RegisterGauge("rt.strand.queue_depth");
  const obs::MetricId crypto_wait = metrics_.RegisterHistogram("rt.crypto.queue_wait_ns");
  const obs::MetricId crypto_depth = metrics_.RegisterGauge("rt.crypto.queue_depth");
  loop_residency_hist_ = metrics_.RegisterHistogram("rt.loop.residency_pct");
  for (uint32_t i = 0; i < std::max<uint32_t>(1, workers); ++i) {
    strand_workers_.push_back(std::make_unique<PoolWorker>());
    strand_workers_.back()->wait_hist = strand_wait;
    strand_workers_.back()->depth_gauge = strand_depth;
    // Per-worker depth histogram: each strand worker owns a fixed set of partitions
    // under partitioned execution state, so w<i> backlog == partition backlog.
    strand_workers_.back()->depth_hist = metrics_.RegisterHistogram(
        "rt.strand.w" + std::to_string(i) + ".queue_depth");
    crypto_workers_.push_back(std::make_unique<PoolWorker>());
    crypto_workers_.back()->wait_hist = crypto_wait;
    crypto_workers_.back()->depth_gauge = crypto_depth;
  }
}

TcpRuntime::~TcpRuntime() { Stop(); }

void TcpRuntime::PublishAllocMetrics() {
  // Pull model: the pool never holds a registry pointer (frame deleters can run
  // after teardown started), so snapshots copy its counters into gauges here.
  const BufferPool::Stats s = pool_.stats();
  metrics_.Set(alloc_hits_gauge_, s.hits);
  metrics_.Set(alloc_misses_gauge_, s.misses);
  metrics_.Set(alloc_recycled_gauge_, s.recycled);
  metrics_.Set(alloc_recycled_bytes_gauge_, s.recycled_bytes);
  metrics_.Set(alloc_outstanding_hw_gauge_, s.outstanding_high_water);
  metrics_.Set(wire_bytes_gauge_, bytes_sent_.load());
}

uint64_t TcpRuntime::now() const { return MonotonicNowNs(); }

CostMeter& TcpRuntime::meter() {
  return tls_scratch_meter != nullptr ? *tls_scratch_meter : meter_;
}

bool TcpRuntime::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(peers_.at(id_).port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    std::fprintf(stderr, "node %u: cannot listen on port %u: %s\n", id_,
                 peers_.at(id_).port, std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  running_.store(true);
  loop_thread_ = std::thread([this]() { LoopMain(); });
  accept_thread_ = std::thread([this, fd = listen_fd_]() { AcceptMain(fd); });
  for (auto& w : strand_workers_) {
    w->thread = std::thread([this, w = w.get()]() { PoolMain(w); });
  }
  for (auto& w : crypto_workers_) {
    w->thread = std::thread([this, w = w.get()]() { PoolMain(w); });
  }
  return true;
}

void TcpRuntime::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Join order matters. Accept first: once it is gone, the reader set is frozen and
  // every reader fd can be shut down (shutting fds down before this join would race
  // a just-accepted connection whose fd misses the shutdown pass and whose reader
  // then blocks in recv forever). Blocked threads are woken with shutdown(), never
  // close(): an fd is closed only by its owning thread (readers close their own on
  // exit, the acceptor's is closed here after its join), so no thread ever operates
  // on a descriptor another thread has released for reuse. The loop goes before the
  // writers: it is still draining handler tasks, and a drained handler's Send may
  // spawn a writer thread — joining writers while that can happen races the
  // std::thread object and can leave a joinable thread behind at destruction.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // accept() returns; the acceptor exits.
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (int fd : reader_fds_) {
      if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);  // recv() returns 0; the reader exits.
      }
    }
  }
  loop_cv_.notify_all();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // Pools after the loop (drained handlers may still Post), before the writers
  // (pool work may Send, which only queues frames once running_ is false).
  for (auto* pools : {&strand_workers_, &crypto_workers_}) {
    for (auto& w : *pools) {
      {
        std::lock_guard<std::mutex> lock(w->mu);
        w->cv.notify_all();
      }
      if (w->thread.joinable()) {
        w->thread.join();
      }
    }
  }
  for (auto& peer : peer_state_) {
    {
      std::lock_guard<std::mutex> lock(peer->mu);
      peer->cv.notify_all();
    }
    if (peer->writer.joinable()) {
      peer->writer.join();
    }
  }
  // Join readers without the mutex (their exit path takes it to release their fd).
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    readers.swap(readers_);
  }
  for (auto& t : readers) {
    if (t.joinable()) {
      t.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    reader_fds_.clear();
  }
}

// ---------------------------------------------------------------------------
// Event loop: all protocol work (handlers, Execute items, timers) runs here.
// ---------------------------------------------------------------------------

void TcpRuntime::LoopMain() {
  // Residency self-sampling: fraction of each ~1 s window the loop spent running
  // callbacks (percent). With partitioned execution state the loop should be mostly
  // idle demux + send; this histogram is the proof (docs/OBSERVABILITY.md).
  uint64_t window_start = MonotonicNowNs();
  uint64_t busy_ns = 0;
  auto charge_busy = [&](uint64_t t0, uint64_t t1) {
    busy_ns += t1 - t0;
    if (t1 - window_start >= kResidencyWindowNs) {
      metrics_.Observe(loop_residency_hist_, busy_ns * 100 / (t1 - window_start));
      window_start = t1;
      busy_ns = 0;
    }
  };
  std::unique_lock<std::mutex> lock(loop_mu_);
  while (true) {
    // Drain due timers and queued tasks.
    const uint64_t t = MonotonicNowNs();
    if (metrics_.enabled() && t - window_start >= kResidencyWindowNs) {
      // Idle-window flush: emit the (low) residency even when no callback ran.
      metrics_.Observe(loop_residency_hist_, busy_ns * 100 / (t - window_start));
      window_start = t;
      busy_ns = 0;
    }
    while (!timers_.empty() && timers_.begin()->first.first <= t) {
      auto node = timers_.extract(timers_.begin());
      const EventId tid = node.key().second;
      if (cancelled_timers_.erase(tid) > 0) {
        continue;
      }
      lock.unlock();
      const uint64_t t0 = metrics_.enabled() ? MonotonicNowNs() : 0;
      node.mapped().cb();
      if (t0 != 0) {
        charge_busy(t0, MonotonicNowNs());
      }
      lock.lock();
    }
    if (!tasks_.empty()) {
      LoopTask task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      const uint64_t t0 = metrics_.enabled() ? MonotonicNowNs() : 0;
      if (task.enq_ns != 0) {
        metrics_.Observe(loop_wait_hist_,
                         (t0 != 0 ? t0 : MonotonicNowNs()) - task.enq_ns);
      }
      task.fn();
      if (t0 != 0) {
        charge_busy(t0, MonotonicNowNs());
      }
      lock.lock();
      continue;
    }
    if (!running_.load()) {
      return;
    }
    if (timers_.empty()) {
      loop_cv_.wait(lock);
    } else {
      const uint64_t next = timers_.begin()->first.first;
      const uint64_t now_ns = MonotonicNowNs();
      if (next > now_ns) {
        loop_cv_.wait_for(lock, std::chrono::nanoseconds(next - now_ns));
      }
    }
  }
}

void TcpRuntime::Execute(std::function<void()> work) {
  const uint64_t enq = metrics_.enabled() ? MonotonicNowNs() : 0;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    tasks_.push_back(LoopTask{std::move(work), enq});
    depth = tasks_.size();
  }
  loop_cv_.notify_one();
  if (enq != 0) {
    metrics_.Set(loop_depth_gauge_, depth);
  }
}

// ---------------------------------------------------------------------------
// Strand workers + crypto offload pool (the parallel execution pipeline).
// ---------------------------------------------------------------------------

void TcpRuntime::EnqueuePool(PoolWorker* worker,
                             std::function<void(CostMeter&)> task) {
  const uint64_t enq = metrics_.enabled() ? MonotonicNowNs() : 0;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->queue.push_back(PoolTask{std::move(task), enq});
    depth = worker->queue.size();
  }
  worker->cv.notify_one();
  if (enq != 0) {
    metrics_.Set(worker->depth_gauge, depth);
    if (worker->depth_hist != obs::kInvalidMetric) {
      metrics_.Observe(worker->depth_hist, depth);
    }
  }
}

void TcpRuntime::PoolMain(PoolWorker* worker) {
  // Scratch meter: protocol closures charge simulated costs uniformly; here the
  // accrual is discarded (real time is the cost) but must not race the loop's meter.
  // The thread-local lets meter() calls deep inside partitioned handlers find it.
  CostMeter scratch(&cost_model_);
  tls_scratch_meter = &scratch;
  while (true) {
    PoolTask task;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock, [&]() {
        return !worker->queue.empty() || !running_.load();
      });
      if (!running_.load()) {
        return;  // Shutdown drops queued strand work, like a crashed node.
      }
      task = std::move(worker->queue.front());
      worker->queue.pop_front();
    }
    if (task.enq_ns != 0) {
      metrics_.Observe(worker->wait_hist, MonotonicNowNs() - task.enq_ns);
    }
    task.fn(scratch);
    scratch.TakeConsumed();
  }
}

void TcpRuntime::Post(StrandKey strand, StrandFn work, std::function<void()> then) {
  posted_tasks_.fetch_add(1);
  PoolWorker* worker = strand_workers_[strand % strand_workers_.size()].get();
  EnqueuePool(worker, [this, work = std::move(work),
                       then = std::move(then)](CostMeter& m) {
    work(m);
    if (then) {
      Execute(then);
    }
  });
}

void TcpRuntime::OffloadVerify(std::vector<VerifyFn> batch,
                               std::function<void(std::vector<uint8_t>)> done) {
  offloaded_checks_.fetch_add(batch.size());
  PoolWorker* worker =
      crypto_workers_[crypto_rr_.fetch_add(1) % crypto_workers_.size()].get();
  EnqueuePool(worker, [this, batch = std::move(batch),
                       done = std::move(done)](CostMeter& m) mutable {
    Execute([done = std::move(done), verdicts = RunChecks(batch, m)]() mutable {
      done(std::move(verdicts));
    });
  });
}

void TcpRuntime::OffloadVerifyTo(StrandKey home, std::vector<VerifyFn> batch,
                                 std::function<void(std::vector<uint8_t>)> done) {
  offloaded_checks_.fetch_add(batch.size());
  PoolWorker* worker =
      crypto_workers_[crypto_rr_.fetch_add(1) % crypto_workers_.size()].get();
  EnqueuePool(worker, [this, home, batch = std::move(batch),
                       done = std::move(done)](CostMeter& m) mutable {
    // Home-return: the verdict continuation goes back to the owning strand, not
    // the event loop — the partitioned-state contract (docs/TRANSPORT.md).
    Post(home, [done = std::move(done),
                verdicts = RunChecks(batch, m)](CostMeter&) mutable {
      done(std::move(verdicts));
    });
  });
}

EventId TcpRuntime::SetTimer(uint64_t delay_ns, std::function<void()> cb) {
  EventId tid;
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    tid = next_timer_id_++;
    timers_.emplace(std::make_pair(MonotonicNowNs() + delay_ns, tid),
                    TimerEntry{std::move(cb)});
  }
  loop_cv_.notify_one();
  return tid;
}

void TcpRuntime::CancelTimer(EventId id) {
  std::lock_guard<std::mutex> lock(loop_mu_);
  cancelled_timers_.insert(id);
}

bool TcpRuntime::WaitUntil(const std::function<bool()>& pred, uint64_t timeout_ns) {
  struct Probe {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool result = false;
  };
  const uint64_t deadline = MonotonicNowNs() + timeout_ns;
  while (MonotonicNowNs() < deadline) {
    // Shared state: if the loop is wedged past our patience, the straggling task may
    // still run later and must not touch a dead stack frame.
    auto probe = std::make_shared<Probe>();
    Execute([probe, pred]() {
      const bool r = pred();
      std::lock_guard<std::mutex> lock(probe->mu);
      probe->result = r;
      probe->done = true;
      probe->cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(probe->mu);
    if (!probe->cv.wait_for(lock, std::chrono::seconds(5),
                            [&]() { return probe->done; })) {
      return false;  // Loop wedged or stopped.
    }
    if (probe->result) {
      return true;
    }
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// ---------------------------------------------------------------------------
// Send path: encode once, queue to the peer's writer thread.
// ---------------------------------------------------------------------------

void TcpRuntime::DoSend(NodeId dst, MsgPtr msg) {
  if (dst == id_) {
    // Loopback: deliver through the event loop without touching a socket.
    messages_sent_.fetch_add(1);
    Execute([this, msg = std::move(msg)]() {
      if (MsgHandler* h = handler_.load()) {
        h->Handle(MsgEnvelope{id_, id_, msg});
      }
    });
    return;
  }
  if (IsSessionNode(dst)) {
    // Reply to a gateway-multiplexed session (docs/TRANSPORT.md "Session
    // gateway"): wrap the message in a session envelope and route it to the
    // owning gateway's real node. session_mu_ is held across the nested DoSend
    // so the per-session sequence numbers hit the outbox in issue order even
    // when the loop and strand threads reply to one session concurrently (the
    // receiver rejects any non-increasing sequence as a replay).
    const NodeId gw = SessionGateway(dst);
    if (gw == id_ || gw >= peers_.size()) {
      return;  // Unroutable gateway: nothing to deliver to.
    }
    auto env = std::make_shared<SessionEnvelopeMsg>();
    env->session = dst;
    env->inner = std::move(msg);
    std::lock_guard<std::mutex> lock(session_mu_);
    uint32_t& seq = session_tx_seq_[dst];
    if (seq >= kSessionSeqLimit) {
      session_seq_drops_.fetch_add(1);
      return;  // Sequence space exhausted: the session must be retired.
    }
    env->seq = ++seq;
    FinalizeWireSize(*env);
    DoSend(gw, std::move(env));
    return;
  }
  if (dst >= peers_.size()) {
    return;
  }
  Encoder enc(&pool_);
  if (!EncodeMsgFrame(*msg, enc)) {
    std::fprintf(stderr,
                 "node %u: dropping message kind %u with no codec (TCP transport "
                 "requires canonical codecs)\n",
                 id_, static_cast<unsigned>(msg->kind));
    return;
  }
  std::vector<uint8_t> frame = enc.TakeBytes();
  const size_t frame_size = frame.size();
  Peer& peer = *peer_state_[dst];
  size_t outbox_frames;
  size_t outbox_bytes;
  uint64_t shed = 0;
  {
    std::lock_guard<std::mutex> lock(peer.mu);
    // Shed oldest frames when a peer is unreachable for long: Basil's quorums and
    // client retries tolerate message loss, unbounded buffering they do not. Every
    // shed frame is counted (satellites assert the count stays zero in benches).
    while (peer.outbox_bytes + frame_size > kMaxOutboxBytes &&
           !peer.outbox.empty()) {
      OutFrame& victim = peer.outbox.front();
      peer.outbox_bytes -= victim.bytes.size();
      shed += victim.frames;
      pool_.Recycle(std::move(victim.bytes));
      peer.outbox.pop_front();
    }
    if (!peer.outbox.empty() &&
        peer.outbox.back().bytes.size() + frame_size <= kCoalesceLimitBytes) {
      // Writer is backlogged: append into the open tail entry so the writer moves
      // more bytes per syscall, and hand the fresh frame's storage straight back.
      OutFrame& back = peer.outbox.back();
      back.bytes.insert(back.bytes.end(), frame.begin(), frame.end());
      back.frames += 1;
      pool_.Recycle(std::move(frame));
    } else {
      peer.outbox.push_back(OutFrame{std::move(frame), 1});
    }
    peer.outbox_bytes += frame_size;
    outbox_frames = peer.outbox.size();
    outbox_bytes = peer.outbox_bytes;
    if (!peer.writer_running && running_.load()) {
      peer.writer_running = true;
      peer.writer = std::thread([this, dst]() { WriterMain(dst); });
    }
  }
  peer.cv.notify_one();
  if (shed > 0) {
    const uint64_t total = dropped_frames_.fetch_add(shed) + shed;
    metrics_.Inc(writer_dropped_counter_, shed);
    // First drop and every 4096th after: enough to show up in logs, cheap enough
    // to survive a flood.
    if (total == shed || (total >> 12) != ((total - shed) >> 12)) {
      std::fprintf(stderr,
                   "node %u: outbox to peer %u full, shed %llu frame(s) "
                   "(%llu total dropped)\n",
                   id_, dst, static_cast<unsigned long long>(shed),
                   static_cast<unsigned long long>(total));
    }
  }
  if (metrics_.enabled()) {
    // Cross-peer gauges: `max` is the high-water outbox backlog of any writer.
    metrics_.Set(writer_frames_gauge_, outbox_frames);
    metrics_.Set(writer_bytes_gauge_, outbox_bytes);
  }
  messages_sent_.fetch_add(1);
  bytes_sent_.fetch_add(frame_size);
}

size_t TcpRuntime::OutboxBytes(NodeId dst) const {
  if (dst >= peer_state_.size()) {
    return 0;
  }
  Peer& peer = *peer_state_[dst];
  std::lock_guard<std::mutex> lock(peer.mu);
  return peer.outbox_bytes;
}

int TcpRuntime::ConnectToPeer(NodeId dst) {
  const PeerAddr& addr = peers_[dst];
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(addr.port);
  if (::getaddrinfo(addr.host.c_str(), port.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return -1;
  }
  int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Bound blocking writes so a wedged peer cannot hang the writer past Stop().
  timeval send_timeout{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof(send_timeout));
  uint8_t hello[kHelloBytes];
  std::memcpy(hello, kHelloMagic, 4);
  PutU32Le(hello + 4, kProtocolVersion);
  PutU32Le(hello + 8, id_);
  if (!WriteAll(fd, hello, sizeof(hello))) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void TcpRuntime::WriterMain(NodeId dst) {
  Peer& peer = *peer_state_[dst];
  int fd = -1;
  uint64_t backoff_ms = 50;
  std::vector<OutFrame> batch;
  batch.reserve(kWritevBatch);
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(peer.mu);
      peer.cv.wait(lock,
                   [&]() { return !peer.outbox.empty() || !running_.load(); });
      if (!running_.load()) {
        break;
      }
      // Drain up to kWritevBatch entries in one wakeup: under load this turns N
      // queued frames into one writev() instead of N lock/write round trips.
      while (!peer.outbox.empty() &&
             batch.size() < static_cast<size_t>(kWritevBatch)) {
        peer.outbox_bytes -= peer.outbox.front().bytes.size();
        batch.push_back(std::move(peer.outbox.front()));
        peer.outbox.pop_front();
      }
    }
    size_t idx = 0;   // First batch entry not yet fully written.
    size_t off = 0;   // Bytes of batch[idx] already on the wire (this connection).
    while (running_.load() && idx < batch.size()) {
      if (fd < 0) {
        fd = ConnectToPeer(dst);
        if (fd < 0) {
          // Peer down: retry with capped exponential backoff. The frames stay in
          // hand, so nothing is lost across reconnects.
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
          backoff_ms = std::min<uint64_t>(backoff_ms * 2, 1000);
          continue;
        }
        reconnects_.fetch_add(1);
        backoff_ms = 50;
        // An entry may have landed partially on the dead connection: the peer's
        // reassembler discarded the tail, so re-send the current entry whole.
        off = 0;
      }
      iovec iov[kWritevBatch];
      int iov_cnt = 0;
      for (size_t i = idx; i < batch.size() && iov_cnt < kWritevBatch; ++i) {
        const size_t skip = (i == idx) ? off : 0;
        iov[iov_cnt].iov_base = batch[i].bytes.data() + skip;
        iov[iov_cnt].iov_len = batch[i].bytes.size() - skip;
        ++iov_cnt;
      }
      // sendmsg, not writev: MSG_NOSIGNAL turns a dead peer into an error return
      // instead of a process-killing SIGPIPE.
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<size_t>(iov_cnt);
      const ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        CloseQuiet(fd);
        fd = -1;
        continue;
      }
      // Advance the cursor over fully-written entries, recycling their storage.
      size_t written = static_cast<size_t>(n);
      while (idx < batch.size()) {
        const size_t remaining = batch[idx].bytes.size() - off;
        if (written < remaining) {
          off += written;
          break;
        }
        written -= remaining;
        off = 0;
        pool_.Recycle(std::move(batch[idx].bytes));
        ++idx;
      }
    }
  }
  CloseQuiet(fd);
}

// ---------------------------------------------------------------------------
// Receive path: accept -> per-connection reader -> frames -> event loop.
// ---------------------------------------------------------------------------

void TcpRuntime::AcceptMain(int listen_fd) {
  while (running_.load()) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (!running_.load()) {
        return;  // Listen socket shut down by Stop().
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(readers_mu_);
    const size_t slot = reader_fds_.size();
    reader_fds_.push_back(fd);
    readers_.emplace_back([this, slot, fd]() { ReaderMain(slot, fd); });
  }
}

void TcpRuntime::ReaderMain(size_t slot, int fd) {
  // Single owner of `fd`: releases it (and marks the slot) under readers_mu_ on
  // every exit path, so Stop's shutdown pass never sees a stale descriptor.
  auto close_own_fd = [this, slot, fd]() {
    std::lock_guard<std::mutex> lock(readers_mu_);
    CloseQuiet(fd);
    reader_fds_[slot] = -1;
  };
  uint8_t hello[kHelloBytes];
  if (!ReadAll(fd, hello, sizeof(hello)) ||
      std::memcmp(hello, kHelloMagic, 4) != 0 ||
      GetU32Le(hello + 4) != kProtocolVersion) {
    close_own_fd();
    return;
  }
  const NodeId src = GetU32Le(hello + 8);

  // Pooled reassembler + borrowed-view decode: frames are parsed in place inside
  // the refcounted receive block; decoded messages pin the block via msg->backing
  // until their handler completes, so nothing on this path copies frame bytes.
  FrameReassembler reassembler(&pool_);
  ByteView frame;
  // Per-connection session replay guard: last sequence number seen per session
  // id on *this* connection. Sequence numbers must be strictly increasing within
  // a connection (a fresh connection starts clean — the writer re-sends whole
  // outbox entries after a reconnect, so cross-connection duplicates are legal).
  std::unordered_map<NodeId, uint32_t> session_rx_seq;
  uint8_t buf[64 * 1024];
  while (running_.load()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // Peer closed (mid-frame tails are discarded with the reassembler).
    }
    if (!reassembler.Feed(buf, static_cast<size_t>(n))) {
      decode_failures_.fetch_add(1);  // Oversized length field: drop the connection.
      break;
    }
    bool bad = false;
    while (reassembler.NextView(&frame)) {
      Decoder dec(frame.data, frame.len, &frame.backing);
      MsgPtr msg = DecodeMsgFrame(dec);
      if (msg == nullptr || !dec.ok() || !dec.AtEnd()) {
        decode_failures_.fetch_add(1);
        bad = true;  // Malformed frame: the stream cannot be trusted further.
        break;
      }
      msg->wire_size = frame.len;
      msg->backing = frame.backing;
      if (msg->kind == kSessionEnvelope) {
        // Session gateway envelope (docs/TRANSPORT.md "Session gateway"):
        // validate the sequence number against this connection's per-session
        // history, decode the inner frame in place (the payload view pins the
        // same pooled block), and deliver it under the session's virtual id.
        const auto& env = static_cast<const SessionEnvelopeMsg&>(*msg);
        if (!IsSessionNode(env.session)) {
          decode_failures_.fetch_add(1);
          bad = true;
          break;
        }
        uint32_t& last = session_rx_seq[env.session];
        if (env.seq == 0 || env.seq > kSessionSeqLimit || env.seq <= last) {
          decode_failures_.fetch_add(1);
          bad = true;  // Reused/overflowed sequence: treat the stream as hostile.
          break;
        }
        last = env.seq;
        Decoder inner_dec(env.payload_data(), env.payload_len(), &frame.backing);
        MsgPtr inner = DecodeMsgFrame(inner_dec);
        if (inner == nullptr || !inner_dec.ok() || !inner_dec.AtEnd()) {
          decode_failures_.fetch_add(1);
          bad = true;
          break;
        }
        inner->wire_size = env.payload_len();
        inner->backing = frame.backing;
        messages_received_.fetch_add(1);
        if (SessionDemux* demux = session_demux_.load()) {
          // Gateway side: route the reply to the owning session.
          Execute([demux, session = env.session, src,
                   inner = std::move(inner)]() {
            demux->DeliverToSession(session, src, inner);
          });
        } else {
          // Replica side: the session's virtual id is the logical source.
          Execute([this, session = env.session, inner = std::move(inner)]() {
            if (MsgHandler* h = handler_.load()) {
              h->Handle(MsgEnvelope{session, id_, inner});
            }
          });
        }
        continue;
      }
      messages_received_.fetch_add(1);
      Execute([this, src, msg = std::move(msg)]() {
        if (MsgHandler* h = handler_.load()) {
          h->Handle(MsgEnvelope{src, id_, msg});
        }
      });
    }
    if (bad || reassembler.poisoned()) {
      break;
    }
  }
  close_own_fd();
}

}  // namespace basil
