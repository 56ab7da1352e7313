// TcpRuntime in-process integration: two runtimes on localhost exchange canonical
// frames over real sockets — request/reply round trips, large messages that span many
// partial reads, timers on the monotonic clock, and loopback self-sends.
#include "src/net/tcp_runtime.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>

#include "src/runtime/runtime.h"
#include "src/tapir/tapir.h"

namespace basil {
namespace {

// Binds two runtimes on a port pair; retries a few bases to dodge occupied ports.
struct Pair {
  std::unique_ptr<TcpRuntime> a;
  std::unique_ptr<TcpRuntime> b;

  bool Up() {
    for (int attempt = 0; attempt < 10; ++attempt) {
      const uint16_t base = static_cast<uint16_t>(
          30000 + (::getpid() * 7 + attempt * 211) % 30000);
      std::vector<PeerAddr> peers = {{"127.0.0.1", base},
                                     {"127.0.0.1", static_cast<uint16_t>(base + 1)}};
      a = std::make_unique<TcpRuntime>(0, peers);
      b = std::make_unique<TcpRuntime>(1, peers);
      if (a->Start() && b->Start()) {
        return true;
      }
      a.reset();
      b.reset();
    }
    return false;
  }
};

// Replies to every TapirRead with a TapirReadReply echoing req_id and key as value.
class EchoServer : public Process {
 public:
  explicit EchoServer(Runtime* rt) : Process(rt) {}

  void Handle(const MsgEnvelope& env) override {
    ASSERT_EQ(env.msg->kind, kTapirRead);
    const auto& read = static_cast<const TapirReadMsg&>(*env.msg);
    auto reply = std::make_shared<TapirReadReplyMsg>();
    reply->req_id = read.req_id;
    reply->found = true;
    reply->version = read.ts;
    reply->value = read.key;
    Send(env.src, std::move(reply));
    ++handled;
  }

  std::atomic<int> handled{0};
};

class CountingClient : public Process {
 public:
  explicit CountingClient(Runtime* rt) : Process(rt) {}

  void Handle(const MsgEnvelope& env) override {
    ASSERT_EQ(env.msg->kind, kTapirReadReply);
    const auto& reply = static_cast<const TapirReadReplyMsg&>(*env.msg);
    last_value = reply.value;
    ++replies;
  }

  std::atomic<int> replies{0};
  std::string last_value;
};

TEST(TcpRuntime, RequestReplyRoundTrips) {
  Pair pair;
  ASSERT_TRUE(pair.Up());
  EchoServer server(pair.a.get());
  CountingClient client(pair.b.get());

  constexpr int kRounds = 50;
  pair.b->Execute([&]() {
    for (int i = 0; i < kRounds; ++i) {
      auto msg = std::make_shared<TapirReadMsg>();
      msg->req_id = static_cast<uint64_t>(i);
      msg->key = "key-" + std::to_string(i);
      client.Send(0, std::move(msg));
    }
  });
  ASSERT_TRUE(pair.b->WaitUntil([&]() { return client.replies.load() == kRounds; },
                                10'000'000'000ull));
  EXPECT_EQ(server.handled.load(), kRounds);
  EXPECT_EQ(pair.b->messages_sent(), static_cast<uint64_t>(kRounds));
  EXPECT_EQ(pair.b->decode_failures(), 0u);
}

TEST(TcpRuntime, LargeMessageSpansManyReads) {
  Pair pair;
  ASSERT_TRUE(pair.Up());
  EchoServer server(pair.a.get());
  CountingClient client(pair.b.get());

  // Well past any single recv() buffer (the reader uses 64 KiB): forces reassembly
  // from many partial reads on both directions.
  const std::string big(1 << 20, 'z');
  pair.b->Execute([&]() {
    auto msg = std::make_shared<TapirReadMsg>();
    msg->req_id = 1;
    msg->key = big;
    client.Send(0, std::move(msg));
  });
  ASSERT_TRUE(pair.b->WaitUntil([&]() { return client.replies.load() == 1; },
                                10'000'000'000ull));
  EXPECT_EQ(client.last_value, big);
}

TEST(TcpRuntime, LoopbackSelfSend) {
  // A self-addressed message is delivered through the event loop without a socket.
  Pair pair;
  ASSERT_TRUE(pair.Up());
  std::atomic<int> self_handled{0};

  class SelfProbe : public Process {
   public:
    SelfProbe(Runtime* rt, std::atomic<int>* count) : Process(rt), count_(count) {}
    void Handle(const MsgEnvelope& env) override {
      EXPECT_EQ(env.src, id());
      EXPECT_EQ(env.dst, id());
      ++*count_;
    }

   private:
    std::atomic<int>* count_;
  };
  SelfProbe probe(pair.b.get(), &self_handled);
  pair.b->Execute([&]() {
    auto msg = std::make_shared<TapirReadMsg>();
    msg->req_id = 9;
    msg->key = "self";
    probe.Send(probe.id(), std::move(msg));
  });
  ASSERT_TRUE(pair.b->WaitUntil([&]() { return self_handled.load() == 1; },
                                5'000'000'000ull));
}

TEST(TcpRuntime, TimersFireInOrder) {
  Pair pair;
  ASSERT_TRUE(pair.Up());
  std::vector<int> order;
  std::atomic<int> fired{0};
  pair.a->SetTimer(30'000'000, [&]() {
    order.push_back(2);
    ++fired;
  });
  pair.a->SetTimer(5'000'000, [&]() {
    order.push_back(1);
    ++fired;
  });
  const EventId cancelled = pair.a->SetTimer(10'000'000, [&]() {
    order.push_back(99);
    ++fired;
  });
  pair.a->CancelTimer(cancelled);
  ASSERT_TRUE(
      pair.a->WaitUntil([&]() { return fired.load() == 2; }, 5'000'000'000ull));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Strand workers + crypto offload pool (the parallel execution pipeline).
// ---------------------------------------------------------------------------

// Binds one runtime with a worker pool; no peer needed for strand tests.
std::unique_ptr<TcpRuntime> UpSolo(uint32_t workers) {
  for (int attempt = 0; attempt < 10; ++attempt) {
    const uint16_t port = static_cast<uint16_t>(
        30000 + (::getpid() * 13 + attempt * 307 + 17 * workers) % 30000);
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

TEST(TcpRuntime, SameStrandTasksNeverInterleave) {
  auto rt = UpSolo(/*workers=*/4);
  ASSERT_NE(rt, nullptr);

  // The canary is deliberately race-prone: a plain bool "in flight" flag and a
  // non-atomic read-modify-write counter. If two same-strand tasks ever overlapped,
  // the flag assertion would trip (and TSan would flag the counter).
  constexpr int kTasks = 500;
  static bool in_flight;
  static int counter;
  static std::vector<int> order;
  in_flight = false;
  counter = 0;
  order.clear();
  order.reserve(kTasks);
  std::atomic<int> done{0};
  std::atomic<bool> overlapped{false};
  for (int i = 0; i < kTasks; ++i) {
    rt->Post(/*strand=*/7, [i, &done, &overlapped](CostMeter&) {
      if (in_flight) {
        overlapped.store(true);
      }
      in_flight = true;
      const int expected = counter;      // Read...
      for (volatile int spin = 0; spin < 50; spin = spin + 1) {
      }
      counter = expected + 1;            // ...modify-write: loses updates if racy.
      order.push_back(i);
      in_flight = false;
      done.fetch_add(1);
    });
  }
  ASSERT_TRUE(SpinUntil([&]() { return done.load() == kTasks; }));
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(counter, kTasks);
  // FIFO per strand: tasks ran in post order.
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(order[i], i);
  }
  rt->Stop();
}

TEST(TcpRuntime, DistinctStrandsOverlap) {
  auto rt = UpSolo(/*workers=*/2);
  ASSERT_NE(rt, nullptr);

  // Strands 0 and 1 map to different workers. Each task waits (bounded) for the
  // other to have started: serialized execution could never satisfy both.
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_started{false};
  std::atomic<int> both_seen{0};
  auto rendezvous = [&](std::atomic<bool>& mine, std::atomic<bool>& other) {
    mine.store(true);
    for (int i = 0; i < 10'000 && !other.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (other.load()) {
      both_seen.fetch_add(1);
    }
  };
  rt->Post(0, [&](CostMeter&) { rendezvous(a_started, b_started); });
  rt->Post(1, [&](CostMeter&) { rendezvous(b_started, a_started); });
  ASSERT_TRUE(SpinUntil([&]() { return both_seen.load() == 2; }, 15'000));
  rt->Stop();
}

TEST(TcpRuntime, PostContinuationRunsInHandlerContext) {
  auto rt = UpSolo(/*workers=*/2);
  ASSERT_NE(rt, nullptr);

  std::atomic<bool> ids_captured{false};
  std::thread::id loop_id;
  rt->Execute([&]() {
    loop_id = std::this_thread::get_id();
    ids_captured.store(true);
  });
  ASSERT_TRUE(SpinUntil([&]() { return ids_captured.load(); }));

  std::atomic<bool> done{false};
  std::thread::id work_id, then_id;
  rt->Post(
      42, [&](CostMeter&) { work_id = std::this_thread::get_id(); },
      [&]() {
        then_id = std::this_thread::get_id();
        done.store(true);
      });
  ASSERT_TRUE(SpinUntil([&]() { return done.load(); }));
  EXPECT_NE(work_id, loop_id);  // Work left the event loop...
  EXPECT_EQ(then_id, loop_id);  // ...and the continuation came back to it.
  EXPECT_GE(rt->posted_tasks(), 1u);
  rt->Stop();
}

TEST(TcpRuntime, OffloadVerifyLeavesTheLoopAndMarshalsBack) {
  auto rt = UpSolo(/*workers=*/2);
  ASSERT_NE(rt, nullptr);

  std::atomic<bool> ids_captured{false};
  std::thread::id loop_id;
  rt->Execute([&]() {
    loop_id = std::this_thread::get_id();
    ids_captured.store(true);
  });
  ASSERT_TRUE(SpinUntil([&]() { return ids_captured.load(); }));

  std::atomic<bool> done{false};
  std::thread::id check_id, done_id;
  std::vector<uint8_t> verdicts;
  std::vector<VerifyFn> batch;
  batch.push_back([&](CostMeter&) {
    check_id = std::this_thread::get_id();
    return true;
  });
  batch.push_back([](CostMeter&) { return false; });
  rt->OffloadVerify(std::move(batch), [&](std::vector<uint8_t> v) {
    done_id = std::this_thread::get_id();
    verdicts = std::move(v);
    done.store(true);
  });
  ASSERT_TRUE(SpinUntil([&]() { return done.load(); }));
  EXPECT_NE(check_id, loop_id);  // Signature checks off the event loop.
  EXPECT_EQ(done_id, loop_id);   // Verdicts delivered in the handler context.
  EXPECT_EQ(verdicts, (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(rt->offloaded_checks(), 2u);
  rt->Stop();
}

TEST(TcpRuntime, ZeroWorkersStillRunsPoolsOffTheLoop) {
  // There is no loop-only mode: a request for zero workers is raised to one, and
  // strand work and signature checks still leave the event loop.
  auto rt = UpSolo(/*workers=*/0);
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->workers(), 1u);

  std::atomic<bool> ids_captured{false};
  std::thread::id loop_id;
  rt->Execute([&]() {
    loop_id = std::this_thread::get_id();
    ids_captured.store(true);
  });
  ASSERT_TRUE(SpinUntil([&]() { return ids_captured.load(); }));

  std::atomic<bool> done{false};
  std::thread::id work_id;
  rt->Post(
      9, [&](CostMeter&) { work_id = std::this_thread::get_id(); },
      [&]() { done.store(true); });
  ASSERT_TRUE(SpinUntil([&]() { return done.load(); }));
  EXPECT_NE(work_id, loop_id);

  std::atomic<bool> verified{false};
  std::thread::id check_id;
  rt->OffloadVerify(
      {[&](CostMeter&) {
        check_id = std::this_thread::get_id();
        return true;
      }},
      [&](std::vector<uint8_t> v) {
        ASSERT_EQ(v.size(), 1u);
        verified.store(v[0] != 0);
      });
  ASSERT_TRUE(SpinUntil([&]() { return verified.load(); }));
  EXPECT_NE(check_id, loop_id);
  EXPECT_EQ(rt->offloaded_checks(), 1u);
  rt->Stop();
}

TEST(TcpRuntime, MonotonicClockAdvances) {
  Pair pair;
  ASSERT_TRUE(pair.Up());
  const uint64_t t0 = pair.a->now();
  std::atomic<bool> done{false};
  pair.a->SetTimer(2'000'000, [&]() { done = true; });
  ASSERT_TRUE(pair.a->WaitUntil([&]() { return done.load(); }, 5'000'000'000ull));
  EXPECT_GE(pair.a->now(), t0 + 2'000'000);
}

}  // namespace
}  // namespace basil
