// BufferPool lifecycle: class sizing, storage reuse, shared-ownership blocks that
// outlive the pool, the idle-retention cap, stats accounting, thread safety (the
// TSan job runs this suite), and the debug double-return guard.
#include "src/common/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/serde.h"

namespace basil {
namespace {

TEST(BufferPoolTest, RentIsClearedAndClassSized) {
  BufferPool pool;
  std::vector<uint8_t> buf = pool.Rent(1);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_GE(buf.capacity(), BufferPool::kMinClassBytes);

  std::vector<uint8_t> big = pool.Rent(1000);
  EXPECT_GE(big.capacity(), 1000u);

  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.outstanding, 2u);
}

TEST(BufferPoolTest, RecycleThenRentReusesTheSameStorage) {
  BufferPool pool;
  std::vector<uint8_t> buf = pool.Rent(512);
  buf.assign(100, 0x5A);
  const uint8_t* storage = buf.data();
  pool.Recycle(std::move(buf));

  std::vector<uint8_t> again = pool.Rent(512);
  EXPECT_EQ(again.data(), storage);  // Same class, freelist hit.
  EXPECT_EQ(again.size(), 0u);       // Recycle cleared it.

  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.recycled, 1u);
  EXPECT_GE(s.recycled_bytes, 512u);
  pool.Recycle(std::move(again));
}

TEST(BufferPoolTest, EncoderTakeBytesLeavesHarmlessShell) {
  BufferPool pool;
  std::vector<uint8_t> taken;
  {
    Encoder enc(&pool);
    enc.PutU32(0xDEADBEEF);
    taken = enc.TakeBytes();
    // Encoder dtor runs here on the moved-from shell: capacity 0, so its Recycle
    // must be a no-op (a second return of `taken`'s storage would abort in debug).
  }
  pool.Recycle(std::move(taken));
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(BufferPoolTest, RentBlockRecyclesWhenLastRefDrops) {
  BufferPool pool;
  const uint8_t* storage = nullptr;
  {
    FrameRef block = pool.RentBlock(1024);
    block->assign(64, 0x11);
    storage = block->data();
    FrameRef alias = block;  // Second owner: drop order must not matter.
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.recycled, 1u);

  std::vector<uint8_t> again = pool.Rent(1024);
  EXPECT_EQ(again.data(), storage);
  pool.Recycle(std::move(again));
}

TEST(BufferPoolTest, BlockOutlivesThePoolObject) {
  FrameRef block;
  {
    auto pool = std::make_unique<BufferPool>();
    block = pool->RentBlock(256);
    block->assign(32, 0x22);
  }
  // The pool is gone; the block's bytes must still be intact and releasing the
  // last reference must not crash (the deleter holds the pool's shared state).
  ASSERT_EQ(block->size(), 32u);
  EXPECT_EQ((*block)[0], 0x22);
  block.reset();
}

TEST(BufferPoolTest, OversizeRequestsBypassTheFreelists) {
  BufferPool pool;
  std::vector<uint8_t> giant = pool.Rent(BufferPool::kMaxClassBytes + 1);
  EXPECT_GE(giant.capacity(), BufferPool::kMaxClassBytes + 1);
  pool.Recycle(std::move(giant));

  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.recycled, 0u);  // Freed, not retained.
  EXPECT_EQ(s.outstanding, 0u);

  std::vector<uint8_t> fresh = pool.Rent(BufferPool::kMaxClassBytes + 1);
  EXPECT_EQ(pool.stats().misses, 2u);  // No freelist ever serves oversize rents.
  pool.Recycle(std::move(fresh));
}

TEST(BufferPoolTest, IdleCapFreesExcessStorage) {
  BufferPool pool;
  // The 4 MiB class retains at most kMaxIdleBytesPerClass = 8 MiB: two buffers.
  std::vector<std::vector<uint8_t>> bufs;
  for (int i = 0; i < 3; ++i) {
    bufs.push_back(pool.Rent(BufferPool::kMaxClassBytes));
  }
  for (auto& b : bufs) {
    pool.Recycle(std::move(b));
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.recycled, 2u);  // The third 4 MiB return was freed.
  EXPECT_EQ(s.outstanding, 0u);
}

TEST(BufferPoolTest, OutstandingHighWaterTracksPeak) {
  BufferPool pool;
  std::vector<std::vector<uint8_t>> held;
  for (int i = 0; i < 5; ++i) {
    held.push_back(pool.Rent(256));
  }
  for (auto& b : held) {
    pool.Recycle(std::move(b));
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.outstanding_high_water, 5u);
}

// Shared-pool hammer: rents of varied classes, writes into the storage, plain
// recycles and shared-block drops from several threads at once. Run under TSan in
// CI; any freelist race or double-handout shows up as a data race or guard abort.
TEST(BufferPoolTest, ConcurrentRentRecycleHammer) {
  BufferPool pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t]() {
      for (int i = 0; i < kIters; ++i) {
        const size_t want = 256u << ((i + t) % 4);  // 256 B .. 2 KiB classes.
        if (i % 3 == 0) {
          FrameRef block = pool.RentBlock(want);
          block->assign(want / 2, static_cast<uint8_t>(i));
          FrameRef alias = block;  // Cross-owner release.
          block.reset();
          ASSERT_EQ(alias->size(), want / 2);
        } else {
          std::vector<uint8_t> buf = pool.Rent(want);
          buf.assign(want, static_cast<uint8_t>(t));
          pool.Recycle(std::move(buf));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const BufferPool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.hits + s.misses, static_cast<uint64_t>(kThreads) * kIters);
}

#ifndef NDEBUG
TEST(BufferPoolTest, DoubleReturnAbortsUnderDebugGuards) {
  ASSERT_TRUE(BufferPool::debug_guards_enabled());
  BufferPool pool;
  ASSERT_DEATH(pool.DebugForceDoubleReturnForTest(), "double return");
}
#endif

}  // namespace
}  // namespace basil
