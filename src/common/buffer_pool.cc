#include "src/common/buffer_pool.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_set>
#include <utility>

namespace basil {
namespace {

// Number of power-of-two classes in [kMinClassBytes, kMaxClassBytes].
constexpr int kNumClasses = 15;  // 256 B .. 4 MiB.

static_assert((BufferPool::kMinClassBytes << (kNumClasses - 1)) ==
                  BufferPool::kMaxClassBytes,
              "class count must span exactly [min, max]");

// Index of the smallest class whose size is >= n (for renting); n must be
// <= kMaxClassBytes.
int ClassCeil(size_t n) {
  int cls = 0;
  size_t size = BufferPool::kMinClassBytes;
  while (size < n) {
    size <<= 1;
    ++cls;
  }
  return cls;
}

// Index of the largest class whose size is <= cap (for filing a recycled buffer):
// a buffer filed under class c always satisfies a rent for class c.
int ClassFloor(size_t cap) {
  int cls = 0;
  size_t size = BufferPool::kMinClassBytes;
  while ((size << 1) <= cap && cls + 1 < kNumClasses) {
    size <<= 1;
    ++cls;
  }
  return cls;
}

#ifndef NDEBUG
constexpr uint8_t kPoisonByte = 0xDB;  // "Dead Buffer".
#endif

}  // namespace

struct BufferPool::State {
  struct ClassList {
    std::mutex mu;
    std::vector<std::vector<uint8_t>> free;
    size_t idle_bytes = 0;  // Sum of capacities in `free`, under mu.
  };

  ClassList classes[kNumClasses];

  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> recycled{0};
  std::atomic<uint64_t> recycled_bytes{0};
  std::atomic<uint64_t> outstanding{0};
  std::atomic<uint64_t> outstanding_high_water{0};

#ifndef NDEBUG
  // Double-return guard: data() pointers of every buffer currently sitting in a
  // freelist. Recycling storage that is already free means two owners of one
  // allocation — abort immediately rather than corrupt the pool.
  std::mutex guard_mu;
  std::unordered_set<const void*> free_datas;
#endif

  void NoteRented() {
    const uint64_t out = outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t hw = outstanding_high_water.load(std::memory_order_relaxed);
    while (out > hw && !outstanding_high_water.compare_exchange_weak(
                           hw, out, std::memory_order_relaxed)) {
    }
  }

  std::vector<uint8_t> Rent(size_t min_capacity) {
    NoteRented();
    if (min_capacity <= kMaxClassBytes) {
      ClassList& cl = classes[ClassCeil(min_capacity)];
      std::unique_lock<std::mutex> lk(cl.mu);
      if (!cl.free.empty()) {
        std::vector<uint8_t> buf = std::move(cl.free.back());
        cl.free.pop_back();
        cl.idle_bytes -= buf.capacity();
        lk.unlock();
#ifndef NDEBUG
        {
          std::lock_guard<std::mutex> g(guard_mu);
          free_datas.erase(buf.data());
        }
#endif
        hits.fetch_add(1, std::memory_order_relaxed);
        return buf;
      }
    }
    misses.fetch_add(1, std::memory_order_relaxed);
    std::vector<uint8_t> buf;
    buf.reserve(min_capacity < kMinClassBytes ? kMinClassBytes : min_capacity);
    return buf;
  }

  void Recycle(std::vector<uint8_t>&& buf) {
    if (buf.capacity() == 0) {
      return;  // Moved-from shell (e.g. after Encoder::TakeBytes); nothing rented.
    }
    outstanding.fetch_sub(1, std::memory_order_relaxed);
    const size_t cap = buf.capacity();
    if (cap < kMinClassBytes || cap > kMaxClassBytes) {
      return;  // Oddball size: let the allocator have it back.
    }
#ifndef NDEBUG
    // Poison the bytes the previous renter wrote so a view that outlives its
    // return reads an obvious pattern, then record the storage as free.
    std::memset(buf.data(), kPoisonByte, buf.size());
    {
      std::lock_guard<std::mutex> g(guard_mu);
      if (!free_datas.insert(buf.data()).second) {
        std::fprintf(stderr,
                     "BufferPool: double return of buffer %p (two owners of one "
                     "allocation)\n",
                     static_cast<const void*>(buf.data()));
        std::abort();
      }
    }
#endif
    buf.clear();
    ClassList& cl = classes[ClassFloor(cap)];
    std::unique_lock<std::mutex> lk(cl.mu);
    if (cl.idle_bytes + cap > kMaxIdleBytesPerClass) {
      lk.unlock();
#ifndef NDEBUG
      std::lock_guard<std::mutex> g(guard_mu);
      free_datas.erase(buf.data());
#endif
      return;  // Class is full; free the storage.
    }
    cl.idle_bytes += cap;
    cl.free.push_back(std::move(buf));
    lk.unlock();
    recycled.fetch_add(1, std::memory_order_relaxed);
    recycled_bytes.fetch_add(cap, std::memory_order_relaxed);
  }
};

bool BufferPool::debug_guards_enabled() {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

BufferPool::BufferPool() : state_(std::make_shared<State>()) {}

std::vector<uint8_t> BufferPool::Rent(size_t min_capacity) {
  return state_->Rent(min_capacity);
}

void BufferPool::Recycle(std::vector<uint8_t>&& buf) {
  state_->Recycle(std::move(buf));
}

FrameRef BufferPool::RentBlock(size_t min_capacity) {
  // The deleter captures the shared State, not the BufferPool: a block held by an
  // in-flight message may legally outlive the pool (and its runtime).
  std::shared_ptr<State> st = state_;
  auto* vec = new std::vector<uint8_t>(st->Rent(min_capacity));
  return FrameRef(vec, [st](std::vector<uint8_t>* p) {
    st->Recycle(std::move(*p));
    delete p;
  });
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.hits = state_->hits.load(std::memory_order_relaxed);
  s.misses = state_->misses.load(std::memory_order_relaxed);
  s.recycled = state_->recycled.load(std::memory_order_relaxed);
  s.recycled_bytes = state_->recycled_bytes.load(std::memory_order_relaxed);
  s.outstanding = state_->outstanding.load(std::memory_order_relaxed);
  s.outstanding_high_water =
      state_->outstanding_high_water.load(std::memory_order_relaxed);
  return s;
}

BufferPool& BufferPool::Global() {
  static BufferPool* pool = new BufferPool();  // Never destroyed: outlives all users.
  return *pool;
}

#ifndef NDEBUG
void BufferPool::DebugForceDoubleReturnForTest() {
  // Simulate a caller that kept an alias to storage it already returned: mark the
  // storage free (the first owner's Recycle), then Recycle the alias. The second
  // return hits the guard set in State::Recycle and aborts.
  std::vector<uint8_t> buf = Rent(kMinClassBytes);
  buf.resize(16, 0xAA);
  {
    std::lock_guard<std::mutex> g(state_->guard_mu);
    state_->free_datas.insert(buf.data());
  }
  state_->Recycle(std::move(buf));
}
#endif

}  // namespace basil
