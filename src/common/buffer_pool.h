// Size-classed buffer recycling for the allocation-lean hot path
// (docs/TRANSPORT.md "Buffer ownership and zero-copy decode").
//
// The steady-state commit path used to pay the allocator per message three times
// over: every encode grew a fresh std::vector, every received frame was copied out
// of the reassembler into another fresh vector, and every digest computation built
// a scratch encoding from nothing. The pool turns all of that into reuse: renters
// take a cleared vector whose capacity was grown by earlier traffic, and returners
// hand the storage back instead of freeing it, so after warm-up the path allocates
// nothing (amortized).
//
// Two rental shapes:
//   - Rent/Recycle move plain std::vector<uint8_t> values in and out of per-class
//     freelists. Ownership is linear (move semantics make double-return
//     unrepresentable); whoever ends up holding the vector recycles it.
//   - RentBlock wraps a rented vector in a shared_ptr (FrameRef) whose deleter
//     recycles the storage when the last reference drops. This is what lets decoded
//     messages hold zero-copy views into a reassembler block: the view's FrameRef
//     keeps the block alive past the reassembler, the connection, and even the pool
//     object itself (the deleter captures the pool's shared state, not the pool).
//
// Thread safety: freelists are per-size-class mutexes; counters are relaxed
// atomics. Pooling is always on; the pool only changes where bytes live, never what
// they are. Builds with assertions on (the Debug/ASan CI job) poison recycled bytes
// and abort on a double-return, so a view that outlives its storage shows up there.
#ifndef BASIL_SRC_COMMON_BUFFER_POOL_H_
#define BASIL_SRC_COMMON_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace basil {

// Shared ownership of one pooled byte block. Empty (null) when the bytes it would
// pin are caller-owned — views without a backing ref must not outlive their source.
using FrameRef = std::shared_ptr<std::vector<uint8_t>>;

// A borrowed slice of bytes plus the refcount that keeps them alive. When `backing`
// is null the view borrows caller-owned memory and is only valid while that memory
// is; views handed across threads or stored in messages always carry a backing ref.
struct ByteView {
  const uint8_t* data = nullptr;
  size_t len = 0;
  FrameRef backing;

  bool empty() const { return len == 0; }
};

class BufferPool {
 public:
  // Size classes are powers of two in [kMinClassBytes, kMaxClassBytes]. Requests
  // above the top class are served unpooled (and dropped on Recycle): giant frames
  // are rare and not worth caching.
  static constexpr size_t kMinClassBytes = 256;
  static constexpr size_t kMaxClassBytes = 4u << 20;  // 4 MiB.
  // Per class, at most this many bytes of idle storage are retained; excess
  // recycled buffers are freed. Bounds the pool at a few tens of MiB worst case.
  static constexpr size_t kMaxIdleBytesPerClass = 8u << 20;  // 8 MiB.

  // True when the .cc was compiled with assertions on (no NDEBUG): Recycle then
  // poisons returned bytes and aborts on a double-return of the same storage.
  static bool debug_guards_enabled();

  struct Stats {
    uint64_t hits = 0;            // Rents served from a freelist.
    uint64_t misses = 0;          // Rents that had to allocate.
    uint64_t recycled = 0;        // Buffers returned to a freelist.
    uint64_t recycled_bytes = 0;  // Capacity returned (recycled buffers only).
    uint64_t outstanding = 0;     // Rented and not yet recycled/dropped.
    uint64_t outstanding_high_water = 0;
  };

  BufferPool();

  // Rents a cleared buffer with capacity >= min_capacity (possibly more — the
  // buffer keeps whatever capacity earlier use grew it to).
  std::vector<uint8_t> Rent(size_t min_capacity);

  // Returns a buffer's storage to its size class (classified by capacity). Empty
  // buffers (e.g. moved-from after TakeBytes) are ignored.
  void Recycle(std::vector<uint8_t>&& buf);

  // Rents a buffer wrapped in shared ownership: the storage recycles itself into
  // this pool's freelists when the last FrameRef drops, even if the BufferPool
  // object is gone by then.
  FrameRef RentBlock(size_t min_capacity);

  Stats stats() const;

  // Shared instance for scratch rentals with no natural owner (digest encoders in
  // protocol code that runs under both runtimes).
  static BufferPool& Global();

#ifndef NDEBUG
  // Test hook: feeds the same storage through Recycle twice to prove the
  // double-return guard aborts. Never returns.
  void DebugForceDoubleReturnForTest();
#endif

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace basil

#endif  // BASIL_SRC_COMMON_BUFFER_POOL_H_
