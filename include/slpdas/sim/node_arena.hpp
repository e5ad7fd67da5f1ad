// Dense structure-of-arrays pools for per-run protocol node state.
//
// Every protocol process keeps per-run tables (the DAS Ninfo[] view is
// the big one: one entry per id in the node's two-hop id window, see
// das/protocol.hpp). Owning them as per-process std::vectors means N
// allocations per run and N scattered heap blocks; batched cell execution
// re-pays that for every seed. The arena replaces that with one bump allocator owned by the
// Simulator: processes carve dense spans out of shared chunks during
// on_start (which runs in node order, so the layout is deterministic),
// and Simulator::reset_run rewinds the cursor instead of freeing — seed
// N+1 re-carves the exact same spans out of the warm chunks with zero
// heap traffic. Spans are value-initialised on allocation, so a re-carved
// span reads exactly like a freshly grown vector did.
//
// Restricted to trivially-destructible element types by design: the arena
// never runs destructors (rewinding IS the deallocation), which is also
// why it only suits flat POD-style state, not containers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace slpdas::sim {

class NodeStateArena {
 public:
  /// Carves a value-initialised span of `count` elements. The span stays
  /// valid until the next begin_run(); the arena must outlive it. Spans
  /// never move (chunks are stable), so pointers into them are safe for
  /// the duration of the run.
  template <typename T>
  [[nodiscard]] std::span<T> allocate(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena state is rewound, never destroyed");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types would need aligned chunk storage");
    if (count == 0) {
      return {};
    }
    T* data = static_cast<T*>(take(count * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < count; ++i) {
      ::new (static_cast<void*>(data + i)) T{};
    }
    return {data, count};
  }

  /// Rewinds the cursor to the start: every previously carved span is
  /// dead, every chunk's capacity is retained for the next run.
  void begin_run() noexcept {
    chunk_index_ = 0;
    offset_ = 0;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  static constexpr std::size_t kChunkSize = 256 * 1024;

  void* take(std::size_t bytes, std::size_t align) {
    while (chunk_index_ < chunks_.size()) {
      Chunk& chunk = chunks_[chunk_index_];
      const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= chunk.size) {
        offset_ = aligned + bytes;
        return chunk.data.get() + aligned;
      }
      // Chunk remainder too small: waste it and move on. The allocation
      // sequence is identical every run, so the waste (and therefore the
      // whole layout) is deterministic.
      ++chunk_index_;
      offset_ = 0;
    }
    const std::size_t size = std::max(kChunkSize, bytes);
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
    offset_ = bytes;
    return chunks_.back().data.get();
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_index_ = 0;
  std::size_t offset_ = 0;
};

}  // namespace slpdas::sim
