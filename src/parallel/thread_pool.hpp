// Fixed thread pool + deterministic parallel_for.
//
// One parallelism grain: independent work items — the sites of an
// Engine::update_batch, the measurements of a localize_batch, and the
// candidate / per-axis fits of the RASS baseline.  A single solve (the
// Algorithm-1 sweep, the LRR ADMM, QRCP) is paper-sized (6-8 links x
// 72-120 cells) and runs serially: fan-out inside it measured as a net
// loss at that size.
//
//   parallel_for(threads, n, body) produces bit-identical results for any
//   thread count, because the iteration space is split into contiguous
//   chunks by pure integer arithmetic (chunk_range), each index is
//   processed by exactly one chunk, and bodies only write state their
//   indices exclusively own — no floating-point reduction crosses an index.
//
// Scheduling model:
//   * One process-wide pool (ThreadPool::global()) lazily spawns its workers on
//     first use; parallel_for borrows it, so callers never pay thread
//     creation per batch.
//   * The calling thread participates: it executes chunk 0, then helps
//     drain its own batch's still-queued chunks (never another batch's —
//     a caller holding a lock must not execute foreign work), then waits.
//     The pool therefore makes progress even with zero workers
//     (single-core machines) and is never a deadlock hazard.
//   * A parallel_for called from inside a pool chunk runs its whole range
//     inline on that thread, so a caller may nest one without deadlock
//     (the outer fan-out already occupies the pool).  Nothing in the
//     library nests today.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

namespace iup::parallel {

/// Body of a parallel loop: process indices [begin, end).
using ChunkBody = std::function<void(std::size_t begin, std::size_t end)>;

/// Deterministic static partition: the half-open index range of chunk `c`
/// when [0, n) is split `ways` ways.  Chunks are contiguous, cover [0, n)
/// exactly once, and differ in size by at most one element.
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t ways,
                                                std::size_t c);

/// Resolve a thread-count knob: 0 means "all hardware threads", anything
/// else is taken literally.  Always returns >= 1.
std::size_t resolve_threads(std::size_t requested);

class ThreadPool {
 public:
  /// Spawns exactly `workers` worker threads (the caller of run() is an
  /// additional participant, so total parallelism is workers + 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const;

  /// Split [0, n) into min(ways, n) chunks and invoke `body` once per
  /// chunk.  Blocks until every chunk has finished.  Called from inside a
  /// pool chunk it runs `body(0, n)` inline.  If one or more chunks
  /// throw, the remaining chunks still run to completion and the first
  /// exception is rethrown on the calling thread — a body exception never
  /// escapes a worker or aborts the process.
  void run(std::size_t n, std::size_t ways, const ChunkBody& body);

  /// The process-wide pool used by parallel_for, sized for the hardware.
  /// Workers are spawned lazily on first use.
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_;
};

/// Run `body` over [0, n) split into up to `threads` chunks on the global
/// pool.  `threads` <= 1 (or n <= 1) runs inline with a single chunk —
/// the zero-overhead serial path.
void parallel_for(std::size_t threads, std::size_t n, const ChunkBody& body);

}  // namespace iup::parallel
