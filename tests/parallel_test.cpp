// iup::parallel — deterministic partitioning and pool scheduling.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace iup::parallel {
namespace {

TEST(ChunkRange, CoversEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 2u, 7u, 64u, 100u, 1000u}) {
    for (const std::size_t ways : {1u, 2u, 3u, 8u, 13u, 64u}) {
      std::vector<int> hits(n, 0);
      std::size_t prev_end = 0;
      for (std::size_t c = 0; c < ways; ++c) {
        const auto [begin, end] = chunk_range(n, ways, c);
        EXPECT_EQ(begin, prev_end) << "chunks must be contiguous";
        prev_end = end;
        for (std::size_t i = begin; i < end; ++i) hits[i]++;
      }
      EXPECT_EQ(prev_end, n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1);
    }
  }
}

TEST(ChunkRange, BalancedWithinOneElement) {
  const std::size_t n = 103;
  const std::size_t ways = 8;
  std::size_t smallest = n, largest = 0;
  for (std::size_t c = 0; c < ways; ++c) {
    const auto [begin, end] = chunk_range(n, ways, c);
    smallest = std::min(smallest, end - begin);
    largest = std::max(largest, end - begin);
  }
  EXPECT_LE(largest - smallest, 1u);
}

TEST(ResolveThreads, ZeroMeansHardwareAndNeverZero) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(8), 8u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(8, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SerialAndEmptyEdgeCases) {
  int calls = 0;
  parallel_for(1, 10, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    calls++;
  });
  EXPECT_EQ(calls, 1);
  parallel_for(8, 0, [&](std::size_t, std::size_t) { calls++; });
  EXPECT_EQ(calls, 1) << "n == 0 must not invoke the body";
}

TEST(ParallelFor, MoreWaysThanIndicesClampsToN) {
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> chunks{0};
  parallel_for(16, 3, [&](std::size_t begin, std::size_t end) {
    chunks++;
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  EXPECT_EQ(chunks.load(), 3);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallCompletesAndVisitsEveryIndexOnce) {
  // The update_batch -> RASS per-axis shape: a parallel_for inside a pool
  // chunk runs its whole range inline, so it completes even when every
  // outer chunk nests at once.
  const std::size_t outer = 4, inner = 20;
  std::vector<std::atomic<int>> hits(outer * inner);
  std::atomic<int> inner_chunks{0};
  parallel_for(4, outer, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      parallel_for(4, inner, [&](std::size_t ib, std::size_t ie) {
        inner_chunks++;
        for (std::size_t i = ib; i < ie; ++i) hits[o * inner + i]++;
      });
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(inner_chunks.load(), static_cast<int>(outer));
}

TEST(ParallelFor, DeterministicSumViaExclusiveSlots) {
  // The determinism contract: per-index results never depend on the
  // thread count because each index owns its output slot.
  const std::size_t n = 512;
  std::vector<double> out1(n), out8(n);
  const auto body = [](std::vector<double>& out) {
    return [&out](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k <= i; ++k) acc += 1.0 / double(k + 1);
        out[i] = acc;
      }
    };
  };
  parallel_for(1, n, body(out1));
  parallel_for(8, n, body(out8));
  EXPECT_EQ(out1, out8);
}

TEST(ThreadPool, DedicatedPoolRunsAndJoins) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.run(100, 4, [&](std::size_t begin, std::size_t end) {
      total += static_cast<int>(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 1000);
}

}  // namespace
}  // namespace iup::parallel
