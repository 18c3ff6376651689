// Heap allocations per OMP localize.  The scratch of one query (the
// matching-domain measurement, residual, correlations, selected-atom block
// and QR workspace) is sized once for the sparsity budget, so the count
// must not grow with the number of grid cells N.
//
// The count comes from replacing the global operator new, which is per
// executable; that is why this case has its own test binary.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "loc/omp.hpp"
#include "sim/sampler.hpp"
#include "test_util.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace iup::loc {
namespace {

struct QueryCost {
  std::size_t allocations = 0;
  std::size_t atoms = 0;
};

// Allocations made by one localize of a noisy 3-sample day-45 query at
// `cell` against the run's registration database.
QueryCost localize_cost(const eval::EnvironmentRun& run, std::size_t cell) {
  const OmpLocalizer omp(run.ground_truth.at_day(0), {});
  sim::Sampler sampler(run.testbed, "omp-allocations");
  const auto y = sampler.online_measurement(cell, 45, 3);
  QueryCost cost;
  cost.atoms = omp.solve(y).support.size();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  omp.localize(y);
  cost.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  return cost;
}

TEST(OmpAllocations, PerLocalizeCountDoesNotGrowWithCells) {
  const eval::EnvironmentRun& office = iup::test::office_run();
  const eval::EnvironmentRun& hall = iup::test::hall_run();
  ASSERT_LT(office.ground_truth.at_day(0).cols(),
            hall.ground_truth.at_day(0).cols());
  const QueryCost office_cost = localize_cost(office, 37);
  const QueryCost hall_cost = localize_cost(hall, 37);
  // Both queries run the whole sparsity budget, so neither count hides
  // behind an early stop.
  EXPECT_EQ(office_cost.atoms, 3u);
  EXPECT_EQ(hall_cost.atoms, 3u);
  EXPECT_GT(office_cost.allocations, 0u);
  EXPECT_EQ(office_cost.allocations, hall_cost.allocations);
}

}  // namespace
}  // namespace iup::loc
