// Heap-allocation counting for tests and microbenchmarks.
//
// Linking tests/testutil/alloc_counter.cpp into a binary replaces the
// global operator new/delete with malloc/free wrappers that count every
// allocation. The replacement is process-global, so only binaries built
// to measure allocations (sim_alloc_test, bench_microbench) link it.
#pragma once

#include <cstddef>

namespace ph::testutil {

/// Heap allocations (calls of any global operator new) made so far.
std::size_t allocations() noexcept;

/// Allocations made while running `fn`.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = allocations();
  fn();
  return allocations() - before;
}

}  // namespace ph::testutil
