// Lockstep property test: obs::Sampler against the name-keyed reference.
//
// The Sampler's cursor walk (registration-log watermark, flat cursor
// vectors, dirty-skipped histograms) earns its keep only if it is
// *indistinguishable* from the reference scrape in
// tests/obs/reference_sampler.hpp. Each run grows and mutates one registry
// across hundreds of scrapes — late registrations between scrapes, all
// three kinds interleaved, series names shared across kinds, merge_from
// from a second registry, zero-count bucket merges, quiet intervals,
// repeated timestamps and disabled ticks — and after every scrape compares
// every series of both samplers bit for bit.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "tests/obs/reference_sampler.hpp"

namespace ph::obs {
namespace {

constexpr TimePoint kInterval = 100'000;

std::string counter_name(std::size_t k) {
  return "peerhood.daemon.d" + std::to_string(k % 37) + ".c" +
         std::to_string(k);
}
std::string hist_name(std::size_t k) {
  return "community.client.d" + std::to_string(k % 29) + ".h" +
         std::to_string(k) + "_us";
}

/// Drives one registry (plus a second one merged into it) with a seeded
/// random history.
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : rng_(seed) {}

  Registry& registry() { return registry_; }

  bool chance(double p) { return std::bernoulli_distribution(p)(rng_); }
  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  /// One inter-scrape interval's worth of registry activity.
  void step() {
    if (chance(0.15)) return;  // quiet interval: nothing moves
    if (chance(0.35)) register_some();
    mutate_some();
    if (chance(0.08)) merge_other();
  }

  /// Values move; nothing new is registered.
  void mutate() { mutate_some(); }

 private:
  const std::vector<double>& random_bounds() {
    static const std::vector<double> tiny = {1, 2, 4};
    switch (below(3)) {
      case 0: return default_latency_bounds_us();
      case 1: return operation_bounds_s();
      default: return tiny;
    }
  }

  void register_some() {
    const std::size_t n = 1 + below(3);
    for (std::size_t i = 0; i < n; ++i) {
      switch (below(3)) {
        case 0:
          counters_.push_back(
              &registry_.counter(counter_name(counters_.size())));
          break;
        case 1:
          hists_.push_back(&registry_.histogram(hist_name(hists_.size()),
                                                random_bounds()));
          break;
        default: {
          // Most gauges have names of their own; some share a series name
          // with a counter's or histogram's series — possibly one that
          // is not registered yet, or is registered in this same interval.
          std::string name;
          if (chance(0.7)) {
            name = "net.tech.g" + std::to_string(gauges_.size()) + ".d" +
                   std::to_string(below(16));
          } else if (chance(0.5)) {
            name = counter_name(below(counters_.size() + 3)) + ".rate";
          } else {
            static const char* kSuffix[] = {".rate", ".p50", ".p95", ".p99"};
            name = hist_name(below(hists_.size() + 3)) + kSuffix[below(4)];
          }
          gauges_.push_back(&registry_.gauge(name));
          break;
        }
      }
    }
  }

  double random_value(const Histogram& h) {
    // Log-uniform over the bucket range, overflow included.
    const double top = h.bounds().back() * 3.0;
    return std::exp(std::uniform_real_distribution<double>(
        std::log(0.5), std::log(top))(rng_));
  }

  void merge_random_buckets(Histogram& h, bool empty) {
    std::vector<std::uint64_t> counts(h.bucket_counts().size(), 0);
    std::uint64_t count = 0;
    if (!empty) {
      for (std::size_t k = below(4) + 1; k > 0; --k) {
        const std::uint64_t c = 1 + below(5);
        counts[below(counts.size())] += c;
        count += c;
      }
    }
    h.merge_buckets(counts.data(), counts.size(), count,
                    empty ? 0.0 : 1.5 * static_cast<double>(count),
                    empty ? 0.0 : 1.0, empty ? 0.0 : 2.0);
  }

  void mutate_some() {
    for (Counter* c : counters_) {
      if (chance(0.3)) c->inc(below(6));
    }
    for (Gauge* g : gauges_) {
      if (chance(0.3)) {
        g->set(std::uniform_real_distribution<double>(-50.0, 1e4)(rng_));
      }
    }
    for (Histogram* h : hists_) {
      if (chance(0.25)) {
        for (std::size_t k = below(4) + 1; k > 0; --k) {
          h->observe(random_value(*h));
        }
      } else if (chance(0.05)) {
        merge_random_buckets(*h, /*empty=*/true);
      } else if (chance(0.05)) {
        merge_random_buckets(*h, /*empty=*/false);
      }
    }
  }

  void merge_other() {
    // The second registry gains instruments of its own over time; each
    // merge_from registers any it has not seen yet in the main registry.
    const std::string id = std::to_string(other_size_++ % 11);
    other_.counter("fleet.d" + id + ".frames").inc(below(9));
    other_.gauge("fleet.d" + id + ".depth")
        .set(static_cast<double>(below(100)));
    Histogram& h = other_.histogram("fleet.d" + id + ".rtt_us");
    if (chance(0.5)) h.observe(random_value(h));
    registry_.merge_from(other_);
  }

  std::mt19937_64 rng_;
  Registry registry_;
  Registry other_;
  std::size_t other_size_ = 0;
  std::vector<Counter*> counters_;
  std::vector<Gauge*> gauges_;
  std::vector<Histogram*> hists_;
};

/// Every series equal bit for bit: same name set, and per series the same
/// kind, ring shape, push count and every retained point.
void expect_identical(const Sampler& sampler, const ReferenceSampler& reference,
                      int scrape) {
  ASSERT_EQ(sampler.samples_taken(), reference.samples_taken())
      << "scrape " << scrape;
  ASSERT_EQ(sampler.allocations(), reference.allocations())
      << "scrape " << scrape;
  ASSERT_EQ(sampler.series().size(), reference.series().size())
      << "scrape " << scrape;
  auto want = reference.series().begin();
  for (const auto& [name, got] : sampler.series()) {
    const auto& [want_name, expected] = *want++;
    ASSERT_EQ(name, want_name) << "scrape " << scrape;
    ASSERT_EQ(got.kind(), expected.kind()) << name << " scrape " << scrape;
    ASSERT_EQ(got.capacity(), expected.capacity()) << name;
    ASSERT_EQ(got.size(), expected.size()) << name << " scrape " << scrape;
    ASSERT_EQ(got.total_points(), expected.total_points())
        << name << " scrape " << scrape;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.at(i).at, expected.at(i).at)
          << name << " point " << i << " scrape " << scrape;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at(i).value),
                std::bit_cast<std::uint64_t>(expected.at(i).value))
          << name << " point " << i << " scrape " << scrape << ": "
          << got.at(i).value << " vs " << expected.at(i).value;
    }
  }
}

void run_lockstep(std::uint64_t seed, int scrapes) {
  Workload workload(seed);
  // A small ring so long runs exercise eviction on both sides.
  const SamplerConfig config{.interval_us = kInterval, .capacity = 16};
  Sampler sampler(workload.registry(), config);
  ReferenceSampler reference(workload.registry(), config);

  TimePoint now = 0;  // the first scrape at t=0 takes the elapsed fallback
  bool enabled = true;
  for (int scrape = 0; scrape < scrapes; ++scrape) {
    if (workload.chance(0.03)) {
      enabled = !enabled;
      sampler.set_enabled(enabled);
      reference.set_enabled(enabled);
    }
    sampler.sample(now);
    reference.sample(now);
    expect_identical(sampler, reference, scrape);
    if (::testing::Test::HasFatalFailure()) return;

    workload.step();
    // Mostly regular ticks, some jittered, some repeated (ignored).
    if (!workload.chance(0.05)) {
      now += workload.chance(0.8) ? kInterval
                                  : 1 + workload.below(3 * kInterval);
    }
  }
  EXPECT_GT(sampler.series().size(), 100u) << "the workload barely grew";
}

TEST(SamplerLockstep, MatchesReferenceOverRandomHistories) {
  for (std::uint64_t seed : {1u, 2u, 3u, 0xC0FFEEu}) {
    SCOPED_TRACE(seed);
    run_lockstep(seed, 600);
    if (HasFatalFailure()) return;
  }
}

TEST(SamplerLockstep, MatchesReferenceWithEverythingRegisteredUpFront) {
  // The static shape of a warmed-up world: the whole registry exists
  // before the first scrape, then only values move.
  Workload workload(99);
  for (int i = 0; i < 40; ++i) workload.step();
  const SamplerConfig config{.interval_us = kInterval, .capacity = 8};
  Sampler sampler(workload.registry(), config);
  ReferenceSampler reference(workload.registry(), config);
  for (int scrape = 1; scrape <= 50; ++scrape) {
    sampler.sample(scrape * kInterval);
    reference.sample(scrape * kInterval);
    expect_identical(sampler, reference, scrape);
    if (HasFatalFailure()) return;
    workload.mutate();
  }
}

}  // namespace
}  // namespace ph::obs
