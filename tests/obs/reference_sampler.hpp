// Reference sampler for the obs::Sampler lockstep tests.
//
// The name-keyed scrape obs::Sampler used before its cursor walk: every
// tick it walks the Registry's three name-ordered maps, finds each
// counter's and histogram's diff cursor by name (creating it on first
// sight), looks each gauge's series up by name, and diffs every
// histogram's buckets whether or not it saw observations. Slow, but its
// output is obviously the definition — rates from per-metric deltas,
// quantiles from the bucket diff — which is what makes it a useful
// oracle: the Sampler must produce exactly the same series, point for
// point, for every registry history. Its rings own their storage, so it
// shares nothing with the Sampler beyond TimeSeries and the quantile
// helper.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace ph::obs {

class ReferenceSampler {
 public:
  ReferenceSampler(const Registry& registry, SamplerConfig config)
      : registry_(registry), config_(config) {}
  ReferenceSampler(const ReferenceSampler&) = delete;
  ReferenceSampler& operator=(const ReferenceSampler&) = delete;

  void set_enabled(bool on) noexcept { enabled_ = on; }

  void sample(TimePoint now) {
    if (!enabled_) return;
    if (sampled_once_ && now <= last_at_) return;
    std::uint64_t elapsed = sampled_once_ ? now - last_at_ : now;
    if (elapsed == 0) elapsed = config_.interval_us;
    const double per_second = 1e6 / static_cast<double>(elapsed);

    for (const auto& [name, counter] : registry_.counters()) {
      auto it = counter_cursors_.find(name);
      if (it == counter_cursors_.end()) {
        it = counter_cursors_.emplace(name, CounterCursor{}).first;
        it->second.counter = counter.get();
        it->second.rate = make_series(name + ".rate", SeriesKind::counter_rate);
      }
      CounterCursor& cursor = it->second;
      const std::uint64_t value = cursor.counter->value();
      const std::uint64_t delta =
          value >= cursor.last ? value - cursor.last : 0;
      cursor.last = value;
      cursor.rate->push(now, static_cast<double>(delta) * per_second);
    }

    for (const auto& [name, gauge] : registry_.gauges()) {
      make_series(name, SeriesKind::gauge)->push(now, gauge->value());
    }

    for (const auto& [name, hist] : registry_.histograms()) {
      auto it = hist_cursors_.find(name);
      if (it == hist_cursors_.end()) {
        it = hist_cursors_.emplace(name, HistCursor{}).first;
        HistCursor& fresh = it->second;
        fresh.hist = hist.get();
        fresh.last_buckets.assign(hist->bucket_counts().size(), 0);
        fresh.delta.assign(hist->bucket_counts().size(), 0);
        fresh.rate = make_series(name + ".rate", SeriesKind::hist_rate);
        fresh.p50 = make_series(name + ".p50", SeriesKind::hist_p50);
        fresh.p95 = make_series(name + ".p95", SeriesKind::hist_p95);
        fresh.p99 = make_series(name + ".p99", SeriesKind::hist_p99);
      }
      HistCursor& cursor = it->second;
      const std::vector<std::uint64_t>& buckets = cursor.hist->bucket_counts();
      std::uint64_t delta_count = 0;
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        const std::uint64_t d = buckets[i] >= cursor.last_buckets[i]
                                    ? buckets[i] - cursor.last_buckets[i]
                                    : 0;
        cursor.delta[i] = d;
        cursor.last_buckets[i] = buckets[i];
        delta_count += d;
      }
      cursor.rate->push(now, static_cast<double>(delta_count) * per_second);
      if (delta_count > 0) {
        const std::vector<double>& bounds = cursor.hist->bounds();
        cursor.p50->push(now, quantile_from_bucket_delta(bounds, cursor.delta,
                                                         delta_count, 0.50));
        cursor.p95->push(now, quantile_from_bucket_delta(bounds, cursor.delta,
                                                         delta_count, 0.95));
        cursor.p99->push(now, quantile_from_bucket_delta(bounds, cursor.delta,
                                                         delta_count, 0.99));
      }
    }

    last_at_ = now;
    sampled_once_ = true;
    ++samples_;
  }

  const std::map<std::string, TimeSeries>& series() const noexcept {
    return series_;
  }
  std::uint64_t samples_taken() const noexcept { return samples_; }
  std::uint64_t allocations() const noexcept { return allocations_; }

 private:
  struct CounterCursor {
    const Counter* counter = nullptr;
    std::uint64_t last = 0;
    TimeSeries* rate = nullptr;
  };
  struct HistCursor {
    const Histogram* hist = nullptr;
    std::vector<std::uint64_t> last_buckets;
    std::vector<std::uint64_t> delta;
    TimeSeries* rate = nullptr;
    TimeSeries* p50 = nullptr;
    TimeSeries* p95 = nullptr;
    TimeSeries* p99 = nullptr;
  };

  TimeSeries* make_series(const std::string& name, SeriesKind kind) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, TimeSeries(kind, config_.capacity)).first;
      ++allocations_;
    }
    return &it->second;
  }

  const Registry& registry_;
  SamplerConfig config_;
  bool enabled_ = true;
  bool sampled_once_ = false;
  TimePoint last_at_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t allocations_ = 0;
  std::map<std::string, TimeSeries> series_;
  std::map<std::string, CounterCursor> counter_cursors_;
  std::map<std::string, HistCursor> hist_cursors_;
};

}  // namespace ph::obs
