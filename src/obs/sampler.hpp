// Virtual-time metric sampling — the time-series half of ph::obs.
//
// A Registry snapshot is a single end-of-run number per instrument; a run
// that degrades half-way through (a fault-plane outage, a congested radio)
// looks identical to a healthy one. The Sampler closes that gap: scraped at
// a fixed *virtual* interval (schedule it with sim::Simulator::
// schedule_periodic), it diffs successive instrument states into
// ring-buffered per-metric TimeSeries —
//
//   counters   -> `<name>.rate`  events/second over the interval
//   gauges     -> `<name>`       last value at the sample instant
//   histograms -> `<name>.rate`  observations/second over the interval
//                 `<name>.p50/.p95/.p99`
//                                per-interval quantiles from the bucket
//                                diff (only when the interval saw samples)
//
// The design borrows Monarch's windowed in-memory series and Dapper's
// always-on/low-overhead discipline: every ring is allocated once when its
// metric first appears (O(series) allocation for a whole run, never
// O(samples x metrics) — tests assert this via allocations()), a sample
// does no allocation at steady state, and a Sampler that is disabled or
// simply never constructed costs the instrumented code nothing (sampling
// is pull-based; layers never see the sampler).
//
// A scrape is a linear walk over flat cursor vectors, never a name lookup.
// The Sampler keeps a watermark into the Registry's append-only
// registration log (Registry::entries()); each scrape first turns the log
// entries past it into cursors — instrument pointer, last value, series
// pointers — creating each series exactly once, then walks the counter,
// gauge and histogram cursors in that order. A histogram whose count()
// has not moved since the last scrape pushes a zero rate and skips its
// bucket diff (the dirty skip). Cost model per scrape: one pointer chase
// and one ring push per counter and gauge, the same per quiet histogram,
// plus O(buckets) and three quantile reads per histogram that saw
// observations; the cursor vectors grow only when the registry does.
//
// Like the Trace, the Sampler takes explicit TimePoint stamps so obs does
// not depend on the simulator. All state is deterministic: same seed, same
// scrape schedule => byte-identical series dumps. A Sampler may instead be
// constructed over an obs::Clock (virtual FnClock or monotonic WallClock)
// and scraped with the argless sample() — the stamps then come from the
// clock, and nothing else about the diffing changes, so a FnClock over the
// simulator reproduces the explicit-stamp path byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"  // TimePoint
#include "util/arena.hpp"

namespace ph::obs {

class Clock;

/// One sample of one series, stamped with virtual time.
struct SeriesPoint {
  TimePoint at = 0;
  double value = 0.0;
};

/// What a series' values mean (serialized into the JSON dump).
enum class SeriesKind {
  counter_rate,  ///< counter delta / interval, per second
  gauge,         ///< gauge value at the sample instant
  hist_rate,     ///< histogram count delta / interval, per second
  hist_p50,      ///< per-interval quantiles of the bucket diff
  hist_p95,
  hist_p99,
};

const char* to_string(SeriesKind kind);

/// Fixed-capacity ring of SeriesPoints, oldest evicted first. The backing
/// store is fixed at construction and never grows — either a vector the
/// series owns (standalone use, tests) or a caller-provided slab (the
/// Sampler carves all its rings out of one epoch arena, so a whole run's
/// series storage is a handful of chunk allocations instead of one heap
/// block per metric).
class TimeSeries {
 public:
  /// Self-owning ring (allocates its own storage).
  TimeSeries(SeriesKind kind, std::size_t capacity);
  /// External storage: `storage[0..capacity)` must outlive the series.
  TimeSeries(SeriesKind kind, SeriesPoint* storage, std::size_t capacity);

  TimeSeries(TimeSeries&& other) noexcept;
  TimeSeries& operator=(TimeSeries&& other) noexcept;

  SeriesKind kind() const noexcept { return kind_; }
  std::size_t capacity() const noexcept { return cap_; }
  /// Points currently retained (<= capacity).
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Oldest-first access; i must be < size().
  const SeriesPoint& at(std::size_t i) const;
  const SeriesPoint& back() const { return at(size_ - 1); }
  /// Points ever pushed (evicted ones included).
  std::uint64_t total_points() const noexcept { return total_; }
  std::uint64_t evicted() const noexcept { return total_ - size_; }

  void push(TimePoint at, double value);

 private:
  SeriesKind kind_;
  std::vector<SeriesPoint> own_;  // empty when the storage is external
  SeriesPoint* data_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // index of the oldest point
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

/// Per-interval quantile over a bucket-count *delta*: linear interpolation
/// inside the bucket containing the requested rank. The first bucket spans
/// (0, bounds[0]]; the overflow bucket clamps to the last bound (its true
/// extent is unknown from a diff). Returns 0 when `total` is 0.
double quantile_from_bucket_delta(const std::vector<double>& bounds,
                                  const std::vector<std::uint64_t>& delta,
                                  std::uint64_t total, double q);

struct SamplerConfig {
  /// Nominal scrape interval in virtual microseconds. Informational (the
  /// caller owns the actual schedule); serialized into dumps and used as
  /// the fallback elapsed time for the very first sample.
  std::uint64_t interval_us = 100'000;
  /// Ring capacity per series, in points.
  std::size_t capacity = 1024;
};

/// Scrapes a Registry into per-metric TimeSeries. Call sample(now) at a
/// fixed virtual interval; metrics registered after sampling started are
/// picked up on their first scrape (their series simply start later).
class Sampler {
 public:
  explicit Sampler(const Registry& registry, SamplerConfig config = {});
  /// Clockful form: sample() with no argument stamps from `clock`, which
  /// must outlive the sampler. The explicit sample(now) overload remains
  /// available and behaves identically.
  Sampler(const Registry& registry, const Clock& clock,
          SamplerConfig config = {});
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// A disabled sampler's sample() is a no-op (cheap soak-mode switch).
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  const SamplerConfig& config() const noexcept { return config_; }

  /// Scrapes every instrument once. `now` must be monotonically
  /// non-decreasing across calls; a repeated timestamp is ignored (the
  /// interval would be empty).
  void sample(TimePoint now);

  /// Clockful scrape: stamps from the attached Clock. Aborts when the
  /// sampler was constructed without one.
  void sample();

  /// The attached clock, or nullptr for an explicit-stamp sampler.
  const Clock* clock() const noexcept { return clock_; }

  /// All series, sorted by name.
  const std::map<std::string, TimeSeries>& series() const noexcept {
    return series_;
  }
  const TimeSeries* find(const std::string& name) const;

  std::uint64_t samples_taken() const noexcept { return samples_; }
  /// Ring buffers ever allocated == series ever created. The O(series)
  /// allocation guarantee is `allocations() == series().size()` no matter
  /// how many samples were taken.
  std::uint64_t allocations() const noexcept { return allocations_; }
  TimePoint last_sample_at() const noexcept { return last_at_; }

 private:
  /// Diff state per instrument, one vector per kind, each in registration
  /// order. Cursors hold raw instrument and series pointers (both stable),
  /// so a scrape never touches a name.
  struct CounterCursor {
    const Counter* counter = nullptr;
    std::uint64_t last = 0;
    TimeSeries* rate = nullptr;
  };
  struct GaugeCursor {
    const Gauge* gauge = nullptr;
    TimeSeries* value = nullptr;
  };
  struct HistCursor {
    const Histogram* hist = nullptr;
    std::uint64_t last_count = 0;
    std::uint64_t* last_buckets = nullptr;  // arena, bucket_counts().size()
    TimeSeries* rate = nullptr;
    TimeSeries* p50 = nullptr;
    TimeSeries* p95 = nullptr;
    TimeSeries* p99 = nullptr;
  };

  /// Gives every registry entry past `seen_` its cursor and series.
  void adopt_new_entries();
  TimeSeries* make_series(const std::string& name, SeriesKind kind);

  const Registry& registry_;
  const Clock* clock_ = nullptr;
  SamplerConfig config_;
  /// Backing store for every series ring and histogram bucket cursor; must
  /// be declared before series_ so the rings' storage outlives them on
  /// destruction.
  util::Arena arena_;
  bool enabled_ = true;
  std::uint64_t samples_ = 0;
  std::uint64_t allocations_ = 0;
  TimePoint last_at_ = 0;
  bool sampled_once_ = false;
  std::map<std::string, TimeSeries> series_;
  /// Registry entries already turned into cursors (a log watermark).
  std::size_t seen_ = 0;
  std::vector<CounterCursor> counter_cursors_;
  std::vector<GaugeCursor> gauge_cursors_;
  std::vector<HistCursor> hist_cursors_;
  /// Bucket-diff scratch, reserved for the widest histogram at adoption.
  std::vector<std::uint64_t> delta_;
};

}  // namespace ph::obs
