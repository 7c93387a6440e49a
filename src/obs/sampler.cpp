#include "obs/sampler.hpp"

#include <algorithm>

#include "obs/clock.hpp"
#include "util/check.hpp"

namespace ph::obs {

const char* to_string(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::counter_rate: return "counter_rate";
    case SeriesKind::gauge: return "gauge";
    case SeriesKind::hist_rate: return "hist_rate";
    case SeriesKind::hist_p50: return "hist_p50";
    case SeriesKind::hist_p95: return "hist_p95";
    case SeriesKind::hist_p99: return "hist_p99";
  }
  return "unknown";
}

TimeSeries::TimeSeries(SeriesKind kind, std::size_t capacity) : kind_(kind) {
  PH_CHECK_MSG(capacity > 0, "time series needs a non-zero ring capacity");
  own_.resize(capacity);  // the one allocation this series ever makes
  data_ = own_.data();
  cap_ = capacity;
}

TimeSeries::TimeSeries(SeriesKind kind, SeriesPoint* storage,
                       std::size_t capacity)
    : kind_(kind), data_(storage), cap_(capacity) {
  PH_CHECK_MSG(capacity > 0, "time series needs a non-zero ring capacity");
  PH_CHECK_MSG(storage != nullptr, "external time-series storage is null");
}

TimeSeries::TimeSeries(TimeSeries&& other) noexcept
    : kind_(other.kind_),
      own_(std::move(other.own_)),
      // A moved vector keeps its buffer address, but data_ must re-anchor
      // to *this* object's vector in the self-owning case.
      data_(own_.empty() ? other.data_ : own_.data()),
      cap_(other.cap_),
      head_(other.head_),
      size_(other.size_),
      total_(other.total_) {}

TimeSeries& TimeSeries::operator=(TimeSeries&& other) noexcept {
  if (this != &other) {
    kind_ = other.kind_;
    own_ = std::move(other.own_);
    data_ = own_.empty() ? other.data_ : own_.data();
    cap_ = other.cap_;
    head_ = other.head_;
    size_ = other.size_;
    total_ = other.total_;
  }
  return *this;
}

const SeriesPoint& TimeSeries::at(std::size_t i) const {
  PH_CHECK_MSG(i < size_, "time series index out of range");
  return data_[(head_ + i) % cap_];
}

void TimeSeries::push(TimePoint at, double value) {
  const std::size_t slot = (head_ + size_) % cap_;
  data_[slot] = SeriesPoint{at, value};
  if (size_ < cap_) {
    ++size_;
  } else {
    head_ = (head_ + 1) % cap_;  // overwrite the oldest
  }
  ++total_;
}

double quantile_from_bucket_delta(const std::vector<double>& bounds,
                                  const std::vector<std::uint64_t>& delta,
                                  std::uint64_t total, double q) {
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += delta[i];
    if (static_cast<double>(cumulative) < rank) continue;
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : bounds.back();
    const double fraction = (rank - below) / static_cast<double>(delta[i]);
    return lo + fraction * (hi - lo);
  }
  // Every occupied bucket was below the rank (can't happen when the delta
  // sums to `total`, but stay defensive): the distribution's upper edge.
  return bounds.back();
}

Sampler::Sampler(const Registry& registry, SamplerConfig config)
    : registry_(registry), config_(config) {
  PH_CHECK_MSG(config_.interval_us > 0, "sampler interval must be positive");
  PH_CHECK_MSG(config_.capacity > 0, "sampler ring capacity must be positive");
}

Sampler::Sampler(const Registry& registry, const Clock& clock,
                 SamplerConfig config)
    : Sampler(registry, config) {
  clock_ = &clock;
}

void Sampler::sample() {
  PH_CHECK_MSG(clock_ != nullptr,
               "argless sample() needs a clockful Sampler (Clock ctor)");
  sample(clock_->now());
}

TimeSeries* Sampler::make_series(const std::string& name, SeriesKind kind) {
  // Look up before constructing: building a TimeSeries claims its ring,
  // and a series name two instruments share must map to one ring.
  auto it = series_.find(name);
  if (it == series_.end()) {
    // Rings live in the sampler's arena: one bump per series, a handful of
    // chunk mallocs per run, and the points sit contiguously — dump code
    // walks them cache-linearly.
    SeriesPoint* storage = arena_.allocate_array<SeriesPoint>(config_.capacity);
    it = series_.emplace(name, TimeSeries(kind, storage, config_.capacity))
             .first;
    ++allocations_;
  }
  return &it->second;
}

const TimeSeries* Sampler::find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void Sampler::adopt_new_entries() {
  const std::vector<Registry::Entry>& log = registry_.entries();
  if (seen_ == log.size()) return;
  // One pass per kind, in the scrape's push order: should a series name be
  // shared across kinds (a gauge `x.rate` beside a counter `x`), the
  // series takes the kind of the walker that reaches it first.
  for (std::size_t i = seen_; i < log.size(); ++i) {
    if (log[i].kind != Registry::Kind::counter) continue;
    counter_cursors_.push_back(
        {.counter = &log[i].counter(),
         .rate = make_series(*log[i].name + ".rate",
                             SeriesKind::counter_rate)});
  }
  for (std::size_t i = seen_; i < log.size(); ++i) {
    if (log[i].kind != Registry::Kind::gauge) continue;
    gauge_cursors_.push_back({.gauge = &log[i].gauge(),
                              .value = make_series(*log[i].name,
                                                   SeriesKind::gauge)});
  }
  for (std::size_t i = seen_; i < log.size(); ++i) {
    if (log[i].kind != Registry::Kind::histogram) continue;
    const std::string& name = *log[i].name;
    const Histogram& hist = log[i].histogram();
    const std::size_t buckets = hist.bucket_counts().size();
    hist_cursors_.push_back(
        {.hist = &hist,
         .last_buckets = arena_.allocate_array<std::uint64_t>(buckets),
         .rate = make_series(name + ".rate", SeriesKind::hist_rate),
         .p50 = make_series(name + ".p50", SeriesKind::hist_p50),
         .p95 = make_series(name + ".p95", SeriesKind::hist_p95),
         .p99 = make_series(name + ".p99", SeriesKind::hist_p99)});
    if (delta_.capacity() < buckets) delta_.reserve(buckets);
  }
  seen_ = log.size();
}

void Sampler::sample(TimePoint now) {
  if (!enabled_) return;
  if (sampled_once_ && now <= last_at_) return;  // empty or reversed interval
  // Elapsed virtual time the deltas cover. Registry counters start at zero
  // when created, so the first scrape's delta-from-zero is the metric's
  // true activity since it appeared — late-registered metrics need no
  // special case beyond the elapsed fallback.
  std::uint64_t elapsed = sampled_once_ ? now - last_at_ : now;
  if (elapsed == 0) elapsed = config_.interval_us;
  const double per_second = 1e6 / static_cast<double>(elapsed);

  adopt_new_entries();

  for (CounterCursor& cursor : counter_cursors_) {
    const std::uint64_t value = cursor.counter->value();
    // Counters are monotonic by contract; clamp defensively so a wrapped
    // or externally reset counter yields a zero rate, not a huge one.
    const std::uint64_t delta = value >= cursor.last ? value - cursor.last : 0;
    cursor.last = value;
    cursor.rate->push(now, static_cast<double>(delta) * per_second);
  }

  for (const GaugeCursor& cursor : gauge_cursors_) {
    cursor.value->push(now, cursor.gauge->value());
  }

  for (HistCursor& cursor : hist_cursors_) {
    // Histograms only grow and count() is the sum of their buckets, so the
    // count delta is the interval's observation count, and a histogram
    // whose count has not moved has an all-zero bucket diff: skip it.
    const std::uint64_t count = cursor.hist->count();
    const std::uint64_t delta_count = count - cursor.last_count;
    cursor.rate->push(now, static_cast<double>(delta_count) * per_second);
    if (delta_count == 0) continue;
    cursor.last_count = count;
    const std::vector<std::uint64_t>& buckets = cursor.hist->bucket_counts();
    delta_.resize(buckets.size());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      delta_[i] = buckets[i] - cursor.last_buckets[i];
      cursor.last_buckets[i] = buckets[i];
    }
    // Quantile points only for intervals that saw observations: an empty
    // interval has no distribution, and a synthetic zero would poison
    // windowed SLO aggregates.
    const std::vector<double>& bounds = cursor.hist->bounds();
    cursor.p50->push(now, quantile_from_bucket_delta(bounds, delta_,
                                                     delta_count, 0.50));
    cursor.p95->push(now, quantile_from_bucket_delta(bounds, delta_,
                                                     delta_count, 0.95));
    cursor.p99->push(now, quantile_from_bucket_delta(bounds, delta_,
                                                     delta_count, 0.99));
  }

  last_at_ = now;
  sampled_once_ = true;
  ++samples_;
}

}  // namespace ph::obs
