// Shared plumbing of the PeerHood benchmark: options, the per-run result
// record, wall clocks, percentiles, allocation and RSS readouts, the
// in-memory span journal of traced runs and the cost ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny world sizes: checks that every metric is emitted, measures
  /// nothing worth comparing.
  bool smoke = false;
  /// Directory for loopback's UNIX sockets; empty = a fresh /tmp dir.
  std::string socket_dir;
  /// Traced runs write their spans here (Chrome trace-event JSON).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One ledger row: a layer's count times its unit cost.
struct LedgerRow {
  std::string layer;
  double count = 0.0;
  double unit_ns = 0.0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Heap allocations made by this process so far (operator-new interposer
/// in alloc_counter.cpp).
std::uint64_t allocations();

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Quantile with linear interpolation between order statistics; 0 for
/// no samples.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Wall-clock rates of one run are read as the upper quartile over its
/// blocks (sub-windows), wall-clock latencies as the lower quartile.
/// Other tenants of a shared host only ever slow a block down, and their
/// slow spells last seconds, so even the median of a 30 s run swings with
/// them; the quartile on the fast side still has a quarter of the run's
/// blocks beyond it.
inline double upper_quartile(std::vector<double> values) {
  return quantile(std::move(values), 0.75);
}
inline double lower_quartile(std::vector<double> values) {
  return quantile(std::move(values), 0.25);
}
double mean(const std::vector<double>& values);

/// Throughput lost by traced blocks against untraced ones, in percent,
/// from the median rate of each; 0 when either side is empty.
double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced);

/// Quantile of the observations a histogram gained between two bucket
/// snapshots (same bounds).
double hist_delta_quantile(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& before,
                           const std::vector<std::uint64_t>& after, double q);

/// Sum of one counter over every per-device instance:
/// `<prefix>d<id>.<leaf>` for all ids.
std::uint64_t sum_counters(const ph::obs::Registry& registry,
                           const std::string& prefix, const std::string& leaf);
/// Same over a whole-registry snapshot (taken with an empty prefix).
std::uint64_t sum_counters(const ph::obs::Snapshot& snapshot,
                           const std::string& prefix, const std::string& leaf);

/// Bucket counts of every `<prefix>d<id>.<leaf>` histogram, added up.
/// Empty when none exists.
std::vector<std::uint64_t> sum_buckets(const ph::obs::Registry& registry,
                                       const std::string& prefix,
                                       const std::string& leaf,
                                       std::vector<double>* bounds);

/// A wall/virtual interval of the traced run around one call into a
/// layer. `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* layer = "";
  const char* name = "";
  std::uint64_t wall_start_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::uint64_t virt_start_us = 0;
  std::uint64_t virt_end_us = 0;
  std::int64_t parent = -1;
};

/// Spans kept in memory for the traced run and written out at its end.
/// Recording is off until enable(); a disabled journal costs one branch
/// per call site. The journal never grows past the capacity reserved by
/// enable(): further spans are counted as dropped instead of reallocating
/// mid-window.
class SpanJournal {
 public:
  void enable(std::size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index, or -1 when not recording.
  std::int64_t open(const char* layer, const char* name,
                    std::uint64_t virt_us, std::int64_t parent = -1) {
    if (!enabled_) return -1;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    Span span;
    span.layer = layer;
    span.name = name;
    span.wall_start_ns = wall_ns();
    span.virt_start_us = virt_us;
    span.parent = parent;
    spans_.push_back(span);
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t index, std::uint64_t virt_us) {
    if (index < 0) return;
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.wall_end_ns = wall_ns();
    span.virt_end_us = virt_us;
  }

  /// Summed wall ns of closed spans named `name`, and their number.
  double total_ns(const char* name) const;
  std::size_t count(const char* name) const;

  /// Writes the closed spans as Chrome trace-event JSON (Perfetto opens
  /// it): one complete event per span, layer as category, wall
  /// microseconds on the time axis, virtual stamps and parent in args.
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

struct RunResult {
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every measured value by metric name; main.cpp picks the end-to-end or
  /// the per-layer set out of it.
  std::map<std::string, double> values;
  /// Workload-specific headline metrics, printed by name with their unit.
  std::vector<Metric> report;
  /// Traced runs: the cost ledger against the measured wall time.
  std::vector<LedgerRow> ledger;
  double ledger_wall_s = 0.0;

  /// Failed checks; the first 20 messages are kept for the report.
  std::uint64_t check_failed = 0;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++check_failed;
    if (check_failures.size() < 20) check_failures.push_back(what);
  }
  void headline(std::string name, double value, std::string unit) {
    report.push_back({std::move(name), value, std::move(unit)});
  }
  /// Traced runs: writes the span journal to options.trace_out.
  void write_spans(const SpanJournal& journal, const Options& options);
};

/// Moves the calling thread to the next CPU of the affinity mask the
/// process started with, round robin. The workloads call it at every
/// block, sub-window and set-up: on a shared VM one CPU can run a single
/// thread 1.5 times faster than another for tens of seconds, and an
/// unpinned thread stays put that long, so a run would otherwise read
/// whichever CPU it landed on.
void next_cpu();

/// Whether the index-th block of a traced run records. Traced and
/// untraced blocks alternate in runs of one full CPU rotation each, so
/// neither side lands on a subset of the CPUs.
bool traced_block(std::size_t index);

/// Set-ups per run: setup_s is their median. About half happen before
/// the window (the last of those is the world measured), the rest after
/// it, so one slow spell of the machine does not cover all of them.
/// Smoke runs set up twice.
int setup_count(const Options& options, int full);

/// JSON descriptor of the machine and build (nproc, CPU model, build
/// type, compiler) stamped on every result.
std::string machine_descriptor();

}  // namespace perfbench
