#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/sampler.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return (1.0 - median(traced) / median(untraced)) * 100.0;
}

double hist_delta_quantile(const std::vector<double>& bounds,
                           const std::vector<std::uint64_t>& before,
                           const std::vector<std::uint64_t>& after, double q) {
  if (after.empty()) return 0.0;
  std::vector<std::uint64_t> delta(after.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - (i < before.size() ? before[i] : 0);
    total += delta[i];
  }
  return ph::obs::quantile_from_bucket_delta(bounds, delta, total, q);
}

namespace {

/// True when `name` is `<prefix>d<digits>.<leaf>`.
bool per_device_match(const std::string& name, const std::string& prefix,
                      const std::string& leaf) {
  if (name.size() <= prefix.size() + leaf.size() + 2) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - leaf.size(), leaf.size(), leaf) != 0) {
    return false;
  }
  std::size_t i = prefix.size();
  if (name[i] != 'd') return false;
  const std::size_t dot = name.size() - leaf.size() - 1;
  if (name[dot] != '.' || dot <= i + 1) return false;
  for (++i; i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

template <typename Map, typename Value>
std::uint64_t sum_matching(const Map& counters, const std::string& prefix,
                           const std::string& leaf, Value value) {
  std::uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (per_device_match(it->first, prefix, leaf)) total += value(it->second);
  }
  return total;
}

}  // namespace

std::uint64_t sum_counters(const ph::obs::Registry& registry,
                           const std::string& prefix, const std::string& leaf) {
  return sum_matching(registry.counters(), prefix, leaf,
                      [](const auto& counter) { return counter->value(); });
}

std::uint64_t sum_counters(const ph::obs::Snapshot& snapshot,
                           const std::string& prefix, const std::string& leaf) {
  return sum_matching(snapshot.counters(), prefix, leaf,
                      [](std::uint64_t value) { return value; });
}

std::vector<std::uint64_t> sum_buckets(const ph::obs::Registry& registry,
                                       const std::string& prefix,
                                       const std::string& leaf,
                                       std::vector<double>* bounds) {
  std::vector<std::uint64_t> total;
  const auto& histograms = registry.histograms();
  for (auto it = histograms.lower_bound(prefix);
       it != histograms.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (!per_device_match(it->first, prefix, leaf)) continue;
    const auto& counts = it->second->bucket_counts();
    if (total.empty()) {
      total.assign(counts.size(), 0);
      if (bounds != nullptr) *bounds = it->second->bounds();
    }
    for (std::size_t i = 0; i < counts.size() && i < total.size(); ++i) {
      total[i] += counts[i];
    }
  }
  return total;
}

double SpanJournal::total_ns(const char* name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0 &&
        span.wall_end_ns >= span.wall_start_ns) {
      total += static_cast<double>(span.wall_end_ns - span.wall_start_ns);
    }
  }
  return total;
}

std::size_t SpanJournal::count(const char* name) const {
  std::size_t n = 0;
  for (const Span& span : spans_) {
    n += std::strcmp(span.name, name) == 0 ? 1 : 0;
  }
  return n;
}

bool SpanJournal::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::uint64_t origin =
      spans_.empty() ? 0 : spans_.front().wall_start_ns;
  std::fprintf(out, "{\"traceEvents\": [");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.wall_end_ns < span.wall_start_ns) continue;  // still open
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %zu, \"parent\": %lld, "
                 "\"virt_start_us\": %llu, \"virt_end_us\": %llu}}",
                 first ? "" : ",", span.name, span.layer,
                 static_cast<double>(span.wall_start_ns - origin) / 1e3,
                 static_cast<double>(span.wall_end_ns - span.wall_start_ns) /
                     1e3,
                 i, static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.virt_start_us),
                 static_cast<unsigned long long>(span.virt_end_us));
    first = false;
  }
  std::fprintf(out, "\n], \"otherData\": {\"dropped_spans\": \"%llu\"}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(out) == 0;
}

void RunResult::write_spans(const SpanJournal& journal,
                            const Options& options) {
  if (!options.trace || options.trace_out.empty()) return;
  check(journal.write_chrome_json(options.trace_out),
        "cannot write spans to " + options.trace_out);
}

namespace {

/// The CPUs of the affinity mask the process started with.
const std::vector<int>& rotation() {
  static const std::vector<int> cpus = [] {
    std::vector<int> list;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask)) list.push_back(cpu);
      }
    }
    return list;
  }();
  return cpus;
}

}  // namespace

bool traced_block(std::size_t index) {
  return (index / std::max<std::size_t>(1, rotation().size())) % 2 == 1;
}

void next_cpu() {
  const std::vector<int>& cpus = rotation();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus[next++ % cpus.size()], &mask);
  sched_setaffinity(0, sizeof mask, &mask);  // best effort
}

int setup_count(const Options& options, int full) {
  return options.smoke ? 2 : full;
}

std::string machine_descriptor() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %ld, \"cpu\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN), cpu.c_str(),
                PERFBENCH_BUILD_TYPE,
                __VERSION__);
  return buf;
}

}  // namespace perfbench
