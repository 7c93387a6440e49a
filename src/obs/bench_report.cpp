#include "obs/bench_report.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace ph::obs {

namespace {

using json::append_escaped;
using json::append_number;

void append_number_map(std::string& out, const char* key,
                       const std::map<std::string, double>& values) {
  append_escaped(out, key);
  out += ":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    append_escaped(out, name);
    out += ':';
    append_number(out, value);
  }
  out += "\n}";
}

/// Embeds an already-rendered JSON document as a nested value.
void append_document(std::string& out, const std::string& document) {
  std::size_t end = document.size();
  while (end > 0 && (document[end - 1] == '\n' || document[end - 1] == ' ')) {
    --end;
  }
  out.append(document, 0, end);
}

}  // namespace

std::string to_json(const BenchReport& report, const Registry* registry,
                    const Sampler* sampler) {
  std::string out;
  out.reserve(4096);
  out += "{\n\"schema\":1,\n\"bench\":";
  append_escaped(out, report.bench);
  out += ",\n\"env\":{";
  bool first = true;
  for (const auto& [key, value] : report.env) {
    if (!first) out += ',';
    first = false;
    out += "\n";
    append_escaped(out, key);
    out += ':';
    append_escaped(out, value);
  }
  out += "\n},\n";
  append_number_map(out, "headline", report.headline);
  out += ",\n";
  append_number_map(out, "info", report.info);
  if (registry != nullptr) {
    out += ",\n\"metrics\":";
    append_document(out, obs::to_json(*registry));
  }
  if (sampler != nullptr) {
    out += ",\n\"series\":";
    append_document(out, series_to_json(*sampler));
  }
  out += "\n}\n";
  return out;
}

bool dump_bench_report_if_requested(const BenchReport& report,
                                    const Registry* registry,
                                    const Sampler* sampler) {
  const char* path = std::getenv("PH_BENCH_JSON");
  if (path == nullptr || *path == '\0') return true;
  if (!write_file(path, to_json(report, registry, sampler))) return false;
  std::fprintf(stderr, "obs: bench report (%s) written to %s\n",
               report.bench.c_str(), path);
  return true;
}

}  // namespace ph::obs
