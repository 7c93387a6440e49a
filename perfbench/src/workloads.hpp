// The benchmark's workloads; each builds its world from the seed, measures
// for the requested wall time and checks its outputs.
#pragma once

#include "common.hpp"

namespace perfbench {

RunResult run_crowd(const Options& options);
RunResult run_rooms(const Options& options);
RunResult run_loopback(const Options& options);

}  // namespace perfbench
