// The measured window of a simulated workload (crowd, rooms) and the
// per-layer readout they share.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "net/medium.hpp"
#include "obs/prof.hpp"
#include "proto/messages.hpp"
#include "replay.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// One block of virtual time run inside the window.
struct Block {
  double wall_s = 0.0;
  double virt_s = 0.0;
  double ops = 0.0;  ///< workload operations completed in the block
  bool traced = false;
};

/// Runs a world in blocks of virtual time until both the wall budget and a
/// deterministic prefix of blocks are covered. In a traced run every other
/// block is traced: the span journal records and an EventProfiler counts
/// dispatches per cost center; the untraced blocks give the overhead.
class SimWindow {
 public:
  SimWindow(ph::sim::Simulator& simulator, const ph::obs::Registry& registry,
            SpanJournal& journal, const Options& options);

  /// `run_block` runs one block; `ops` reads the workload's completed
  /// operation count; `at_prefix` runs once, right after the prefix of
  /// `prefix_blocks` blocks. Peak RSS is read at that point too, so a
  /// faster build that simulates more seconds does not read as a bigger
  /// one.
  void run(std::size_t prefix_blocks, const std::function<void()>& run_block,
           const std::function<double()>& ops,
           const std::function<void()>& at_prefix);

  const std::vector<Block>& blocks() const { return blocks_; }
  double rss_mb() const { return rss_mb_; }
  /// Upper quartile over blocks of virtual s per wall s / ops per wall s.
  double sim_rate() const;
  double ops_rate() const;

  /// Traced runs: registry deltas over the window for every layer a
  /// simulated world publishes, prof.<center>.events of the traced blocks,
  /// sim.* costs and trace.overhead_pct.
  void add_layer_metrics(RunResult& result) const;

  /// Traced runs: times the single-layer replays on the world's final
  /// state and writes the cost ledger of the traced blocks. `pairs` are
  /// radio neighbours, `peers` what the group engines were fed, `wire`
  /// the request/response kinds the workload sent.
  void add_replays_and_ledger(
      ph::net::Medium& medium, const std::vector<ph::net::NodeId>& nodes,
      const std::vector<std::pair<ph::net::NodeId, ph::net::NodeId>>& pairs,
      const std::vector<std::string>& local_interests,
      const std::vector<PeerInput>& peers,
      const std::vector<std::pair<ph::proto::Request, ph::proto::Response>>&
          wire,
      RunResult& result) const;

 private:
  ph::sim::Simulator& simulator_;
  const ph::obs::Registry& registry_;
  SpanJournal& journal_;
  const Options& options_;
  ph::obs::prof::EventProfiler profiler_;
  std::vector<Block> blocks_;
  double rss_mb_ = 0.0;
  ph::obs::Snapshot before_;
  ph::obs::Snapshot after_;
  std::uint64_t events_ = 0;
  std::uint64_t allocs_ = 0;
};

}  // namespace perfbench
