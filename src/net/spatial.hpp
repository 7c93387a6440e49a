// SpatialGrid — a uniform-grid proximity index over node positions.
//
// The Medium's hot paths (inquiry fan-out, broadcast delivery, signal
// sampling) all ask the same question: "which nodes can possibly be within
// `radius` of this point right now?". Answering it by scanning the whole
// world is O(N) per query and O(N²) per discovery round — the exact cost
// the thesis' future-work item on crowd-scale dynamic group discovery
// worries about. The grid buckets positions into square cells of edge
// `cell_size_m` and answers a range query by visiting only the cells
// intersecting the query disk's bounding box, so a query touches O(k)
// candidates instead of N.
//
// The index is a *pure prune*: cells give a superset of the disk, then an
// exact distance test (the same correctly-rounded hypot the signal falloff
// uses, with the same strict `< radius` inequality) drops the corners — a
// node is returned iff the falloff at its distance would be nonzero. The
// caller still re-applies the full reachability predicate (power, fault
// attenuation). That is what keeps grid and brute-force results
// bit-identical — the equivalence the spatial property test asserts.
//
// Determinism: candidates are returned sorted by insertion index, so the
// caller's evaluation order — and therefore its RNG consumption — is
// independent of cell iteration order.
//
// Storage is flat: entry indices grouped by cell in one array (ascending
// within each cell), and an open-addressing table from cell key to that
// cell's range. Table slots carry a rebuild stamp, so a rebuild empties the
// table by bumping one counter. Rebuilds are O(N) and allocate only when
// the entry count exceeds every earlier one; the Medium rebuilds lazily, at
// most once per (virtual timestamp, topology change) per technology.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/world.hpp"

namespace ph::net {

class SpatialGrid {
 public:
  struct QueryStats {
    std::size_t cells_visited = 0;  ///< cell probes (hits and misses)
    std::size_t candidates = 0;     ///< indices appended to `out`
  };

  /// Replaces the index contents. `positions[i]` is the position of the
  /// caller's i-th entry (the Medium uses per-technology adapter indices);
  /// query() reports these indices back. `cell_size_m` must be positive.
  /// Copies into internal storage, reusing its capacity — a rebuild no
  /// larger than an earlier one allocates nothing.
  void rebuild(double cell_size_m, const std::vector<sim::Vec2>& positions);

  /// Appends to `out`, sorted ascending, the indices of every entry with
  /// distance(entry, center) < radius_m — strict, matching the falloff's
  /// "0 at/beyond range". A non-positive radius yields no candidates (a
  /// zero-range radio hears nobody, matching the exact predicate).
  QueryStats query(sim::Vec2 center, double radius_m,
                   std::vector<std::uint32_t>& out) const;

  std::size_t size() const noexcept { return positions_.size(); }
  double cell_size() const noexcept { return cell_size_; }

 private:
  static std::uint64_t cell_key(std::int32_t cx, std::int32_t cy) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  std::int32_t cell_coord(double v) const noexcept;

  /// One occupied cell: its entries are order_[begin, end). Occupied only
  /// while `stamp` equals the grid's current stamp.
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint64_t stamp = 0;
  };
  /// The cell for `key` under the current stamp, or the free slot where it
  /// belongs (linear probing; the table is at most half full).
  Cell& slot(std::uint64_t key) noexcept;
  const Cell* find(std::uint64_t key) const noexcept;

  double cell_size_ = 1.0;
  std::vector<sim::Vec2> positions_;
  std::vector<std::uint64_t> keys_;    // cell key of each entry
  std::vector<std::uint32_t> order_;   // entry indices grouped by cell
  std::vector<Cell> table_;            // power-of-two size
  std::uint64_t stamp_ = 0;
};

}  // namespace ph::net
