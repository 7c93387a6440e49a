#include "net/spatial.hpp"

#include <algorithm>
#include <cmath>

namespace ph::net {

std::int32_t SpatialGrid::cell_coord(double v) const noexcept {
  return static_cast<std::int32_t>(std::floor(v / cell_size_));
}

namespace {
std::size_t mix(std::uint64_t key) noexcept {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 17);
}
}  // namespace

SpatialGrid::Cell& SpatialGrid::slot(std::uint64_t key) noexcept {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
    Cell& cell = table_[i];
    if (cell.stamp != stamp_ || cell.key == key) return cell;
  }
}

const SpatialGrid::Cell* SpatialGrid::find(std::uint64_t key) const noexcept {
  if (table_.empty()) return nullptr;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
    const Cell& cell = table_[i];
    if (cell.stamp != stamp_) return nullptr;
    if (cell.key == key) return &cell;
  }
}

void SpatialGrid::rebuild(double cell_size_m,
                          const std::vector<sim::Vec2>& positions) {
  cell_size_ = cell_size_m > 0.0 ? cell_size_m : 1.0;
  positions_.assign(positions.begin(), positions.end());
  const std::size_t n = positions_.size();
  std::size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  if (table_.size() < capacity) table_.assign(capacity, Cell{});
  ++stamp_;  // empties every slot at once
  // Count each cell's entries, then turn the counts into ranges and place
  // the indices in ascending order, so every cell lists its entries sorted.
  keys_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const sim::Vec2& p = positions_[i];
    keys_[i] = cell_key(cell_coord(p.x), cell_coord(p.y));
    Cell& cell = slot(keys_[i]);
    if (cell.stamp != stamp_) cell = Cell{keys_[i], 0, 0, stamp_};
    ++cell.end;
  }
  std::uint32_t offset = 0;
  for (Cell& cell : table_) {
    if (cell.stamp != stamp_) continue;
    const std::uint32_t count = cell.end;
    cell.begin = offset;
    cell.end = offset;  // advanced below as indices are placed
    offset += count;
  }
  order_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) order_[slot(keys_[i]).end++] = i;
}

SpatialGrid::QueryStats SpatialGrid::query(
    sim::Vec2 center, double radius_m, std::vector<std::uint32_t>& out) const {
  QueryStats stats;
  if (radius_m <= 0.0 || positions_.empty()) return stats;
  const std::size_t first = out.size();
  const std::int32_t cx0 = cell_coord(center.x - radius_m);
  const std::int32_t cx1 = cell_coord(center.x + radius_m);
  const std::int32_t cy0 = cell_coord(center.y - radius_m);
  const std::int32_t cy1 = cell_coord(center.y + radius_m);
  for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
      ++stats.cells_visited;
      const Cell* cell = find(cell_key(cx, cy));
      if (cell == nullptr) continue;
      for (std::uint32_t k = cell->begin; k < cell->end; ++k) {
        const std::uint32_t index = order_[k];
        // Exact-distance filter, with the same correctly-rounded hypot the
        // signal falloff uses (`distance >= range` ⇒ signal 0), so pruning
        // here can never disagree with the brute-force predicate.
        if (sim::distance(positions_[index], center) < radius_m) {
          out.push_back(index);
        }
      }
    }
  }
  // Cell iteration order depends on the coordinate walk, not on table
  // layout, but candidates from different cells interleave — sort so the
  // caller evaluates (and consumes RNG) in one canonical order.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  stats.candidates = out.size() - first;
  return stats;
}

}  // namespace ph::net
