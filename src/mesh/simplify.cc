#include "mesh/simplify.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

namespace vtp::mesh {

namespace {

std::uint64_t CellKey(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (static_cast<std::uint64_t>(x) << 42) | (static_cast<std::uint64_t>(y) << 21) | z;
}

/// Maps positions to packed cell keys of a `cells_per_axis`^3 grid over
/// `box`. SimplifyGrid and the triangle count share it, so both assign every
/// vertex the same cell.
class CellGrid {
 public:
  CellGrid(const Aabb& box, std::size_t cells_per_axis)
      : box_(box),
        size_(box.Size()),
        n_(static_cast<float>(std::max<std::size_t>(cells_per_axis, 1))) {}

  std::uint64_t operator()(Vec3 p) const {
    return CellKey(Axis(p.x, box_.min.x, size_.x), Axis(p.y, box_.min.y, size_.y),
                   Axis(p.z, box_.min.z, size_.z));
  }

 private:
  std::uint32_t Axis(float v, float lo, float extent) const {
    if (extent <= 0) return 0;
    const float t = (v - lo) / extent * n_;
    return static_cast<std::uint32_t>(std::clamp(t, 0.0f, n_ - 1.0f));
  }

  Aabb box_;
  Vec3 size_;
  float n_;
};

/// Triangles SimplifyGrid keeps at `cells_per_axis`: those whose three
/// vertices land in pairwise distinct cells. `keys` is scratch space reused
/// across calls.
std::size_t CountSurvivors(const TriangleMesh& input, const Aabb& box,
                           std::size_t cells_per_axis, std::vector<std::uint64_t>& keys) {
  const CellGrid cell_of(box, cells_per_axis);
  keys.resize(input.vertex_count());
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = cell_of(input.positions[i]);
  std::size_t survivors = 0;
  for (const auto& t : input.triangles) {
    const std::uint64_t a = keys[t[0]], b = keys[t[1]], c = keys[t[2]];
    survivors += (a != b && b != c && a != c) ? 1 : 0;
  }
  return survivors;
}

}  // namespace

TriangleMesh SimplifyGrid(const TriangleMesh& input, std::size_t cells_per_axis) {
  const CellGrid cell_of(input.Bounds(), cells_per_axis);

  // First pass: centroid per occupied cell.
  struct Accum {
    Vec3 sum;
    std::uint32_t count = 0;
    std::uint32_t index = 0;
  };
  std::unordered_map<std::uint64_t, Accum> cells;
  cells.reserve(input.vertex_count());
  for (const Vec3& p : input.positions) {
    Accum& a = cells[cell_of(p)];
    a.sum = a.sum + p;
    ++a.count;
  }

  TriangleMesh out;
  out.positions.reserve(cells.size());
  for (auto& [key, a] : cells) {
    a.index = static_cast<std::uint32_t>(out.positions.size());
    out.positions.push_back(a.sum * (1.0f / static_cast<float>(a.count)));
  }

  // Second pass: remap triangles, dropping collapsed ones.
  out.triangles.reserve(input.triangle_count());
  for (const auto& t : input.triangles) {
    const std::uint32_t a = cells[cell_of(input.positions[t[0]])].index;
    const std::uint32_t b = cells[cell_of(input.positions[t[1]])].index;
    const std::uint32_t c = cells[cell_of(input.positions[t[2]])].index;
    if (a == b || b == c || a == c) continue;
    out.triangles.push_back({a, b, c});
  }
  return out;
}

std::size_t SimplifyGridTriangleCount(const TriangleMesh& input, std::size_t cells_per_axis) {
  std::vector<std::uint64_t> keys;
  return CountSurvivors(input, input.Bounds(), cells_per_axis, keys);
}

TriangleMesh SimplifyToFraction(const TriangleMesh& input, double fraction) {
  fraction = std::clamp(fraction, 1e-6, 1.0);
  const auto target = static_cast<std::size_t>(
      static_cast<double>(input.triangle_count()) * fraction);
  if (fraction >= 0.999) return input;

  // Triangle yield grows with grid resolution; bisect on cells_per_axis.
  // Probes only count survivors; the mesh is built once, at the chosen grid.
  const Aabb box = input.Bounds();
  std::vector<std::uint64_t> keys;
  std::size_t lo = 2, hi = 4096;
  std::size_t best_cells = lo;
  std::size_t best_count = CountSurvivors(input, box, lo, keys);
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    const std::size_t count = CountSurvivors(input, box, mid, keys);
    if (count < target) {
      lo = mid;
      best_cells = mid;
      best_count = count;
    } else {
      hi = mid;
      // Keep the closer of the two bounds.
      const auto err_hi = count - target;
      const auto err_lo = target > best_count ? target - best_count : 0;
      if (err_hi < err_lo) {
        best_cells = mid;
        best_count = count;
      }
    }
  }
  return SimplifyGrid(input, best_cells);
}

TriangleMesh BoundingBoxProxy(const TriangleMesh& input) {
  const Aabb box = input.Bounds();
  TriangleMesh out;
  const Vec3 mn = box.min, mx = box.max;
  out.positions = {
      {mn.x, mn.y, mn.z}, {mx.x, mn.y, mn.z}, {mx.x, mx.y, mn.z}, {mn.x, mx.y, mn.z},
      {mn.x, mn.y, mx.z}, {mx.x, mn.y, mx.z}, {mx.x, mx.y, mx.z}, {mn.x, mx.y, mx.z}};
  out.triangles = {
      {0, 2, 1}, {0, 3, 2},  // -z
      {4, 5, 6}, {4, 6, 7},  // +z
      {0, 1, 5}, {0, 5, 4},  // -y
      {3, 7, 6}, {3, 6, 2},  // +y
      {0, 4, 7}, {0, 7, 3},  // -x
      {1, 2, 6}, {1, 6, 5},  // +x
  };
  return out;
}

}  // namespace vtp::mesh
