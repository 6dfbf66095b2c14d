#include "behaviot/periodic/dbscan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <numeric>

#include "behaviot/core/simd.hpp"

namespace behaviot {
namespace {

/// Clamp for cell coordinates: keeps the double->int64 cast defined for
/// pathological coordinate/eps ratios. Clamping is monotone and
/// 1-Lipschitz, so within-eps pairs still land within one cell step and
/// extra candidates are removed by the exact distance test.
constexpr std::int64_t kMaxCellCoord = std::int64_t{1} << 60;

std::int64_t quantize(double v) {
  if (!(v >= static_cast<double>(-kMaxCellCoord))) return -kMaxCellCoord;
  if (v >= static_cast<double>(kMaxCellCoord)) return kMaxCellCoord;
  return static_cast<std::int64_t>(std::floor(v));
}

std::vector<double> flatten(std::span<const std::vector<double>> points,
                            std::size_t dim) {
  std::vector<double> flat;
  flat.reserve(points.size() * dim);
  for (const auto& p : points) flat.insert(flat.end(), p.begin(), p.end());
  return flat;
}

std::vector<std::size_t> region_query_naive(
    std::span<const std::vector<double>> points, std::size_t idx,
    double eps_sq) {
  std::vector<std::size_t> neighbors;
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (simd::squared_distance(points[idx], points[j]) <= eps_sq) {
      neighbors.push_back(j);
    }
  }
  return neighbors;
}

/// Reference cluster-expansion pass (the textbook formulation, used by
/// dbscan_naive): `neighbors_of(i, out)` fills `out` with the ascending
/// indices of i's eps-neighborhood. The production path uses the order-free
/// pair-sweep fit below (fit_clusters), which the equivalence property
/// suite pins against this one.
template <typename NeighborsOf>
DbscanResult expand_clusters(std::size_t n, std::size_t min_points,
                             const NeighborsOf& neighbors_of) {
  DbscanResult result;
  result.labels.assign(n, kDbscanNoise);

  std::vector<bool> visited(n, false);
  std::vector<std::size_t> neighbors;
  int cluster = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (visited[i]) continue;
    visited[i] = true;
    neighbors.clear();
    neighbors_of(i, neighbors);
    if (neighbors.size() < min_points) continue;  // noise (for now)

    // Expand a new cluster from this core point.
    result.labels[i] = cluster;
    std::deque<std::size_t> frontier(neighbors.begin(), neighbors.end());
    while (!frontier.empty()) {
      const std::size_t j = frontier.front();
      frontier.pop_front();
      // Adopt border points: a previously-visited non-core neighbor keeps
      // the first cluster that reaches it. (Single assignment — the write
      // after the visited check below used to duplicate this one.)
      if (result.labels[j] == kDbscanNoise) result.labels[j] = cluster;
      if (visited[j]) continue;
      visited[j] = true;
      neighbors.clear();
      neighbors_of(j, neighbors);
      if (neighbors.size() >= min_points) {
        frontier.insert(frontier.end(), neighbors.begin(), neighbors.end());
      }
    }
    ++cluster;
  }
  result.num_clusters = cluster;
  return result;
}

}  // namespace

PointGrid::PointGrid(std::span<const double> data, std::size_t n,
                     std::size_t dim, double eps)
    : size_(n), dim_(dim), eps_(eps) {
  if (n == 0) return;
  const bool degenerate = !(std::isfinite(eps) && eps > 0.0) || dim == 0;

  if (!degenerate) {
    // Projection choice: the (up to three) coordinates with the widest data
    // range spread points across the most cells. Deterministic: ties keep
    // the lower coordinate index.
    std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dim, -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = data.data() + i * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        lo[d] = std::min(lo[d], row[d]);
        hi[d] = std::max(hi[d], row[d]);
      }
    }
    std::vector<std::size_t> order(dim);
    for (std::size_t d = 0; d < dim; ++d) order[d] = d;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return (hi[a] - lo[a]) > (hi[b] - lo[b]);
                     });
    proj_dims_ = std::min<std::size_t>(dim, 3);
    for (std::size_t d = 0; d < proj_dims_; ++d) {
      proj_[d] = order[d];
      origin_[d] = lo[order[d]];
    }
  }
  // degenerate: proj_dims_ stays 0 — every row hashes to the single origin
  // cell and queries scan all rows, which is exactly the naive sweep.

  cells_.reserve(n);
  for (std::size_t d = 0; d < 3; ++d) {
    cell_lo_[d] = std::numeric_limits<std::int64_t>::max();
    cell_hi_[d] = std::numeric_limits<std::int64_t>::min();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const CellKey key = cell_of(data.data() + i * dim);
    cells_[key].push_back(static_cast<std::uint32_t>(i));
    for (std::size_t d = 0; d < 3; ++d) {
      cell_lo_[d] = std::min(cell_lo_[d], key.c[d]);
      cell_hi_[d] = std::max(cell_hi_[d], key.c[d]);
    }
  }
}

PointGrid::CellKey PointGrid::cell_of(const double* row) const {
  CellKey key;
  for (std::size_t d = 0; d < proj_dims_; ++d) {
    key.c[d] = quantize((row[proj_[d]] - origin_[d]) / eps_);
  }
  return key;
}

template <typename Visit>
bool PointGrid::visit_adjacent(std::span<const double> query,
                               const Visit& visit) const {
  if (size_ == 0) return true;
  const CellKey base = cell_of(query.data());
  // 3^proj_dims_ adjacent cells; unused key dimensions stay 0.
  std::int64_t span_lo[3] = {0, 0, 0};
  std::int64_t span_hi[3] = {0, 0, 0};
  for (std::size_t d = 0; d < proj_dims_; ++d) {
    span_lo[d] = base.c[d] - 1;
    span_hi[d] = base.c[d] + 1;
  }
  CellKey key;
  for (std::int64_t c0 = span_lo[0]; c0 <= span_hi[0]; ++c0) {
    key.c[0] = c0;
    for (std::int64_t c1 = span_lo[1]; c1 <= span_hi[1]; ++c1) {
      key.c[1] = c1;
      for (std::int64_t c2 = span_lo[2]; c2 <= span_hi[2]; ++c2) {
        key.c[2] = c2;
        const auto it = cells_.find(key);
        if (it == cells_.end()) continue;
        for (const std::uint32_t idx : it->second) {
          if (!visit(idx)) return false;
        }
      }
    }
  }
  return true;
}

void PointGrid::query(std::span<const double> data,
                      std::span<const double> query,
                      std::vector<std::size_t>& out) const {
  const double eps_sq = eps_ * eps_;
  const std::size_t first = out.size();
  visit_adjacent(query, [&](std::uint32_t idx) {
    const double* row = data.data() + idx * dim_;
    if (simd::squared_distance(row, query.data(), dim_) <= eps_sq) {
      out.push_back(idx);
    }
    return true;
  });
  // Buckets are visited in hash order; restore the ascending index order of
  // a linear scan (each row lives in exactly one cell, so no duplicates).
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

bool PointGrid::any_within(std::span<const double> data,
                           std::span<const double> query) const {
  const double eps_sq = eps_ * eps_;
  bool hit = false;
  visit_adjacent(query, [&](std::uint32_t idx) {
    const double* row = data.data() + idx * dim_;
    if (simd::squared_distance(row, query.data(), dim_) <= eps_sq) {
      hit = true;
      return false;  // stop
    }
    return true;
  });
  return hit;
}

std::optional<PointGrid::NearestHit> PointGrid::nearest(
    std::span<const double> data, std::span<const double> query) const {
  if (size_ == 0) return std::nullopt;

  NearestHit best;
  std::size_t best_index = size_;  // sentinel: nothing found yet
  const auto consider = [&](std::uint32_t idx) {
    const double* row = data.data() + idx * dim_;
    const double d = simd::squared_distance(row, query.data(), dim_);
    // (distance, index) order — identical to the first-strictly-smaller
    // tie-break of a linear scan.
    if (d < best.sq_distance ||
        (d == best.sq_distance && idx < best_index)) {
      best.sq_distance = d;
      best.index = best_index = idx;
    }
  };
  const auto full_scan = [&] {
    for (const auto& [key, bucket] : cells_) {
      (void)key;
      for (const std::uint32_t idx : bucket) consider(idx);
    }
    return std::optional<NearestHit>(best);
  };
  if (proj_dims_ == 0) return full_scan();

  const CellKey base = cell_of(query.data());
  std::int64_t max_r = 0;
  for (std::size_t d = 0; d < proj_dims_; ++d) {
    max_r = std::max({max_r, std::abs(base.c[d] - cell_lo_[d]),
                      std::abs(cell_hi_[d] - base.c[d])});
  }
  // Expanding Chebyshev rings around the query's cell. A row in ring r > 0
  // is more than (r-1)*eps away in some projected coordinate, hence in full
  // distance — once the best hit beats that bound, farther rings cannot
  // improve (or tie: the bound is strict). Queries far outside the occupied
  // cell range fall back to the linear scan instead of walking empty rings.
  constexpr std::int64_t kRingCap = 8;
  if (max_r > kRingCap) return full_scan();

  CellKey key;
  for (std::int64_t r = 0; r <= max_r; ++r) {
    if (best_index != size_) {
      const double bound = static_cast<double>(r - 1) * eps_;
      if (bound > 0.0 && best.sq_distance <= bound * bound) {
        return best;
      }
    }
    const std::int64_t l0 = proj_dims_ > 0 ? r : 0;
    const std::int64_t l1 = proj_dims_ > 1 ? r : 0;
    const std::int64_t l2 = proj_dims_ > 2 ? r : 0;
    for (std::int64_t o0 = -l0; o0 <= l0; ++o0) {
      for (std::int64_t o1 = -l1; o1 <= l1; ++o1) {
        for (std::int64_t o2 = -l2; o2 <= l2; ++o2) {
          // Ring surface only: cells interior to the ring were already
          // scanned at a smaller r.
          if (std::max({std::abs(o0), std::abs(o1), std::abs(o2)}) != r) {
            continue;
          }
          key.c[0] = base.c[0] + o0;
          key.c[1] = base.c[1] + o1;
          key.c[2] = base.c[2] + o2;
          const auto it = cells_.find(key);
          if (it == cells_.end()) continue;
          for (const std::uint32_t idx : it->second) consider(idx);
        }
      }
    }
  }
  if (best_index == size_) return full_scan();  // never reached: box covered
  return best;
}

namespace {

/// Coordinate-major copy of the flattened rows: the pair sweep streams one
/// coordinate contiguously across many points at a time.
std::vector<double> dim_major(std::span<const double> flat, std::size_t n,
                              std::size_t dim) {
  std::vector<double> col(dim * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < dim; ++c) col[c * n + i] = flat[i * dim + c];
  }
  return col;
}

/// Writes ||x_i - x_j||^2 into acc[j - i - 1] for every j in (i, n).
///
/// Each pair's accumulator adds its squared coordinate deltas in coordinate
/// order through one chain — the exact FP sequence of
/// simd::squared_distance (whose first `s += d0*d0` onto a 0.0 accumulator
/// is exact, d0*d0 being non-negative) — so every eps-threshold decision
/// matches the per-pair scalar test bit-for-bit. The j direction has no
/// cross-pair dependency and auto-vectorizes over the contiguous columns.
void pair_row_sweep(const double* col, std::size_t n, std::size_t dim,
                    std::size_t i, double* acc) {
  const std::size_t m = n - (i + 1);
  if (dim == 0) {
    for (std::size_t j = 0; j < m; ++j) acc[j] = 0.0;
    return;
  }
  {
    const double xi = col[i];
    const double* y = col + i + 1;
    for (std::size_t j = 0; j < m; ++j) {
      const double d = xi - y[j];
      acc[j] = d * d;
    }
  }
  for (std::size_t c = 1; c < dim; ++c) {
    const double xi = col[c * n + i];
    const double* y = col + c * n + i + 1;
    for (std::size_t j = 0; j < m; ++j) {
      const double d = xi - y[j];
      acc[j] += d * d;
    }
  }
}

/// Union-find with path halving and union by rank.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n), rank_(n, 0) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    if (rank_[a] == rank_[b]) ++rank_[a];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> rank_;
};

struct ClusterFit {
  DbscanResult result;
  /// Rows within eps per point, including the self test — the DBSCAN
  /// density. DbscanMembership reads it to retain core points without a
  /// second neighborhood pass.
  std::vector<std::uint32_t> degree;
};

/// Order-free DBSCAN fit over the full pairwise neighbor relation.
///
/// The traversal formulation (expand_clusters above) computes a pure
/// function of the neighbor relation, despite looking order-dependent:
///  - a point is core iff its neighbor count (self included) reaches
///    min_points;
///  - clusters are the connected components of the core-core neighbor
///    graph (border points never expand, so connectivity flows through
///    cores only);
///  - cluster ids number the components by their smallest core index (the
///    outer scan seeds each component at exactly that point — border
///    points fail the density test and cannot seed);
///  - a border (non-core) point within eps of several clusters' cores
///    adopts the earliest-formed one, i.e. the minimum adjacent cluster id;
///    everything else is noise.
/// Computing that function directly replaces the graph walk's per-visit
/// neighborhood queries — which degenerate to O(n) scans each on the
/// pipeline's dense z-scored feature blobs, where no spatial index can
/// discriminate — with one symmetric pair sweep whose inner loops the
/// vectorizer handles, plus union-find bookkeeping on the resulting bit
/// matrix. For point counts whose adjacency bits would exceed the memory
/// cap, the sweep reruns instead of storing bits (same kernel, same
/// outcomes) and border points resolve through a throwaway PointGrid.
ClusterFit fit_clusters(std::span<const double> flat, std::size_t n,
                        std::size_t dim, const DbscanOptions& options) {
  ClusterFit fit;
  fit.result.labels.assign(n, kDbscanNoise);
  fit.degree.assign(n, 0);
  if (n == 0) return fit;
  const double eps_sq = options.eps * options.eps;

  // Self test: d(i,i) <= eps^2 is false only for non-finite rows or eps —
  // the naive query counts (or drops) the point itself the same way.
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = flat.data() + i * dim;
    if (simd::squared_distance(row, row, dim) <= eps_sq) ++fit.degree[i];
  }

  const std::vector<double> col = dim_major(flat, n, dim);
  const std::size_t words = (n + 63) / 64;
  constexpr std::size_t kMaxAdjacencyBytes = std::size_t{64} << 20;
  const bool stored = n * words * sizeof(std::uint64_t) <= kMaxAdjacencyBytes;
  std::vector<std::uint64_t> adj(stored ? n * words : 0, 0);
  std::vector<double> acc(n);

  for (std::size_t i = 0; i + 1 < n; ++i) {
    pair_row_sweep(col.data(), n, dim, i, acc.data());
    const std::size_t m = n - (i + 1);
    for (std::size_t j = 0; j < m; ++j) {
      if (acc[j] <= eps_sq) {
        const std::size_t jj = i + 1 + j;
        ++fit.degree[i];
        ++fit.degree[jj];
        if (stored) {
          adj[i * words + jj / 64] |= std::uint64_t{1} << (jj % 64);
          adj[jj * words + i / 64] |= std::uint64_t{1} << (i % 64);
        }
      }
    }
  }

  const auto is_core = [&](std::size_t i) {
    return fit.degree[i] >= options.min_points;
  };

  // Components of the core-core graph.
  DisjointSets sets(n);
  if (stored) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_core(i)) continue;
      const std::uint64_t* row = adj.data() + i * words;
      for (std::size_t w = (i + 1) / 64; w < words; ++w) {
        std::uint64_t bits = row[w];
        if (w == (i + 1) / 64 && (i + 1) % 64 != 0) {
          bits &= ~std::uint64_t{0} << ((i + 1) % 64);
        }
        while (bits != 0) {
          const std::size_t j =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          if (is_core(j)) {
            sets.unite(static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j));
          }
        }
      }
    }
  } else {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (!is_core(i)) continue;
      pair_row_sweep(col.data(), n, dim, i, acc.data());
      const std::size_t m = n - (i + 1);
      for (std::size_t j = 0; j < m; ++j) {
        if (acc[j] <= eps_sq && is_core(i + 1 + j)) {
          sets.unite(static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(i + 1 + j));
        }
      }
    }
  }

  // Cluster ids: components in order of their smallest core index.
  std::vector<int> component_id(n, kDbscanNoise);
  int next_id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_core(i)) continue;
    const std::uint32_t root = sets.find(static_cast<std::uint32_t>(i));
    if (component_id[root] == kDbscanNoise) component_id[root] = next_id++;
    fit.result.labels[i] = component_id[root];
  }
  fit.result.num_clusters = next_id;
  if (next_id == 0) return fit;  // no clusters: borders impossible

  // Border points: minimum cluster id among adjacent cores.
  if (stored) {
    for (std::size_t i = 0; i < n; ++i) {
      if (is_core(i)) continue;
      int best = kDbscanNoise;
      const std::uint64_t* row = adj.data() + i * words;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = row[w];
        while (bits != 0) {
          const std::size_t j =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          if (is_core(j)) {
            const int id = fit.result.labels[j];
            if (best == kDbscanNoise || id < best) best = id;
          }
        }
      }
      fit.result.labels[i] = best;
    }
  } else {
    const PointGrid grid(flat, n, dim, options.eps);
    std::vector<std::size_t> neighbors;
    for (std::size_t i = 0; i < n; ++i) {
      if (is_core(i)) continue;
      neighbors.clear();
      grid.query(flat, {flat.data() + i * dim, dim}, neighbors);
      int best = kDbscanNoise;
      for (const std::size_t j : neighbors) {
        if (is_core(j)) {
          const int id = fit.result.labels[j];
          if (best == kDbscanNoise || id < best) best = id;
        }
      }
      fit.result.labels[i] = best;
    }
  }
  return fit;
}

}  // namespace

DbscanResult dbscan(std::span<const std::vector<double>> points,
                    const DbscanOptions& options) {
  if (points.empty()) return {};
  const std::size_t n = points.size();
  const std::size_t dim = points.front().size();
  const std::vector<double> flat = flatten(points, dim);
  return fit_clusters(flat, n, dim, options).result;
}

DbscanResult dbscan_naive(std::span<const std::vector<double>> points,
                          const DbscanOptions& options) {
  const double eps_sq = options.eps * options.eps;
  return expand_clusters(
      points.size(), options.min_points,
      [&](std::size_t i, std::vector<std::size_t>& out) {
        out = region_query_naive(points, i, eps_sq);
      });
}

DbscanMembership::DbscanMembership(
    std::span<const std::vector<double>> points, const DbscanOptions& options)
    : eps_(options.eps), eps_sq_(options.eps * options.eps) {
  if (points.empty()) return;
  const std::size_t n = points.size();
  dim_ = points.front().size();
  const std::vector<double> flat = flatten(points, dim_);

  const ClusterFit fit = fit_clusters(flat, n, dim_, options);
  num_clusters_ = fit.result.num_clusters;

  // Core points only: density >= min_points within eps. The fit already
  // counted every point's neighborhood (degree includes the self test,
  // matching a grid/naive query's self hit), so retention is a flag check —
  // this second pass was a full O(n^2) sweep before. Every core point is
  // labeled (it seeds or joins its own component), so degree alone decides.
  for (std::size_t i = 0; i < n; ++i) {
    if (fit.degree[i] < options.min_points) continue;
    const std::span<const double> row{flat.data() + i * dim_, dim_};
    core_data_.insert(core_data_.end(), row.begin(), row.end());
    core_clusters_.push_back(fit.result.labels[i]);
  }
  // Classify-time index over the retained cores: contains()/nearest() run
  // per flow, so they use the same grid acceleration as the fit.
  grid_ = PointGrid(core_data_, core_clusters_.size(), dim_, options.eps);
}

bool DbscanMembership::contains(std::span<const double> query) const {
  if (core_clusters_.empty()) return false;
  return grid_.any_within(core_data_, query);
}

DbscanMembership::Nearest DbscanMembership::nearest(
    std::span<const double> query) const {
  Nearest out;
  if (core_clusters_.empty()) return out;
  const auto hit = grid_.nearest(core_data_, query);
  if (!hit) return out;
  out.cluster = core_clusters_[hit->index];
  out.distance = std::sqrt(hit->sq_distance);
  out.inside = hit->sq_distance <= eps_sq_;
  return out;
}

}  // namespace behaviot
