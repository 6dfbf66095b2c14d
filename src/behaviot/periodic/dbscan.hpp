// DBSCAN (Ester et al. [30]), implemented from scratch.
//
// Used as the second stage of periodic-event classification (§4.1): flows
// that miss their timer are still labeled periodic when they fall inside a
// density cluster learned from idle traffic. DBSCAN is chosen because the
// number of clusters is unknown a priori.
//
// The fit computes DBSCAN's output as an order-free function of the pairwise
// neighbor relation — coreness from neighbor counts, clusters as connected
// components of the core-core graph (ids by smallest core index), borders
// adopting the minimum adjacent cluster id — evaluated by one vectorized
// symmetric pair sweep plus union-find, instead of walking the density graph
// with per-visit neighborhood queries. The result is identical to the naive
// traversal (dbscan_naive below, kept as the reference implementation for
// the equivalence property suite). Classification-time queries
// (DbscanMembership::contains/nearest) run through a uniform-grid cell index
// (PointGrid) projected onto at most three coordinates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include <limits>

namespace behaviot {

inline constexpr int kDbscanNoise = -1;

struct DbscanOptions {
  double eps = 0.5;          ///< neighborhood radius (euclidean)
  std::size_t min_points = 3;  ///< core-point density threshold
};

struct DbscanResult {
  /// Cluster id per input point; kDbscanNoise for outliers.
  std::vector<int> labels;
  int num_clusters = 0;
};

/// Uniform-grid cell index over row-major point data, cell width = eps.
///
/// Rows are bucketed by their cell on up to three *projected* coordinates
/// (the spread-maximizing ones — every coordinate of the z-scored feature
/// space has unit variance, so the widest data ranges discriminate best).
/// Any pair within eps in full-dimension euclidean distance is within eps
/// per coordinate, hence within one cell step per projected coordinate:
/// scanning the 3^d adjacent cells yields a candidate superset, and the
/// exact distance test prunes it down to the true neighborhood.
///
/// The index stores only cell metadata and row indices — never a pointer to
/// the data — so it stays valid across copies and moves of the owner; every
/// query takes the (unchanged) flattened data it was built over.
class PointGrid {
 public:
  PointGrid() = default;

  /// Builds over `n` rows of `dim` doubles each (row-major, flattened).
  /// A non-finite or non-positive `eps` degenerates to a single cell
  /// holding every row (equivalent to a full scan, still correct).
  PointGrid(std::span<const double> data, std::size_t n, std::size_t dim,
            double eps);

  /// Appends the indices of all rows within `eps` of `query` to `out`
  /// (ascending, matching the order a full index scan would produce).
  void query(std::span<const double> data, std::span<const double> query,
             std::vector<std::size_t>& out) const;

  /// True when any row lies within eps of `query` (early-exits on the
  /// first hit; hit order does not affect the answer).
  [[nodiscard]] bool any_within(std::span<const double> data,
                                std::span<const double> query) const;

  /// Nearest row to `query` by (distance, index) — the same tie-break a
  /// first-strictly-smaller linear scan produces. Expanding-ring search:
  /// ring r is scanned only while a closer row than the ring's distance
  /// lower bound (r-1)*eps is still possible. nullopt when empty.
  struct NearestHit {
    std::size_t index = 0;
    double sq_distance = std::numeric_limits<double>::infinity();
  };
  [[nodiscard]] std::optional<NearestHit> nearest(
      std::span<const double> data, std::span<const double> query) const;

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct CellKey {
    std::int64_t c[3] = {0, 0, 0};
    bool operator==(const CellKey& o) const {
      return c[0] == o.c[0] && c[1] == o.c[1] && c[2] == o.c[2];
    }
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (std::int64_t v : k.c) {
        std::uint64_t x = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<std::size_t>(h);
    }
  };

 public:
  /// Visits every row in the 3^d cells adjacent to `query`'s cell — a
  /// superset of its eps-neighborhood, in cell-hash order. `visit(row_index)`
  /// returns false to stop the walk. Callers that can reject a candidate
  /// more cheaply than the distance test (e.g. "already claimed by a
  /// cluster") use this directly instead of query().
  template <typename Visit>
  bool visit_adjacent(std::span<const double> query, const Visit& visit) const;

 private:
  [[nodiscard]] CellKey cell_of(const double* row) const;

  std::size_t size_ = 0;
  std::size_t dim_ = 0;
  double eps_ = 0.0;
  std::size_t proj_dims_ = 0;          ///< projected coordinate count (<= 3)
  std::size_t proj_[3] = {0, 0, 0};    ///< projected coordinate indices
  double origin_[3] = {0.0, 0.0, 0.0};  ///< per-projected-dim minimum
  std::int64_t cell_lo_[3] = {0, 0, 0};  ///< occupied-cell bounding box
  std::int64_t cell_hi_[3] = {0, 0, 0};
  std::unordered_map<CellKey, std::vector<std::uint32_t>, CellKeyHash> cells_;
};

/// Clusters `points` (all rows the same dimension) via the order-free
/// pair-sweep fit. Produces labels identical to `dbscan_naive`.
DbscanResult dbscan(std::span<const std::vector<double>> points,
                    const DbscanOptions& options);

/// Reference O(n^2) implementation (the original formulation). Kept for the
/// grid-vs-naive equivalence property suite and as executable documentation
/// of the semantics the grid path must reproduce exactly.
DbscanResult dbscan_naive(std::span<const std::vector<double>> points,
                          const DbscanOptions& options);

/// Trained cluster membership test used at classification time: a query is a
/// member when it lies within eps of any *core* point of any cluster. Stores
/// only core points (flattened, with a grid index over them) to keep
/// queries cheap.
class DbscanMembership {
 public:
  DbscanMembership() = default;

  /// Fits clusters on the training points and retains the core points.
  DbscanMembership(std::span<const std::vector<double>> points,
                   const DbscanOptions& options);

  /// True when `query` is density-reachable from the trained clusters.
  [[nodiscard]] bool contains(std::span<const double> query) const;

  /// Evidence for alert provenance: which trained cluster is closest to a
  /// query, and how far away (euclidean distance to the nearest core point).
  /// `cluster == kDbscanNoise` and an infinite distance when no clusters
  /// were trained. `inside` mirrors contains(): distance <= eps.
  struct Nearest {
    int cluster = kDbscanNoise;
    double distance = std::numeric_limits<double>::infinity();
    bool inside = false;
  };
  [[nodiscard]] Nearest nearest(std::span<const double> query) const;

  [[nodiscard]] std::size_t core_point_count() const {
    return core_clusters_.size();
  }
  [[nodiscard]] int num_clusters() const { return num_clusters_; }
  /// Row view of the i-th retained core point (tests, provenance).
  [[nodiscard]] std::span<const double> core(std::size_t i) const {
    return {core_data_.data() + i * dim_, dim_};
  }
  [[nodiscard]] int core_cluster(std::size_t i) const {
    return core_clusters_[i];
  }

 private:
  std::vector<double> core_data_;  ///< flattened row-major core points
  std::size_t dim_ = 0;
  std::vector<int> core_clusters_;  ///< cluster id per retained core point
  double eps_ = 0.5;
  double eps_sq_ = 0.25;
  int num_clusters_ = 0;
  PointGrid grid_;  ///< index over the retained core points
};

}  // namespace behaviot
