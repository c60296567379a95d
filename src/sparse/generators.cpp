#include "sparse/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace opm::sparse {

namespace {
void require_positive(index_t n) {
  if (n <= 0) throw std::invalid_argument("generator: n must be positive");
}

/// Sizes a generator's output for about `row_nnz` entries per row (the
/// target plus the guaranteed diagonal), so the entry arrays are not
/// regrown and copied row after row.
void reserve_rows(Csr& out, index_t n, double row_nnz) {
  const auto entries = static_cast<std::size_t>(static_cast<double>(n) * std::max(row_nnz, 1.0));
  out.row_ptr.reserve(static_cast<std::size_t>(n) + 1);
  out.col_idx.reserve(entries);
  out.values.reserve(entries);
}

/// A row's column set: a small vector kept sorted and unique. Rows hold
/// tens of columns, so a binary search plus a short shift beats a
/// node-based set, and the column order — which sets the order of the
/// value draws below — is the same.
class RowColumns {
 public:
  void insert(index_t c) {
    const auto it = std::lower_bound(cols_.begin(), cols_.end(), c);
    if (it == cols_.end() || *it != c) cols_.insert(it, c);
  }
  std::size_t size() const { return cols_.size(); }
  void clear() { cols_.clear(); }
  auto begin() const { return cols_.begin(); }
  auto end() const { return cols_.end(); }

 private:
  std::vector<index_t> cols_;
};

/// Emits one row given a sorted unique column set, guaranteeing r itself.
void emit_row(Csr& out, index_t r, RowColumns& cols, util::Xoshiro256& rng) {
  cols.insert(r);
  for (index_t c : cols) {
    out.col_idx.push_back(c);
    // Diagonal dominance keeps triangular solves well-conditioned.
    out.values.push_back(c == r ? static_cast<double>(cols.size()) + 1.0
                                : rng.uniform(-1.0, 1.0));
  }
  out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
  cols.clear();
}
}  // namespace

Csr make_banded(index_t n, index_t half_bandwidth, double avg_row_nnz, std::uint64_t seed) {
  require_positive(n);
  util::Xoshiro256 rng(seed);
  Csr out;
  out.rows = out.cols = n;
  out.row_ptr.push_back(0);
  const index_t band = std::max<index_t>(half_bandwidth, 1);
  const double width = static_cast<double>(2 * band + 1);
  const double keep = std::clamp(avg_row_nnz / width, 0.0, 1.0);
  reserve_rows(out, n, keep * width + 1.0);
  RowColumns cols;
  for (index_t r = 0; r < n; ++r) {
    const index_t lo = std::max<index_t>(0, r - band);
    const index_t hi = std::min<index_t>(n - 1, r + band);
    for (index_t c = lo; c <= hi; ++c)
      if (c == r || rng.uniform() < keep) cols.insert(c);
    emit_row(out, r, cols, rng);
  }
  return out;
}

Csr make_random_uniform(index_t n, double avg_row_nnz, std::uint64_t seed) {
  require_positive(n);
  util::Xoshiro256 rng(seed);
  Csr out;
  out.rows = out.cols = n;
  reserve_rows(out, n, std::min(avg_row_nnz, static_cast<double>(n)) + 1.0);
  out.row_ptr.push_back(0);
  RowColumns cols;
  for (index_t r = 0; r < n; ++r) {
    // Poisson-ish row length around the target average.
    const auto target = static_cast<std::size_t>(
        std::max(1.0, avg_row_nnz + rng.normal() * std::sqrt(std::max(avg_row_nnz, 1.0))));
    while (cols.size() < std::min<std::size_t>(target, static_cast<std::size_t>(n)))
      cols.insert(static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(n))));
    emit_row(out, r, cols, rng);
  }
  return out;
}

Csr make_rmat(index_t n, double avg_row_nnz, std::uint64_t seed) {
  require_positive(n);
  const auto size = static_cast<index_t>(std::bit_ceil(static_cast<std::uint64_t>(n)));
  const int levels = std::countr_zero(static_cast<std::uint64_t>(size));
  util::Xoshiro256 rng(seed);

  Coo coo;
  coo.rows = coo.cols = size;
  const auto edges = static_cast<std::uint64_t>(avg_row_nnz * static_cast<double>(size));
  for (std::uint64_t e = 0; e < edges; ++e) {
    index_t r = 0, c = 0;
    for (int level = 0; level < levels; ++level) {
      const double p = rng.uniform();
      // Corner probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
      const int corner = p < 0.57 ? 0 : p < 0.76 ? 1 : p < 0.95 ? 2 : 3;
      r = static_cast<index_t>((r << 1) | (corner >> 1));
      c = static_cast<index_t>((c << 1) | (corner & 1));
    }
    coo.push(r, c, rng.uniform(-1.0, 1.0));
  }
  for (index_t i = 0; i < size; ++i) coo.push(i, i, 4.0);  // full diagonal
  return coo_to_csr(coo);
}

Csr make_block_diagonal(index_t n, index_t block, double fill, std::uint64_t seed) {
  require_positive(n);
  if (block <= 0) throw std::invalid_argument("block must be positive");
  util::Xoshiro256 rng(seed);
  Csr out;
  out.rows = out.cols = n;
  out.row_ptr.push_back(0);
  RowColumns cols;
  for (index_t r = 0; r < n; ++r) {
    const index_t b0 = (r / block) * block;
    const index_t b1 = std::min<index_t>(b0 + block, n);
    for (index_t c = b0; c < b1; ++c)
      if (c == r || rng.uniform() < fill) cols.insert(c);
    emit_row(out, r, cols, rng);
  }
  return out;
}

Csr make_poisson2d(index_t grid) {
  require_positive(grid);
  const index_t n = grid * grid;
  Csr out;
  out.rows = out.cols = n;
  out.row_ptr.push_back(0);
  for (index_t y = 0; y < grid; ++y) {
    for (index_t x = 0; x < grid; ++x) {
      const index_t r = y * grid + x;
      // Column-sorted 5-point stencil: (y-1), (x-1), self, (x+1), (y+1).
      if (y > 0) { out.col_idx.push_back(r - grid); out.values.push_back(-1.0); }
      if (x > 0) { out.col_idx.push_back(r - 1); out.values.push_back(-1.0); }
      out.col_idx.push_back(r); out.values.push_back(4.0);
      if (x + 1 < grid) { out.col_idx.push_back(r + 1); out.values.push_back(-1.0); }
      if (y + 1 < grid) { out.col_idx.push_back(r + grid); out.values.push_back(-1.0); }
      out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
    }
  }
  return out;
}

Csr make_poisson3d(index_t grid) {
  require_positive(grid);
  const index_t plane = grid * grid;
  const index_t n = plane * grid;
  Csr out;
  out.rows = out.cols = n;
  out.row_ptr.push_back(0);
  for (index_t z = 0; z < grid; ++z) {
    for (index_t y = 0; y < grid; ++y) {
      for (index_t x = 0; x < grid; ++x) {
        const index_t r = z * plane + y * grid + x;
        if (z > 0) { out.col_idx.push_back(r - plane); out.values.push_back(-1.0); }
        if (y > 0) { out.col_idx.push_back(r - grid); out.values.push_back(-1.0); }
        if (x > 0) { out.col_idx.push_back(r - 1); out.values.push_back(-1.0); }
        out.col_idx.push_back(r); out.values.push_back(6.0);
        if (x + 1 < grid) { out.col_idx.push_back(r + 1); out.values.push_back(-1.0); }
        if (y + 1 < grid) { out.col_idx.push_back(r + grid); out.values.push_back(-1.0); }
        if (z + 1 < grid) { out.col_idx.push_back(r + plane); out.values.push_back(-1.0); }
        out.row_ptr.push_back(static_cast<offset_t>(out.col_idx.size()));
      }
    }
  }
  return out;
}

Csr make_arrow(index_t n, index_t width, std::uint64_t seed) {
  require_positive(n);
  const index_t w = std::min(std::max<index_t>(width, 1), n);
  util::Xoshiro256 rng(seed);
  Csr out;
  out.rows = out.cols = n;
  out.row_ptr.push_back(0);
  RowColumns cols;
  for (index_t r = 0; r < n; ++r) {
    if (r < w) {
      for (index_t c = 0; c < n; c += std::max<index_t>(1, n / 4096))
        cols.insert(c);  // heavy head rows (subsampled so nnz stays bounded)
    } else {
      for (index_t c = 0; c < w; ++c) cols.insert(c);
    }
    emit_row(out, r, cols, rng);
  }
  return out;
}

Csr make_tridiag_perturbed(index_t n, double extra_per_row, std::uint64_t seed) {
  require_positive(n);
  util::Xoshiro256 rng(seed);
  Csr out;
  out.rows = out.cols = n;
  out.row_ptr.push_back(0);
  RowColumns cols;
  for (index_t r = 0; r < n; ++r) {
    if (r > 0) cols.insert(r - 1);
    if (r + 1 < n) cols.insert(r + 1);
    const auto extras = static_cast<std::size_t>(std::max(0.0, extra_per_row + rng.normal()));
    for (std::size_t e = 0; e < extras; ++e)
      cols.insert(static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(n))));
    emit_row(out, r, cols, rng);
  }
  return out;
}

}  // namespace opm::sparse
