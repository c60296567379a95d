#include "sparse/collection.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sparse/generators.hpp"
#include "sparse/stats.hpp"

namespace opm::sparse {

const char* to_string(Family family) {
  switch (family) {
    case Family::kBanded: return "banded";
    case Family::kTridiagPerturbed: return "tridiag+";
    case Family::kPoisson2D: return "poisson2d";
    case Family::kPoisson3D: return "poisson3d";
    case Family::kBlockDiagonal: return "blockdiag";
    case Family::kArrow: return "arrow";
    case Family::kRmat: return "rmat";
    case Family::kRandomUniform: return "random";
  }
  return "?";
}

namespace {

/// Locality score assumed for each family (see MatrixDescriptor::locality).
double family_locality(Family family) {
  switch (family) {
    case Family::kBanded: return 0.95;
    case Family::kTridiagPerturbed: return 0.90;
    case Family::kPoisson2D: return 0.85;
    case Family::kPoisson3D: return 0.80;
    case Family::kBlockDiagonal: return 0.88;
    case Family::kArrow: return 0.60;
    case Family::kRmat: return 0.35;
    case Family::kRandomUniform: return 0.05;
  }
  return 0.0;
}

}  // namespace

MatrixDescriptor SyntheticCollection::describe(int id, Family family, std::int64_t rows,
                                               std::int64_t nnz, std::uint64_t seed) {
  MatrixDescriptor d;
  d.id = id;
  d.family = family;
  d.rows = rows;
  d.nnz = nnz;
  d.seed = seed;
  d.locality = family_locality(family);
  d.footprint_bytes = spmv_footprint(nnz, rows);
  d.name = std::string(to_string(family)) + "_" + std::to_string(id);
  return d;
}

SyntheticCollection SyntheticCollection::paper_suite() {
  SyntheticCollection out;
  constexpr int kCount = 968;  // exactly the paper's suite size
  constexpr std::array families = {
      Family::kBanded,       Family::kTridiagPerturbed, Family::kPoisson2D,
      Family::kPoisson3D,    Family::kBlockDiagonal,    Family::kArrow,
      Family::kRmat,         Family::kRandomUniform,
  };
  // Degree multipliers cycle so each family covers several (rows, nnz)
  // diagonals of the heat-map plane.
  constexpr std::array<double, 5> degrees = {4.0, 8.0, 16.0, 40.0, 100.0};

  for (int id = 0; id < kCount; ++id) {
    const Family family = families[static_cast<std::size_t>(id) % families.size()];
    const int step = id / static_cast<int>(families.size());  // 0..120
    // Rows log-spaced from 1e3 to ~4e6.
    const double t = static_cast<double>(step) / 120.0;
    std::int64_t rows = static_cast<std::int64_t>(std::round(1.0e3 * std::pow(4.0e3, t)));

    // Families with a fixed structural degree cannot reach the paper's
    // nnz > 200k filter on tiny meshes: raise their minimum size (the UF
    // members passing the filter are correspondingly large).
    if (family == Family::kPoisson2D) rows = std::max<std::int64_t>(rows, 201 * 201);
    if (family == Family::kPoisson3D) rows = std::max<std::int64_t>(rows, 31 * 31 * 31);
    if (family == Family::kTridiagPerturbed) rows = std::max<std::int64_t>(rows, 25'001);

    // Family-specific shape constraints.
    if (family == Family::kRmat)
      rows = static_cast<std::int64_t>(std::bit_ceil(static_cast<std::uint64_t>(rows)));
    if (family == Family::kPoisson2D) {
      const auto grid = static_cast<std::int64_t>(std::round(std::sqrt(static_cast<double>(rows))));
      rows = grid * grid;
    } else if (family == Family::kPoisson3D) {
      const auto grid = static_cast<std::int64_t>(std::round(std::cbrt(static_cast<double>(rows))));
      rows = std::max<std::int64_t>(grid, 2) * std::max<std::int64_t>(grid, 2) *
             std::max<std::int64_t>(grid, 2);
    }

    const double degree = degrees[static_cast<std::size_t>(step) % degrees.size()];
    std::int64_t nnz = static_cast<std::int64_t>(degree * static_cast<double>(rows));
    // Paper filter: nnz > 200,000; and keep the largest members bounded.
    nnz = std::clamp<std::int64_t>(std::max<std::int64_t>(nnz, 200'001),
                                   200'001, 100'000'000);
    nnz = std::min(nnz, rows * rows / 2);
    // Stencil families have a fixed structural degree.
    if (family == Family::kPoisson2D) nnz = rows * 5;
    if (family == Family::kPoisson3D) nnz = rows * 7;
    if (family == Family::kTridiagPerturbed) nnz = rows * 8;

    out.descriptors_.push_back(
        describe(id, family, rows, nnz, 0x9e3779b9u + static_cast<std::uint64_t>(id)));
  }
  return out;
}

SyntheticCollection SyntheticCollection::test_suite(int count, std::int64_t max_rows) {
  SyntheticCollection base = paper_suite();
  SyntheticCollection out;
  for (const auto& d : base.descriptors_) {
    if (d.rows <= max_rows && d.nnz <= max_rows * 64) out.descriptors_.push_back(d);
    if (static_cast<int>(out.descriptors_.size()) >= count) break;
  }
  return out;
}

Csr SyntheticCollection::materialize(std::size_t i) const {
  const MatrixDescriptor& d = descriptors_.at(i);
  const auto n = static_cast<index_t>(d.rows);
  const double degree = static_cast<double>(d.nnz) / static_cast<double>(d.rows);
  switch (d.family) {
    case Family::kBanded: {
      const auto band = static_cast<index_t>(std::max(2.0, degree));
      return make_banded(n, band, degree, d.seed);
    }
    case Family::kTridiagPerturbed:
      return make_tridiag_perturbed(n, std::max(0.0, degree - 3.0), d.seed);
    case Family::kPoisson2D: {
      const auto grid = static_cast<index_t>(std::round(std::sqrt(static_cast<double>(d.rows))));
      return make_poisson2d(grid);
    }
    case Family::kPoisson3D: {
      const auto grid = static_cast<index_t>(std::round(std::cbrt(static_cast<double>(d.rows))));
      return make_poisson3d(std::max<index_t>(grid, 2));
    }
    case Family::kBlockDiagonal: {
      const auto block = static_cast<index_t>(std::clamp(degree * 1.5, 4.0, 512.0));
      return make_block_diagonal(n, block, std::min(1.0, degree / static_cast<double>(block)),
                                 d.seed);
    }
    case Family::kArrow: {
      const auto width = static_cast<index_t>(std::clamp(degree, 2.0, 1024.0));
      return make_arrow(n, width, d.seed);
    }
    case Family::kRmat:
      return make_rmat(n, degree, d.seed);
    case Family::kRandomUniform:
      return make_random_uniform(n, degree, d.seed);
  }
  return {};
}

util::Digest128 SyntheticCollection::fingerprint() const {
  util::Hasher128 h;
  h.add(std::string_view("opm.sparse.SyntheticCollection.v1"));
  h.add(static_cast<std::uint64_t>(descriptors_.size()));
  for (const auto& d : descriptors_) {
    h.add(std::int64_t{d.id});
    h.add(std::string_view(d.name));
    h.add(static_cast<std::uint64_t>(d.family));
    h.add(d.rows).add(d.nnz).add(d.seed);
    h.add(d.locality).add(d.footprint_bytes);
  }
  return h.digest();
}

}  // namespace opm::sparse
