#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/formats.hpp"
#include "util/fingerprint.hpp"

/// The synthetic stand-in for the paper's 968-matrix UF suite.
///
/// The paper selects "all the square matrices with the number of nonzeros
/// larger than 200,000 from the UF Sparse Matrix Collection", 968 of 2757
/// (section 3.3). That collection is unavailable offline, so this module
/// generates a deterministic suite of exactly 968 square matrices whose
/// descriptors span the same feature space: rows 10³–4·10⁶, nnz 2·10⁵–10⁸,
/// eight structural families from near-diagonal (high vector locality) to
/// uniformly random (no locality).
///
/// Descriptors are cheap (no matrix data); `materialize()` builds the real
/// CSR on demand. Sweep harnesses drive the analytical models from
/// descriptors and validate against materialized samples.
namespace opm::sparse {

/// Structural family of a synthetic matrix.
enum class Family {
  kBanded,
  kTridiagPerturbed,
  kPoisson2D,
  kPoisson3D,
  kBlockDiagonal,
  kArrow,
  kRmat,
  kRandomUniform,
};

const char* to_string(Family family);

/// Compact description of one suite member.
struct MatrixDescriptor {
  int id = 0;
  std::string name;
  Family family = Family::kRandomUniform;
  std::int64_t rows = 0;
  std::int64_t nnz = 0;       ///< target nonzero count (materialized is close)
  std::uint64_t seed = 0;
  /// Vector-access locality in [0, 1]: 1 means accesses to the dense
  /// vectors stay near the diagonal (cache-friendly), 0 means uniformly
  /// scattered. Drives the sparse kernels' analytical traffic models.
  double locality = 0.0;
  /// SpMV working footprint (12·nnz + 20·rows bytes, paper Table 2).
  std::int64_t footprint_bytes = 0;
};

class SyntheticCollection {
 public:
  /// The full 968-matrix suite used by every sparse experiment.
  static SyntheticCollection paper_suite();

  /// A small suite for tests (same construction, fewer/smaller matrices).
  static SyntheticCollection test_suite(int count, std::int64_t max_rows);

  std::size_t size() const { return descriptors_.size(); }
  const MatrixDescriptor& descriptor(std::size_t i) const { return descriptors_.at(i); }
  const std::vector<MatrixDescriptor>& descriptors() const { return descriptors_; }

  /// Builds the actual matrix for suite member i. O(nnz) time and memory.
  Csr materialize(std::size_t i) const;

  /// Content fingerprint over every descriptor field. Part of each sparse
  /// sweep's result-cache key: any change to the suite construction
  /// (count, sizes, seeds, family mix, locality scores) re-keys all
  /// cached results that were computed from it.
  util::Digest128 fingerprint() const;

 private:
  static MatrixDescriptor describe(int id, Family family, std::int64_t rows, std::int64_t nnz,
                                   std::uint64_t seed);

  std::vector<MatrixDescriptor> descriptors_;
};

}  // namespace opm::sparse
