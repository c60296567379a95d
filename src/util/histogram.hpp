#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

/// Fixed-bin and log-scale histograms used by the analysis layer.
namespace opm::util {

/// Linear-bin histogram over [lo, hi); values outside are clamped to the
/// first/last bin so no observation is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one observation.
  void add(double x);
  /// Adds one observation with an arbitrary weight.
  void add(double x, double weight);

  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  /// Weight accumulated in bin i.
  double count(std::size_t i) const { return counts_.at(i); }
  /// Total accumulated weight.
  double total() const { return total_; }
  /// Index of the heaviest bin (0 if empty).
  std::size_t mode_bin() const;

 private:
  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

/// 2D binned aggregation: mean of a value per (x, y) cell.
///
/// This is the data structure behind every heat map in the paper
/// (throughput vs. (matrix order, block size) and vs. (rows, nonzeros)).
class Grid2D {
 public:
  Grid2D(double x_lo, double x_hi, std::size_t x_bins, double y_lo, double y_hi,
         std::size_t y_bins);

  /// Accumulates `value` into the cell containing (x, y).
  void add(double x, double y, double value);

  std::size_t x_bins() const { return x_bins_; }
  std::size_t y_bins() const { return y_bins_; }
  /// Mean of accumulated values in cell (ix, iy); 0 when the cell is empty.
  double mean(std::size_t ix, std::size_t iy) const;
  /// Number of samples in cell (ix, iy).
  std::size_t samples(std::size_t ix, std::size_t iy) const;
  /// Largest per-cell mean across the grid.
  double max_mean() const;
  double x_center(std::size_t ix) const;
  double y_center(std::size_t iy) const;

 private:
  std::size_t index(std::size_t ix, std::size_t iy) const { return iy * x_bins_ + ix; }

  double x_lo_, x_hi_, y_lo_, y_hi_;
  std::size_t x_bins_, y_bins_;
  std::vector<double> sums_;
  std::vector<std::size_t> counts_;
};

}  // namespace opm::util
