#include "util/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace opm::util {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo) || bins == 0) throw std::invalid_argument("Histogram: bad range or bin count");
  width_ = (hi - lo) / static_cast<double>(bins);
  counts_.assign(bins, 0.0);
}

void Histogram::add(double x) { add(x, 1.0); }

void Histogram::add(double x, double weight) {
  auto bin = static_cast<long long>((x - lo_) / width_);
  bin = std::clamp<long long>(bin, 0, static_cast<long long>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += weight;
  total_ += weight;
}

std::size_t Histogram::mode_bin() const {
  return static_cast<std::size_t>(
      std::distance(counts_.begin(), std::max_element(counts_.begin(), counts_.end())));
}

Grid2D::Grid2D(double x_lo, double x_hi, std::size_t x_bins, double y_lo, double y_hi,
               std::size_t y_bins)
    : x_lo_(x_lo), x_hi_(x_hi), y_lo_(y_lo), y_hi_(y_hi), x_bins_(x_bins), y_bins_(y_bins) {
  if (!(x_hi > x_lo) || !(y_hi > y_lo) || x_bins == 0 || y_bins == 0)
    throw std::invalid_argument("Grid2D: bad range or bin count");
  sums_.assign(x_bins_ * y_bins_, 0.0);
  counts_.assign(x_bins_ * y_bins_, 0);
}

void Grid2D::add(double x, double y, double value) {
  auto ix = static_cast<long long>((x - x_lo_) / (x_hi_ - x_lo_) * static_cast<double>(x_bins_));
  auto iy = static_cast<long long>((y - y_lo_) / (y_hi_ - y_lo_) * static_cast<double>(y_bins_));
  ix = std::clamp<long long>(ix, 0, static_cast<long long>(x_bins_) - 1);
  iy = std::clamp<long long>(iy, 0, static_cast<long long>(y_bins_) - 1);
  const std::size_t i = index(static_cast<std::size_t>(ix), static_cast<std::size_t>(iy));
  sums_[i] += value;
  counts_[i] += 1;
}

double Grid2D::mean(std::size_t ix, std::size_t iy) const {
  const std::size_t i = index(ix, iy);
  return counts_[i] ? sums_[i] / static_cast<double>(counts_[i]) : 0.0;
}

std::size_t Grid2D::samples(std::size_t ix, std::size_t iy) const { return counts_[index(ix, iy)]; }

double Grid2D::max_mean() const {
  double best = 0.0;
  for (std::size_t i = 0; i < sums_.size(); ++i)
    if (counts_[i]) best = std::max(best, sums_[i] / static_cast<double>(counts_[i]));
  return best;
}

double Grid2D::x_center(std::size_t ix) const {
  return x_lo_ + (static_cast<double>(ix) + 0.5) * (x_hi_ - x_lo_) / static_cast<double>(x_bins_);
}

double Grid2D::y_center(std::size_t iy) const {
  return y_lo_ + (static_cast<double>(iy) + 0.5) * (y_hi_ - y_lo_) / static_cast<double>(y_bins_);
}

}  // namespace opm::util
