#include "util/format.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/units.hpp"

namespace opm::util {

char* write_hexf(char* out, double v) {
  char* const first = out;
  if (std::signbit(v)) *out++ = '-';
  if (!std::isfinite(v)) {
    // %a spells these with no "0x".
    std::memcpy(out, std::isnan(v) ? "nan" : "inf", 3);
    return out + 3;
  }
  *out++ = '0';
  *out++ = 'x';
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  const std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
  if (((bits >> 52) & 0x7FF) == 0 && mantissa != 0) {
    // %a leaves subnormals unnormalized ("0x0.0000000000001p-1022");
    // to_chars would normalize them ("0x1p-1074").
    static constexpr char kHex[] = "0123456789abcdef";
    std::uint64_t m = mantissa;
    int digits = 13;
    for (; (m & 0xF) == 0; m >>= 4) --digits;
    *out++ = '0';
    *out++ = '.';
    for (int i = digits - 1; i >= 0; --i) *out++ = kHex[(m >> (4 * i)) & 0xF];
    std::memcpy(out, "p-1022", 6);
    return out + 6;
  }
  return std::to_chars(out, first + kHexfMaxBytes, std::fabs(v), std::chars_format::hex).ptr;
}

void append_hexf(std::string& out, double v) {
  char buf[kHexfMaxBytes];
  out.append(buf, write_hexf(buf, v));
}

namespace {
std::string printf_string(const char* fmt, double v) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), fmt, v);
  return buf.data();
}
}  // namespace

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= GiB && bytes % GiB == 0) return std::to_string(bytes / GiB) + " GB";
  if (bytes >= MiB && bytes % MiB == 0) return std::to_string(bytes / MiB) + " MB";
  if (bytes >= KiB && bytes % KiB == 0) return std::to_string(bytes / KiB) + " KB";
  if (bytes >= GiB) return printf_string("%.2f GB", static_cast<double>(bytes) / static_cast<double>(GiB));
  if (bytes >= MiB) return printf_string("%.2f MB", static_cast<double>(bytes) / static_cast<double>(MiB));
  if (bytes >= KiB) return printf_string("%.2f KB", static_cast<double>(bytes) / static_cast<double>(KiB));
  return std::to_string(bytes) + " B";
}

std::string format_bandwidth(double bytes_per_second) {
  return printf_string("%.1f GB/s", to_gbps(bytes_per_second));
}

std::string format_gflops(double flops_per_second) {
  return printf_string("%.1f GFlop/s", to_gflops(flops_per_second));
}

std::string format_fixed(double v, int precision) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, v);
  return buf.data();
}

std::string format_speedup(double ratio) { return format_fixed(ratio, 3) + "x"; }

std::string pad(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s.substr(0, width);
  return s + std::string(width - s.size(), ' ');
}

}  // namespace opm::util
