#include "util/format.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "util/units.hpp"

namespace opm::util {

namespace {

/// The two lowercase hex digits of every byte value, high nibble first.
constexpr std::array<char, 512> kHexPairs = [] {
  constexpr char kHex[] = "0123456789abcdef";
  std::array<char, 512> pairs{};
  for (int b = 0; b < 256; ++b) {
    pairs[static_cast<std::size_t>(2 * b)] = kHex[b >> 4];
    pairs[static_cast<std::size_t>(2 * b + 1)] = kHex[b & 0xF];
  }
  return pairs;
}();

}  // namespace

// Starts on a cache line: a CSV row calls this six times, and where the
// linker happened to place it moved the whole CSV stage by up to 13%
// (31.4 against 35.5 ns per point for the same code, shifted by 16-byte
// link padding), so unrelated code size changed a layer's timing.
__attribute__((aligned(64))) char* write_hexf(char* out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  const std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
  const auto biased = static_cast<int>((bits >> 52) & 0x7FF);
  if (bits >> 63) *out++ = '-';
  if (biased == 0x7FF) {
    // %a spells these with no "0x".
    std::memcpy(out, mantissa != 0 ? "nan" : "inf", 3);
    return out + 3;
  }
  *out++ = '0';
  *out++ = 'x';
  if (biased == 0) {
    if (mantissa == 0) {
      std::memcpy(out, "0p+0", 4);
      return out + 4;
    }
    // %a leaves subnormals unnormalized ("0x0.0000000000001p-1022").
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
  *out++ = '1';
  if (mantissa != 0) {
    // The 13 mantissa nibbles, shifted up one nibble to fill seven whole
    // bytes, go out as seven digit pairs; the digits after the last
    // nonzero nibble are then dropped, as %a drops them. The pairs end at
    // most 19 bytes in, inside the kHexfMaxBytes the caller provides.
    *out++ = '.';
    const std::uint64_t m = mantissa << 4;
    for (int byte = 0; byte < 7; ++byte)
      std::memcpy(out + 2 * byte, &kHexPairs[2 * ((m >> (48 - 8 * byte)) & 0xFF)], 2);
    out += 13 - std::countr_zero(mantissa) / 4;
  }
  int exponent = biased - 1023;
  *out++ = 'p';
  *out++ = exponent < 0 ? '-' : '+';
  if (exponent < 0) exponent = -exponent;
  return std::to_chars(out, out + 4, exponent).ptr;
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
