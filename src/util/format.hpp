#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

/// Formatting helpers shared by all reporting code, plus the one canonical
/// hex-float formatter every serialization path uses.
namespace opm::util {

/// The longest text write_hexf produces: "-0x1.fffffffffffffp-1022" and
/// "-0x0.0000000000001p-1022" are 24 bytes.
inline constexpr std::size_t kHexfMaxBytes = 24;

/// Writes `v` exactly as glibc's printf("%a") spells it — the sign, "0x1.",
/// the mantissa's hex digits without trailing zeros, then "p" and the
/// signed decimal exponent; "0x0p+0" for zero; subnormals unnormalized as
/// "0x0.<hex>p-1022"; "inf", "-inf", "nan" and "-nan" for non-finite
/// values — into `out`, which must have room for kHexfMaxBytes (the
/// writer may scribble inside that room past the returned end). Returns
/// one past the last byte written. The text is exact and
/// locale-independent, so it round-trips bit for bit.
char* write_hexf(char* out, double v);

/// Appends write_hexf's text for `v` to `out`.
void append_hexf(std::string& out, double v);

/// "128 MB", "16 GB", "6 MB" — binary units, trimmed like the paper's prose.
std::string format_bytes(std::uint64_t bytes);

/// "102.4 GB/s" — decimal units as the paper reports bandwidths.
std::string format_bandwidth(double bytes_per_second);

/// "236.8 GFlop/s".
std::string format_gflops(double flops_per_second);

/// Fixed-precision double, e.g. format_fixed(3.14159, 2) == "3.14".
std::string format_fixed(double v, int precision);

/// "1.243x" speedup formatting used in Tables 4 and 5.
std::string format_speedup(double ratio);

/// Left-pads or truncates to an exact column width (for ASCII tables).
std::string pad(const std::string& s, std::size_t width);

}  // namespace opm::util
