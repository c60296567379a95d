#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// Minimal strict JSON reader for the serve protocol.
///
/// The repo *emits* JSON in several places (sweep telemetry, cache
/// totals); the sweep service is the first component that must *consume*
/// it, from untrusted clients. This parser is therefore strict and
/// bounded: RFC 8259 grammar only (no comments, no trailing commas, no
/// NaN/Infinity), a hard nesting-depth limit, and an explicit error
/// message with the byte offset for every rejection — a malformed line
/// must always turn into a structured protocol error, never UB.
namespace opm::util {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;                                      ///< decoded (unescaped) text
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject, insertion order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// As above, for callers that move a member's contents out.
  JsonValue* find(std::string_view key);
};

/// Parses exactly one JSON document covering the whole input (trailing
/// whitespace allowed, trailing garbage is an error). On failure returns
/// nullopt and, when `error` is non-null, stores "offset N: reason".
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr,
                                    std::size_t max_depth = 64);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included): ", \, and control characters; everything else is passed
/// through byte-for-byte so round-tripping a payload is exact.
std::string json_escape(std::string_view s);

/// Appends json_escape(s) to `out` without building a temporary.
void append_json_escaped(std::string& out, std::string_view s);

/// Length of the leading run of `s` that a JSON string carries verbatim:
/// everything before the first '"', '\\' or control byte (< 0x20). The
/// escaper, the parser's string scanner, the router's payload check and
/// the client's payload decoder copy or skip such runs in bulk: sixteen
/// bytes per step with SSE2 (the x86-64 baseline), otherwise eight per
/// step with detail::json_plain_run_swar. Never reads outside `s`.
std::size_t json_plain_run(std::string_view s);

namespace detail {
/// The portable eight-bytes-per-step scan json_plain_run falls back to
/// without SSE2; callable everywhere so tests can hold the SSE2 scan to
/// it as an oracle on the same inputs.
std::size_t json_plain_run_swar(std::string_view s);
}  // namespace detail

/// Canonical number formatting for emitted JSON: the shortest decimal
/// string that parses back to exactly the same double (std::to_chars),
/// with integral values in [-2^53, 2^53] printed without a fraction or
/// exponent. Non-finite values (which JSON cannot represent) serialize as
/// "null" — callers emitting measurements must not produce them.
std::string format_json_number(double v);

/// Canonical single-line serialization: no whitespace, object members in
/// insertion order, strings via json_escape, numbers via
/// format_json_number. Because parse_json preserves member order and
/// format_json_number round-trips exactly, serialize ∘ parse is the
/// identity on anything this function emitted — the bit-identity the
/// benchmark schema tests pin.
std::string serialize_json(const JsonValue& v);

}  // namespace opm::util
