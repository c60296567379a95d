#include "util/json.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace opm::util {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  return const_cast<JsonValue*>(std::as_const(*this).find(key));
}

namespace detail {

std::size_t json_plain_run_swar(std::string_view s) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  std::size_t i = 0;
  // Eight bytes per step: the has-less-than / has-zero-byte bit tricks are
  // exact as a test for "some byte of the word is special"; the byte loop
  // below then finds which one.
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, 8);
    const std::uint64_t quote = w ^ (kOnes * 0x22);
    const std::uint64_t slash = w ^ (kOnes * 0x5C);
    const std::uint64_t hit = (((w - kOnes * 0x20) & ~w) | ((quote - kOnes) & ~quote) |
                               ((slash - kOnes) & ~slash)) &
                              kHigh;
    if (hit != 0) break;
  }
  for (; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c < 0x20 || c == '"' || c == '\\') break;
  }
  return i;
}

}  // namespace detail

std::size_t json_plain_run(std::string_view s) {
#if defined(__SSE2__)
  // Sixteen bytes per step. A byte is special when it equals '"' or '\\',
  // or when min(byte, 0x1f) == byte (an unsigned <= 0x1f: SSE2 compares
  // bytes only as signed). A step loads only whole blocks inside `s`; the
  // tail shorter than a block goes to the SWAR scan.
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i slash = _mm_set1_epi8('\\');
  const __m128i control = _mm_set1_epi8(0x1F);
  std::size_t i = 0;
  for (; i + 16 <= s.size(); i += 16) {
    const __m128i block = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.data() + i));
    const __m128i hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(block, quote), _mm_cmpeq_epi8(block, slash)),
        _mm_cmpeq_epi8(_mm_min_epu8(block, control), block));
    const auto mask = static_cast<unsigned>(_mm_movemask_epi8(hit));
    if (mask != 0) return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
  return i + detail::json_plain_run_swar(s.substr(i));
#else
  return detail::json_plain_run_swar(s);
#endif
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth) : text_(text), max_depth_(max_depth) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue v;
    if (!parse_value(v, 0)) {
      if (error) *error = "offset " + std::to_string(pos_) + ": " + message_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error)
        *error = "offset " + std::to_string(pos_) + ": trailing characters after document";
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* message) {
    message_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parse_value(item, depth + 1)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') {
        --pos_;
        return fail("expected ',' or ']' in array");
      }
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key string");
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':' after key");
      ++pos_;
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') {
        --pos_;
        return fail("expected ',' or '}' in object");
      }
    }
  }

  bool hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("invalid hex digit in \\u escape");
    }
    return true;
  }

  void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      const std::size_t run = json_plain_run(text_.substr(pos_));
      out.append(text_.data() + pos_, run);
      pos_ += run;
      if (pos_ >= text_.size()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return fail("raw control character in string");
      // c is the backslash of an escape.
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair required
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
              return fail("unpaired surrogate");
            pos_ += 2;
            unsigned lo;
            if (!hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      return fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return fail("digit required after decimal point");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        return fail("digit required in exponent");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  std::string message_ = "parse error";
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error,
                                    std::size_t max_depth) {
  return Parser(text, max_depth).run(error);
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (;;) {
    const std::size_t run = json_plain_run(s);
    out.append(s.data(), run);
    if (run == s.size()) return;
    const auto c = static_cast<unsigned char>(s[run]);
    s.remove_prefix(run + 1);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Any other control byte: \u00xx, lowercase hex.
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_json_escaped(out, s);
  return out;
}

std::string format_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values inside the exactly-representable range print as plain
  // integers; to_chars would agree for most but switches to scientific
  // notation for large magnitudes, and the schema wants counters (bytes,
  // iterations) to look like counters.
  if (v == std::floor(v) && std::abs(v) <= 9007199254740992.0) {
    char buf[32];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof buf,
                                       static_cast<long long>(v));
    return ec == std::errc() ? std::string(buf, p) : std::string("0");
  }
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, p) : std::string("0");
}

namespace {
void serialize_into(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.boolean ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: out += format_json_number(v.number); break;
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(v.string);
      out += '"';
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i) out += ',';
        serialize_into(v.items[i], out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += json_escape(v.members[i].first);
        out += "\":";
        serialize_into(v.members[i].second, out);
      }
      out += '}';
      break;
    }
  }
}
}  // namespace

std::string serialize_json(const JsonValue& v) {
  std::string out;
  serialize_into(v, out);
  return out;
}

}  // namespace opm::util
