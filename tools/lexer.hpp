#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// The C++ lexer behind opm_analyze (tools/analyze.*, docs/MODEL.md §10).
///
/// Every pass reads the same lexed input: the cross-file passes need a
/// real token stream to follow lock scopes, harvest string literals, and
/// build include graphs; the per-line rules need each line classified.
/// One lexer means "what is a comment", "what is a string", and "where
/// does a raw literal end" have exactly one answer in the repo — and a
/// suppression marker spelled inside a string literal or a block comment
/// stays data instead of silencing a finding.
///
/// This is a lexer, not a preprocessor or parser: no macro expansion, no
/// trigraphs, no line splicing outside string literals. It understands
/// the lexical shapes that matter for cross-file scanning:
///   * line (`//`) and block (`/* */`) comments, including multi-line;
///   * string and char literals with escapes, and raw strings
///     `R"delim(...)delim"` whose delimiter may span many lines of body;
///   * digit separators (`1'000'000` is one number, not a char literal);
///   * `#include "..."` / `#include <...>` directives, captured per file.
///
/// Output is dual-view over the same scan:
///   * a token stream (identifiers, numbers, strings with *decoded-ish*
///     text, char literals, punctuation) with 1-based line numbers — what
///     the cross-file passes consume;
///   * per-line classified text (code with literals collapsed, the
///     string contents, the line-comment text, the raw line) — what the
///     per-line rules and the suppression markers consume.
namespace opm::lex {

enum class TokenKind {
  kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_]*
  kNumber,      ///< integer/float literal (incl. digit separators)
  kString,      ///< text = literal contents (escapes kept verbatim)
  kChar,        ///< text = literal contents
  kPunct,       ///< one operator/punctuation character per token
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 1-based line the token starts on

  bool is(TokenKind k, std::string_view t) const { return kind == k && text == t; }
  bool ident(std::string_view t) const { return is(TokenKind::kIdentifier, t); }
  bool punct(char c) const {
    return kind == TokenKind::kPunct && text.size() == 1 && text[0] == c;
  }
};

/// One source line, classified. `code` has comments removed and string /
/// char literals collapsed to `""` / `''`; `strings` concatenates the
/// string-literal contents that appear on the line; `line_comment` holds
/// only `//`-comment text (block-comment interiors are deliberately NOT
/// included — suppression markers count in line comments alone);
/// `raw` is the verbatim line.
struct Line {
  std::string code;
  std::string strings;
  std::string line_comment;
  std::string raw;
};

/// A captured `#include` directive.
struct Include {
  std::string path;    ///< the text between the quotes / angle brackets
  bool angled = false; ///< true for <...>, false for "..."
  std::size_t line = 0;
};

struct Source {
  std::vector<Token> tokens;
  std::vector<Line> lines;
  std::vector<Include> includes;
};

/// Lexes one in-memory source. Never fails: malformed input (unterminated
/// literals, stray bytes) degrades to best-effort classification rather
/// than an error, because the scanners must keep walking a tree that is
/// mid-refactor.
Source lex(const std::string& content);

}  // namespace opm::lex
