#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "lexer.hpp"

namespace opm::lint {

namespace {

namespace fs = std::filesystem;

// Line classification (comment-free code text, string-literal contents,
// line-comment text) comes from the shared lexer in tools/lexer.*, the
// same one opm_analyze's semantic passes tokenize with.
using Line = lex::Line;

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Rule IDs suppressed on this line via "opm-lint: allow(a,b)". Only the
/// line-comment text is consulted: a marker spelled inside a string
/// literal or a block comment is data, not a suppression.
std::set<std::string> allowed_rules(const std::string& comment) {
  std::set<std::string> out;
  const std::size_t marker = comment.find("opm-lint:");
  if (marker == std::string::npos) return out;
  const std::size_t open = comment.find("allow(", marker);
  if (open == std::string::npos) return out;
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return out;
  std::string ids = comment.substr(open + 6, close - open - 6);
  std::string id;
  std::istringstream is(ids);
  while (std::getline(is, id, ',')) {
    const auto b = id.find_first_not_of(" \t");
    const auto e = id.find_last_not_of(" \t");
    if (b != std::string::npos) out.insert(id.substr(b, e - b + 1));
  }
  return out;
}

// ------------------------------------------------------------ path scoping --

std::string normalized(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool path_has(const std::string& norm, const char* frag) {
  return norm.find(frag) != std::string::npos;
}

bool in_tree(const std::string& norm, const char* tree) {  // tree = "src"
  const std::string t = std::string(tree) + "/";
  return norm.rfind(t, 0) == 0 || norm.find("/" + t) != std::string::npos;
}

bool is_header(const std::string& norm) {
  return norm.ends_with(".hpp") || norm.ends_with(".h");
}

// -------------------------------------------------------------- token utils --

/// True when code[pos..] spells `name` as a standalone token (non-ident
/// characters, or string boundaries, on both sides).
bool token_at(const std::string& code, std::size_t pos, const std::string& name) {
  if (pos > 0 && (is_ident(code[pos - 1]) || code[pos - 1] == ':')) return false;
  const std::size_t after = pos + name.size();
  return after >= code.size() || !is_ident(code[after]);
}

/// True when code[pos..] is a call of free function `name`: bare, `::`- or
/// `std::`-qualified, but not a member (`.name(` / `->name(`) and not part
/// of a longer identifier (`wall_time(`, `time_since_epoch`).
bool free_call_at(const std::string& code, std::size_t pos, const std::string& name) {
  std::size_t after = pos + name.size();
  while (after < code.size() && (code[after] == ' ' || code[after] == '\t')) ++after;
  if (after >= code.size() || code[after] != '(') return false;
  if (pos == 0) return true;
  if (is_ident(code[pos - 1]) || code[pos - 1] == '.' || code[pos - 1] == '>') return false;
  if (code[pos - 1] != ':') return true;  // bare call after an operator/space
  // Qualified: allow only the global (`::time`) or `std::` spellings; a
  // `foo::time(...)` from some other namespace is somebody else's function.
  if (pos < 2 || code[pos - 2] != ':') return false;
  if (pos == 2) return true;  // line starts with ::name
  const std::size_t q = pos - 2;
  if (q >= 3 && code.compare(q - 3, 3, "std") == 0 &&
      (q == 3 || !is_ident(code[q - 4])))
    return true;
  return !is_ident(code[q - 1]) && code[q - 1] != ':';
}

std::vector<std::size_t> find_all(const std::string& hay, const std::string& needle) {
  std::vector<std::size_t> out;
  for (std::size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + 1))
    out.push_back(p);
  return out;
}

/// Matches a printf floating conversion (%f/%e/%g with optional flags,
/// width, precision, length) in string-literal text. `%a` stays legal: it
/// is the canonical bit-exact serialization this rule funnels code toward.
bool has_float_conversion(const std::string& text) {
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != '%') continue;
    if (text[i + 1] == '%') {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[j])) != 0 ||
            text[j] == '-' || text[j] == '+' || text[j] == ' ' || text[j] == '#' ||
            text[j] == '.' || text[j] == '*' || text[j] == 'l' || text[j] == 'h' ||
            text[j] == 'L'))
      ++j;
    if (j < text.size() && (text[j] == 'f' || text[j] == 'F' || text[j] == 'e' ||
                            text[j] == 'E' || text[j] == 'g' || text[j] == 'G'))
      return true;
  }
  return false;
}

// -------------------------------------------------------------------- rules --

const char* const kRng = "rng";
const char* const kThread = "thread-ownership";
const char* const kFloatPrint = "float-print";
const char* const kGuardedMutex = "guarded-mutex";
const char* const kPragmaOnce = "pragma-once";
const char* const kNoEndl = "no-endl";

struct Sink {
  const std::string& path;
  const std::vector<Line>& lines;
  std::vector<Finding>& findings;

  void emit(std::size_t line_index, const char* rule, std::string message) {
    if (line_index < lines.size() &&
        allowed_rules(lines[line_index].line_comment).count(rule) > 0)
      return;
    findings.push_back(Finding{path, line_index + 1, rule, std::move(message)});
  }
};

void check_rng(const std::string& norm, Sink& sink) {
  if (path_has(norm, "util/rng.")) return;
  for (std::size_t li = 0; li < sink.lines.size(); ++li) {
    const std::string& code = sink.lines[li].code;
    for (const char* fn : {"rand", "srand", "time"})
      for (std::size_t p : find_all(code, fn))
        if (free_call_at(code, p, fn))
          sink.emit(li, kRng,
                    std::string(fn) + "() is nondeterministic; use the seeded "
                                      "generators in util/rng");
    for (std::size_t p : find_all(code, "random_device"))
      if (token_at(code, p, "random_device") ||
          (p >= 5 && code.compare(p - 5, 5, "std::") == 0))
        sink.emit(li, kRng,
                  "std::random_device is nondeterministic; use the seeded "
                  "generators in util/rng");
  }
}

void check_thread(const std::string& norm, Sink& sink) {
  if (path_has(norm, "util/thread_pool.") || in_tree(norm, "src/serve") ||
      path_has(norm, "src/serve/"))
    return;
  for (std::size_t li = 0; li < sink.lines.size(); ++li) {
    const std::string& code = sink.lines[li].code;
    for (const char* tok : {"std::thread", "std::jthread"})
      for (std::size_t p : find_all(code, tok)) {
        const std::size_t after = p + std::string(tok).size();
        if (after < code.size() && (is_ident(code[after]) || code[after] == ':'))
          continue;  // std::thread::hardware_concurrency etc.
        if (p > 0 && is_ident(code[p - 1])) continue;
        sink.emit(li, kThread,
                  std::string(tok) + " outside util/thread_pool and src/serve; "
                                     "route work through util::ThreadPool");
      }
  }
}

bool float_print_scope(const std::string& norm) {
  return path_has(norm, "core/sweep.") || path_has(norm, "core/experiment.") ||
         path_has(norm, "core/result_cache.") || path_has(norm, "serve/protocol.");
}

void check_float_print(const std::string& norm, Sink& sink) {
  if (!float_print_scope(norm)) return;
  for (std::size_t li = 0; li < sink.lines.size(); ++li) {
    const Line& line = sink.lines[li];
    if (has_float_conversion(line.strings))
      sink.emit(li, kFloatPrint,
                "decimal float conversion in a serialization path; use the "
                "canonical %a formatter util::append_hexf");
    for (std::size_t p : find_all(line.code, "std::to_string"))
      if (token_at(line.code, p, "std::to_string"))
        sink.emit(li, kFloatPrint,
                  "std::to_string in a serialization path; floats must go "
                  "through the canonical %a formatter util::append_hexf");
  }
}

void check_guarded_mutex(const std::string& norm, Sink& sink) {
  if (!in_tree(norm, "src")) return;
  if (path_has(norm, "util/mutex.hpp") || path_has(norm, "util/thread_safety.hpp"))
    return;

  struct Block {
    bool class_like = false;
    bool has_guard = false;
    std::vector<std::pair<std::size_t, std::string>> mutexes;  // line, type
  };
  std::vector<Block> stack;
  std::string prefix;  // statement text since the last ';' '{' '}'

  auto close_block = [&] {
    if (stack.empty()) return;
    Block b = std::move(stack.back());
    stack.pop_back();
    if (b.class_like && !b.has_guard)
      for (const auto& [line, type] : b.mutexes)
        sink.emit(line, kGuardedMutex,
                  type + " member in a class with no OPM_GUARDED_BY field; "
                         "annotate what it protects (util/thread_safety.hpp)");
  };

  for (std::size_t li = 0; li < sink.lines.size(); ++li) {
    const std::string& code = sink.lines[li].code;
    if (code.find("OPM_GUARDED_BY") != std::string::npos ||
        code.find("OPM_PT_GUARDED_BY") != std::string::npos)
      if (!stack.empty()) stack.back().has_guard = true;

    if (!stack.empty() && stack.back().class_like) {
      for (const char* type : {"std::mutex", "std::recursive_mutex",
                               "std::shared_mutex", "std::timed_mutex",
                               "util::Mutex", "Mutex"}) {
        for (std::size_t p : find_all(code, type)) {
          if (p > 0 && (is_ident(code[p - 1]) || code[p - 1] == ':')) continue;
          std::size_t j = p + std::string(type).size();
          if (j >= code.size() || (code[j] != ' ' && code[j] != '\t')) continue;
          while (j < code.size() && (code[j] == ' ' || code[j] == '\t')) ++j;
          std::size_t ident = 0;
          while (j < code.size() && is_ident(code[j])) ++j, ++ident;
          while (j < code.size() && (code[j] == ' ' || code[j] == '\t')) ++j;
          if (ident > 0 && j < code.size() && code[j] == ';')
            stack.back().mutexes.emplace_back(li, type);
        }
        if (!stack.back().mutexes.empty() && stack.back().mutexes.back().first == li)
          break;  // one hit per line is enough (avoids Mutex-inside-util::Mutex)
      }
    }

    for (char c : code) {
      if (c == '{') {
        Block b;
        for (const char* kw : {"struct", "class", "union"})
          for (std::size_t p : find_all(prefix, kw))
            if (token_at(prefix, p, kw)) b.class_like = true;
        stack.push_back(b);
        prefix.clear();
      } else if (c == '}') {
        close_block();
        prefix.clear();
      } else if (c == ';') {
        prefix.clear();
      } else {
        prefix.push_back(c);
      }
    }
    prefix.push_back(' ');  // newlines separate tokens
  }
  while (!stack.empty()) close_block();  // unbalanced file: flush anyway
}

void check_pragma_once(const std::string& norm, Sink& sink) {
  if (!is_header(norm)) return;
  for (const Line& line : sink.lines) {
    const std::size_t p = line.raw.find("#pragma");
    if (p != std::string::npos && line.raw.find("once", p) != std::string::npos)
      return;
  }
  sink.emit(0, kPragmaOnce, "header is missing #pragma once");
}

void check_no_endl(const std::string& norm, Sink& sink) {
  if (!in_tree(norm, "src")) return;
  for (std::size_t li = 0; li < sink.lines.size(); ++li)
    for (std::size_t p : find_all(sink.lines[li].code, "std::endl"))
      if (token_at(sink.lines[li].code, p, "std::endl"))
        sink.emit(li, kNoEndl,
                  "std::endl flushes on every call; write \"\\n\" in hot paths");
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> table = {
      {kRng, "rand()/srand()/time()/std::random_device outside util/rng"},
      {kThread, "raw std::thread outside util/thread_pool and src/serve"},
      {kFloatPrint, "%f-style or std::to_string output in canonical serialization paths"},
      {kGuardedMutex, "mutex member without an OPM_GUARDED_BY field in the same class"},
      {kPragmaOnce, "every header carries #pragma once"},
      {kNoEndl, "std::endl in src/ hot paths"},
  };
  return table;
}

std::vector<Finding> check_source(const std::string& path, const std::string& content) {
  const std::string norm = normalized(path);
  const std::vector<Line> lines = lex::lex(content).lines;
  std::vector<Finding> findings;
  Sink sink{path, lines, findings};
  check_rng(norm, sink);
  check_thread(norm, sink);
  check_float_print(norm, sink);
  check_guarded_mutex(norm, sink);
  check_pragma_once(norm, sink);
  check_no_endl(norm, sink);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> check_paths(const std::vector<std::string>& roots) {
  std::vector<Finding> findings;
  std::vector<std::string> files;
  auto keep = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc";
  };
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && keep(it->path()))
          files.push_back(it->path().generic_string());
      }
    } else {
      findings.push_back(Finding{root, 0, "io", "path is not a file or directory"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      findings.push_back(Finding{file, 0, "io", "unreadable file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto one = check_source(file, buf.str());
    findings.insert(findings.end(), one.begin(), one.end());
  }
  return findings;
}

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  std::vector<std::string> roots;
  for (const std::string& a : args) {
    if (a == "--list-rules") {
      for (const RuleInfo& r : rules()) out << r.id << "\t" << r.summary << "\n";
      return 0;
    }
    if (a == "--help" || a == "-h" || a.rfind("--", 0) == 0) {
      err << "usage: opm_lint [--list-rules] <path>...\n"
             "Scans *.hpp/*.h/*.cpp/*.cc for project-invariant violations.\n"
             "Exit: 0 clean, 1 findings, 2 usage error.\n"
             "Suppress one line with: // opm-lint: allow(<rule-id>[,...])\n";
      return a == "--help" || a == "-h" ? 0 : 2;
    }
    roots.push_back(a);
  }
  if (roots.empty()) {
    err << "usage: opm_lint [--list-rules] <path>...\n";
    return 2;
  }
  const std::vector<Finding> findings = check_paths(roots);
  for (const Finding& f : findings)
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  if (findings.empty()) {
    out << "opm_lint: clean\n";
    return 0;
  }
  out << "opm_lint: " << findings.size() << " finding(s)\n";
  const bool io_error = std::any_of(findings.begin(), findings.end(),
                                    [](const Finding& f) { return f.rule == "io"; });
  return io_error ? 2 : 1;
}

}  // namespace opm::lint
