#include "analyze.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "lexer.hpp"

namespace opm::analyze {

namespace {

namespace fs = std::filesystem;

using lex::Token;
using lex::TokenKind;

// ------------------------------------------------------------------ common --

std::string normalized(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool is_cxx_path(const std::string& norm) {
  return norm.ends_with(".hpp") || norm.ends_with(".h") || norm.ends_with(".cpp") ||
         norm.ends_with(".cc");
}

/// One lexed input. Non-C++ inputs keep an empty token stream and are
/// consulted as raw reference text only.
struct Input {
  std::string path;   // normalized
  std::string content;
  lex::Source lx;     // C++ inputs only
  bool cxx = false;
};

/// True when `needle` occurs in `hay` delimited by non-kind characters
/// (kind alphabet: lowercase + digits + '-' + '_').
bool boundary_contains(const std::string& hay, const std::string& needle) {
  auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' || c == '_';
  };
  for (std::size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + 1)) {
    const bool left_ok = p == 0 || !word(hay[p - 1]);
    const std::size_t after = p + needle.size();
    const bool right_ok = after >= hay.size() || !word(hay[after]);
    if (left_ok && right_ok) return true;
  }
  return false;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Where a pass reports. `pass` comes from the pass table, so a pass never
/// spells its own id.
struct Sink {
  std::vector<Finding>* findings;
  const char* pass;

  void emit(std::string file, std::size_t line, std::string key, std::string message) {
    findings->push_back(Finding{std::move(file), line, pass, std::move(key),
                                std::move(message)});
  }
};

// -------------------------------------------------------- pass: lock-order --
//
// A token-level lock-scope walk. Within each file we track brace scopes;
// a scope opened after a class/struct head (or an out-of-line
// `Class::method(...)` head) carries the class context, a scope opened
// after a lambda introducer or `namespace` is a barrier (code inside runs
// on another call stack / has no held locks from the lexical outside).
// `util::MutexLock guard(expr);` records a lock named
// `<Class>::<expr>` (with the `impl_->member` pimpl idiom rewritten to
// `<Class>::Impl::member` so header-side and impl-side acquisitions of
// the same mutex unify). Acquiring L while H is held adds edge H→L to a
// global graph; any cycle is a potential deadlock.
//
// Token-level means approximate: distinct names are kept distinct, so
// aliasing can hide an edge (conservative: no false cycles from name
// collisions within a class, possible misses through references). The
// clang -Wthread-safety gate covers the per-acquisition proofs; this
// pass covers the cross-TU ordering TSan only samples.

struct LockEdge {
  std::string from, to;
  std::string file;
  std::size_t line = 0;
};

struct LockScan {
  std::map<std::string, std::vector<LockEdge>> edges;  // from → outgoing
  std::set<std::string> locks;
  std::size_t sites = 0;
};

void scan_locks(const Input& in, LockScan* scan) {
  const std::vector<Token>& t = in.lx.tokens;

  struct Scope {
    // A barrier stops the held-lock walk: class bodies (a lock is never
    // held across two member-function bodies), namespace bodies, and
    // lambda bodies (deferred execution on another call stack). The
    // class_name is naming context only — an out-of-line method body
    // carries one but is still an ordinary function body.
    bool barrier = false;
    std::string class_name;
    std::vector<std::string> locks;  // acquired directly in this scope
  };
  std::vector<Scope> stack;
  std::vector<const Token*> prefix;  // statement tokens since last ; { }

  auto innermost_class = [&]() -> std::string {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (!it->class_name.empty()) return it->class_name;
    return {};
  };

  auto classify_scope = [&]() -> Scope {
    Scope s;
    // class/struct/union head (but not `enum class`)?
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      const Token& tok = *prefix[i];
      if (tok.kind != TokenKind::kIdentifier) continue;
      if (tok.text != "class" && tok.text != "struct" && tok.text != "union") continue;
      if (i > 0 && prefix[i - 1]->ident("enum")) continue;
      // Collect the qualified name: ident (:: ident)*.
      std::string name;
      std::size_t j = i + 1;
      while (j < prefix.size() && prefix[j]->kind == TokenKind::kIdentifier) {
        if (!name.empty()) name += "::";
        name += prefix[j]->text;
        if (j + 2 < prefix.size() && prefix[j + 1]->punct(':') && prefix[j + 2]->punct(':'))
          j += 3;
        else
          break;
      }
      if (!name.empty()) {
        s.barrier = true;
        s.class_name = name;
        return s;
      }
    }
    for (const Token* tok : prefix)
      if (tok->ident("namespace")) {
        s.barrier = true;
        return s;
      }
    // Lambda introducer anywhere in the statement head: the body runs on
    // its own call stack (thread mains, deferred callbacks), so locks
    // held at the capture site are not held inside.
    for (const Token* tok : prefix)
      if (tok->punct('[')) {
        s.barrier = true;
        return s;
      }
    // Out-of-line member definition: `... Class::method ( ... )` — the
    // body is a plain function body, but locks inside name members of
    // Class.
    for (std::size_t i = 0; i + 1 < prefix.size(); ++i) {
      if (!prefix[i + 1]->punct('(')) continue;
      if (prefix[i]->kind != TokenKind::kIdentifier) break;
      // Walk the qualified-id chain backwards from the method name.
      std::vector<std::string> chain{prefix[i]->text};
      std::size_t j = i;
      while (j >= 3 && prefix[j - 1]->punct(':') && prefix[j - 2]->punct(':') &&
             prefix[j - 3]->kind == TokenKind::kIdentifier) {
        chain.push_back(prefix[j - 3]->text);
        j -= 3;
      }
      if (chain.size() >= 2) {
        std::string name;
        for (std::size_t k = chain.size() - 1; k >= 1; --k) {
          if (!name.empty()) name += "::";
          name += chain[k];
        }
        s.class_name = name;
      }
      break;
    }
    return s;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.punct('{')) {
      stack.push_back(classify_scope());
      prefix.clear();
      continue;
    }
    if (tok.punct('}')) {
      if (!stack.empty()) stack.pop_back();
      prefix.clear();
      continue;
    }
    if (tok.punct(';')) {
      prefix.clear();
      continue;
    }
    if (tok.ident("MutexLock") && i + 2 < t.size() &&
        t[i + 1].kind == TokenKind::kIdentifier && t[i + 2].punct('(')) {
      // Extract the constructor argument: tokens through the matching ')'.
      std::string expr;
      int depth = 1;
      std::size_t j = i + 3;
      for (; j < t.size() && depth > 0; ++j) {
        if (t[j].punct('(')) ++depth;
        if (t[j].punct(')') && --depth == 0) break;
        expr += t[j].kind == TokenKind::kString ? "\"" + t[j].text + "\"" : t[j].text;
      }
      if (expr.rfind("this->", 0) == 0) expr = expr.substr(6);
      std::string owner = innermost_class();
      if (expr.rfind("impl_->", 0) == 0) {
        owner = owner.empty() ? "Impl" : owner + "::Impl";
        expr = expr.substr(7);
      }
      // Free-function locks keep the bare expression so the same global
      // mutex unifies across translation units.
      const std::string lock = owner.empty() ? expr : owner + "::" + expr;
      scan->locks.insert(lock);
      ++scan->sites;
      // Held locks: every lock declared in this function body and its
      // nested blocks — collect outward, stopping at the first barrier
      // (whose own locks still count: a lock taken directly in a lambda
      // body is held for later acquisitions in that body).
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        for (const std::string& held : it->locks)
          if (held != lock)
            scan->edges[held].push_back(LockEdge{held, lock, in.path, tok.line});
        if (it->barrier) break;
      }
      if (!stack.empty()) stack.back().locks.push_back(lock);
      prefix.clear();
      i = j;
      continue;
    }
    prefix.push_back(&tok);
    if (prefix.size() > 96) prefix.erase(prefix.begin());
  }
}

void pass_lock_order(const std::vector<Input>& inputs, Sink& sink) {
  LockScan scan;
  for (const Input& in : inputs)
    if (in.cxx) scan_locks(in, &scan);

  // Cycle detection: iterative DFS with tricolor marking; every back edge
  // closes a distinct elementary cycle through the current stack.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  std::set<std::string> reported;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    path.push_back(node);
    auto it = scan.edges.find(node);
    if (it != scan.edges.end()) {
      for (const LockEdge& e : it->second) {
        if (color[e.to] == 1) {
          // Reconstruct the cycle from the grey stack.
          auto start = std::find(path.begin(), path.end(), e.to);
          std::vector<std::string> cycle(start, path.end());
          // Canonical rotation: smallest lock first, so each cycle is
          // reported (and suppressible) exactly once.
          auto min_it = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), min_it, cycle.end());
          std::string key = "cycle:";
          for (const std::string& n : cycle) key += n + "->";
          key += cycle.front();
          std::replace(key.begin(), key.end(), ' ', '_');
          if (reported.insert(key).second) {
            std::ostringstream msg;
            msg << "lock-order cycle (potential deadlock): ";
            for (const std::string& n : cycle) msg << n << " -> ";
            msg << cycle.front() << "; acquisition sites:";
            for (std::size_t ci = 0; ci < cycle.size(); ++ci) {
              const std::string& from = cycle[ci];
              const std::string& to = cycle[(ci + 1) % cycle.size()];
              for (const LockEdge& edge : scan.edges[from])
                if (edge.to == to) {
                  msg << " " << edge.from << "->" << edge.to << " at " << edge.file
                      << ":" << edge.line << ";";
                  break;
                }
            }
            sink.emit(e.file, e.line, std::move(key), msg.str());
          }
        } else if (color[e.to] == 0) {
          dfs(e.to);
        }
      }
    }
    path.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, _] : scan.edges)
    if (color[node] == 0) dfs(node);
}

// ---------------------------------------------------------- pass: protocol --
//
// Harvests the serve error-kind taxonomy from its construction sites
// (`err->category = "kind"`, `rejection("kind", ...)`,
// `make_error("kind", ...)` in src/serve) and cross-checks four surfaces:
// the protocol.hpp taxonomy comment, docs/MODEL.md, the serve/router test
// suites, and the router/loadgen handling comparisons. A kind someone
// adds to the code can no longer skip docs, tests, or the taxonomy; a
// kind someone *compares against* without constructing is flagged as a
// phantom (usually a typo in a handler).

struct KindSite {
  std::string file;
  std::size_t line = 0;
};

bool kind_shaped(const std::string& s) {
  if (s.empty() || s.front() == '-' || s.back() == '-') return false;
  for (char c : s)
    if (!((c >= 'a' && c <= 'z') || c == '-')) return false;
  return true;
}

void pass_protocol(const std::vector<Input>& inputs, Sink& sink) {
  std::map<std::string, KindSite> constructed;          // kind → first site
  std::map<std::string, KindSite> handled;              // router/loadgen compares
  const Input* protocol_hpp = nullptr;
  const Input* docs = nullptr;
  std::vector<const Input*> tests;

  for (const Input& in : inputs) {
    if (in.path.ends_with("docs/MODEL.md") || in.path == "MODEL.md") docs = &in;
    if (in.path.ends_with("serve/protocol.hpp")) protocol_hpp = &in;
    if (in.path.find("test_serve") != std::string::npos ||
        in.path.find("test_router") != std::string::npos)
      tests.push_back(&in);
    if (!in.cxx) continue;

    const bool serve_src = in.path.find("src/serve/") != std::string::npos ||
                           in.path.rfind("serve/", 0) == 0;
    const bool handler = in.path.find("serve/router.cpp") != std::string::npos ||
                         in.path.find("serve_loadgen") != std::string::npos;
    if (!serve_src && !handler) continue;

    const std::vector<Token>& t = in.lx.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      // err->category = "kind"   (but not ==, which is a comparison)
      if (t[i].ident("category") && t[i + 1].punct('=') && !t[i + 2].punct('=') &&
          t[i + 2].kind == TokenKind::kString && kind_shaped(t[i + 2].text)) {
        if (serve_src && !constructed.count(t[i + 2].text))
          constructed[t[i + 2].text] = {in.path, t[i + 2].line};
      }
      // category == "kind"  → handling comparison
      if (t[i].ident("category") && i + 3 < t.size() && t[i + 1].punct('=') &&
          t[i + 2].punct('=') && t[i + 3].kind == TokenKind::kString &&
          kind_shaped(t[i + 3].text)) {
        if (handler && !handled.count(t[i + 3].text))
          handled[t[i + 3].text] = {in.path, t[i + 3].line};
      }
      // rejection("kind", ...) / make_error("kind", ...)
      if ((t[i].ident("rejection") || t[i].ident("make_error")) && t[i + 1].punct('(') &&
          t[i + 2].kind == TokenKind::kString && kind_shaped(t[i + 2].text)) {
        if (serve_src && !constructed.count(t[i + 2].text))
          constructed[t[i + 2].text] = {in.path, t[i + 2].line};
      }
    }
  }

  if (constructed.empty()) return;  // no serve sources among the inputs

  for (const auto& [kind, site] : constructed) {
    if (protocol_hpp && !boundary_contains(protocol_hpp->content, kind))
      sink.emit(site.file, site.line, "kind:" + kind + ":taxonomy",
                "error kind \"" + kind +
                    "\" is constructed here but missing from the protocol.hpp "
                    "taxonomy comment");
    if (docs && !boundary_contains(docs->content, kind))
      sink.emit(site.file, site.line, "kind:" + kind + ":docs",
                "error kind \"" + kind + "\" is constructed here but undocumented in " +
                    docs->path);
    bool in_tests = false;
    for (const Input* test : tests) {
      for (const Token& tok : test->lx.tokens)
        if (tok.kind == TokenKind::kString && boundary_contains(tok.text, kind)) {
          in_tests = true;
          break;
        }
      if (in_tests) break;
    }
    if (!tests.empty() && !in_tests)
      sink.emit(site.file, site.line, "kind:" + kind + ":tests",
                "error kind \"" + kind +
                    "\" is constructed here but never exercised (no string literal "
                    "mentions it in test_serve.cpp / test_router.cpp)");
  }

  for (const auto& [kind, site] : handled)
    if (!constructed.count(kind))
      sink.emit(site.file, site.line, "kind:" + kind + ":phantom",
                "handler compares against error kind \"" + kind +
                    "\" which no serve source ever constructs (typo?)");

  // The redirect contract: if shards can answer "redirect", the router
  // must follow it — a router that stops doing so silently breaks the
  // stale-ring heal path even though every unit keeps passing.
  if (constructed.count("redirect") && !handled.empty() && !handled.count("redirect")) {
    const KindSite& site = constructed.at("redirect");
    sink.emit(site.file, site.line, "kind:redirect:unhandled",
              "\"redirect\" errors are constructed but the router/loadgen handling "
              "code never compares against the kind");
  }
}

// ----------------------------------------------------------- pass: metrics --
//
// The MetricsRegistry namespace is stringly typed: a typo in a dotted
// counter name creates a new zero counter instead of failing. This pass
// harvests every `counter("x")` / `double_counter("x")` site, splits them
// into writes (bumps / resolved references) and reads (`.value()`), and
// checks: names are dotted lowercase; each name is written by exactly one
// src/ file (its owner); no two names within one subsystem sit at edit
// distance 1 (the `cache.missses` shape); and every dotted name
// referenced from bench gates, tools, tests, or shell scripts resolves to
// a defined counter.

struct MetricSite {
  std::string file;
  std::size_t line = 0;
};

bool metric_shaped(const std::string& s) {
  if (s.empty() || !(s.front() >= 'a' && s.front() <= 'z')) return false;
  bool dot = false;
  char prev = '\0';
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) return false;
    if (c == '.') {
      if (prev == '.' || prev == '\0') return false;
      dot = true;
    }
    prev = c;
  }
  return dot && prev != '.';
}

/// Extracts metric-shaped dotted names from free text (string literals,
/// shell scripts), skipping file-extension lookalikes ("sim.json").
std::vector<std::string> dotted_candidates(const std::string& text) {
  static const std::set<std::string> kExtensions = {
      "h",  "hpp", "cpp", "cc",  "md",  "sh",  "json", "sock", "log",  "out",
      "tmp", "txt", "csv", "py", "yml", "yaml", "cmake", "opmrec", "gitignore"};
  std::vector<std::string> out;
  std::size_t i = 0;
  auto run_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.';
  };
  while (i < text.size()) {
    if (!run_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && run_char(text[j])) ++j;
    std::string cand = text.substr(i, j - i);
    // A run glued to an uppercase/word prefix (BENCH_sim.json) is a
    // fragment of a larger token, not a metric name.
    const bool glued = i > 0 && (std::isalnum(static_cast<unsigned char>(text[i - 1])) ||
                                 text[i - 1] == '_');
    i = j;
    while (!cand.empty() && (cand.front() == '.' || cand.front() == '_')) cand.erase(0, 1);
    while (!cand.empty() && cand.back() == '.') cand.pop_back();
    if (glued || !metric_shaped(cand)) continue;
    const std::size_t last_dot = cand.rfind('.');
    if (kExtensions.count(cand.substr(last_dot + 1))) continue;
    out.push_back(std::move(cand));
  }
  return out;
}

void pass_metrics(const std::vector<Input>& inputs, Sink& sink) {
  std::map<std::string, std::vector<MetricSite>> writes;  // src/ write sites
  std::map<std::string, MetricSite> reads;                // any .value() read
  std::vector<std::pair<std::string, MetricSite>> refs;   // free-text references

  for (const Input& in : inputs) {
    if (!in.cxx) {
      if (in.path.ends_with(".sh"))
        for (const std::string& name : dotted_candidates(in.content))
          refs.emplace_back(name, MetricSite{in.path, 0});
      continue;
    }
    const bool in_src = in.path.find("src/") != std::string::npos ||
                        in.path.rfind("src/", 0) == 0;
    const std::vector<Token>& t = in.lx.tokens;
    std::set<std::size_t> registry_literal;  // token indices consumed here
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (!(t[i].ident("counter") || t[i].ident("double_counter"))) continue;
      if (!t[i + 1].punct('(') || t[i + 2].kind != TokenKind::kString ||
          !t[i + 3].punct(')'))
        continue;
      const std::string& name = t[i + 2].text;
      registry_literal.insert(i + 2);
      const MetricSite site{in.path, t[i + 2].line};
      if (!metric_shaped(name)) {
        sink.emit(site.file, site.line, "name:" + name + ":format",
                  "metric name \"" + name +
                      "\" is not dotted lowercase (subsystem.counter_name)");
        continue;
      }
      const bool is_read = i + 5 < t.size() && t[i + 4].punct('.') && t[i + 5].ident("value");
      if (is_read || !in_src)
        reads.emplace(name, site);
      else
        writes[name].push_back(site);
    }
    // Free-text references: dotted names inside other string literals
    // (bench gate lookups, stats parsing, test fixtures).
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kString || registry_literal.count(i)) continue;
      for (const std::string& name : dotted_candidates(t[i].text))
        refs.emplace_back(name, MetricSite{in.path, t[i].line});
    }
  }

  if (writes.empty()) return;  // no registry producers among the inputs

  std::set<std::string> subsystems;
  for (const auto& [name, _] : writes) subsystems.insert(name.substr(0, name.find('.')));

  // One owner file per counter.
  for (const auto& [name, sites] : writes) {
    std::set<std::string> files;
    for (const MetricSite& s : sites) files.insert(s.file);
    if (files.size() > 1) {
      std::ostringstream msg;
      msg << "metric \"" << name << "\" is written from " << files.size()
          << " files (one subsystem must own each counter):";
      for (const std::string& f : files) msg << " " << f << ";";
      sink.emit(sites.front().file, sites.front().line, "name:" + name + ":multi-owner",
                msg.str());
    }
  }

  // Near-miss pairs inside one subsystem.
  std::vector<std::string> names;
  for (const auto& [name, _] : writes) names.push_back(name);
  for (std::size_t a = 0; a < names.size(); ++a)
    for (std::size_t b = a + 1; b < names.size(); ++b) {
      if (names[a].substr(0, names[a].find('.')) != names[b].substr(0, names[b].find('.')))
        continue;
      if (edit_distance(names[a], names[b]) <= 1) {
        const MetricSite& site = writes[names[b]].front();
        sink.emit(site.file, site.line, "near-miss:" + names[a] + "~" + names[b],
                  "metric names \"" + names[a] + "\" and \"" + names[b] +
                      "\" differ by one edit — almost certainly a typo");
      }
    }

  // Referenced names (and src-side reads) must resolve.
  auto check_ref = [&](const std::string& name, const MetricSite& site) {
    const std::string subsystem = name.substr(0, name.find('.'));
    if (!subsystems.count(subsystem)) return;  // not a registry namespace
    if (writes.count(name)) return;
    sink.emit(site.file, site.line, "name:" + name + ":undefined",
              "\"" + name + "\" looks like a " + subsystem +
                  ".* metric but no src/ file defines it — reads of it are "
                  "silently zero");
  };
  for (const auto& [name, site] : reads) check_ref(name, site);
  std::set<std::string> seen;  // one finding per (name,file)
  for (const auto& [name, site] : refs)
    if (seen.insert(name + "\n" + site.file).second) check_ref(name, site);
}

// ---------------------------------------------------------- pass: layering --
//
// Include-graph construction over every scanned C++ file. Quoted include
// paths resolve either into src/ modules ("core/sweep.hpp" → module
// `core`) or, when they carry no directory, into the includer's own
// directory ("lexer.hpp" in tools/). Two checks: the architecture rule
// table (util is the bottom layer and includes only util; sim never
// includes core/serve/advise; core never serve/advise; advise never
// serve — the advisor must stay servable *through* serve without linking
// against it), and file-level include cycles.

const std::set<std::string>& src_modules() {
  static const std::set<std::string> mods = {"util",  "core",    "sim",
                                             "serve", "advise",  "dense",
                                             "sparse", "kernels", "trace"};
  return mods;
}

/// Forbidden module edges, from → set of targets.
const std::map<std::string, std::set<std::string>>& forbidden_edges() {
  static const std::map<std::string, std::set<std::string>> table = {
      {"util", {"core", "sim", "serve", "advise", "dense", "sparse", "kernels", "trace"}},
      {"sim", {"core", "serve", "advise"}},
      {"core", {"serve", "advise"}},
      {"advise", {"serve"}},
  };
  return table;
}

std::string module_of(const std::string& norm) {
  std::string p = norm;
  const std::size_t src = p.find("src/");
  if (src != std::string::npos && (src == 0 || p[src - 1] == '/')) {
    p = p.substr(src + 4);
    return p.substr(0, p.find('/'));
  }
  return p.substr(0, p.find('/'));  // tools/bench/tests/examples/...
}

void pass_layering(const std::vector<Input>& inputs, Sink& sink) {
  std::set<std::string> known_files;
  for (const Input& in : inputs)
    if (in.cxx) known_files.insert(in.path);

  std::map<std::string, std::vector<std::pair<std::string, std::size_t>>> file_edges;

  for (const Input& in : inputs) {
    if (!in.cxx) continue;
    const std::string from_module = module_of(in.path);
    const std::string dir = in.path.find('/') == std::string::npos
                                ? std::string()
                                : in.path.substr(0, in.path.rfind('/') + 1);
    for (const lex::Include& inc : in.lx.includes) {
      if (inc.angled) continue;  // system headers are outside the architecture
      const std::string first = inc.path.substr(0, inc.path.find('/'));
      std::string to_module;
      std::string target;
      if (inc.path.find('/') != std::string::npos && src_modules().count(first)) {
        to_module = first;
        // Resolve against the same src/ prefix the includer lives under,
        // so fixture trees rooted anywhere still form a graph.
        const std::size_t src = in.path.find("src/");
        target = (src != std::string::npos ? in.path.substr(0, src + 4) : "src/") + inc.path;
      } else if (inc.path.find('/') == std::string::npos) {
        to_module = from_module;
        target = dir + inc.path;
      } else {
        continue;  // external quoted include (gtest/gtest.h etc.)
      }
      auto fit = forbidden_edges().find(from_module);
      if (fit != forbidden_edges().end() && fit->second.count(to_module))
        sink.emit(in.path, inc.line, "include:" + in.path + "->" + to_module,
                  "layering violation: " + from_module + "/ must not include " +
                      to_module + "/ (\"" + inc.path + "\")");
      if (known_files.count(target))
        file_edges[in.path].emplace_back(target, inc.line);
    }
  }

  // File-level include cycles.
  std::map<std::string, int> color;
  std::vector<std::string> path;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    path.push_back(node);
    auto it = file_edges.find(node);
    if (it != file_edges.end()) {
      for (const auto& [to, line] : it->second) {
        if (color[to] == 1) {
          auto start = std::find(path.begin(), path.end(), to);
          std::vector<std::string> cycle(start, path.end());
          auto min_it = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), min_it, cycle.end());
          std::string key = "cycle:";
          for (const std::string& n : cycle) key += n + "->";
          key += cycle.front();
          if (reported.insert(key).second) {
            std::ostringstream msg;
            msg << "include cycle: ";
            for (const std::string& n : cycle) msg << n << " -> ";
            msg << cycle.front();
            sink.emit(node, line, std::move(key), msg.str());
          }
        } else if (color[to] == 0) {
          dfs(to);
        }
      }
    }
    path.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, _] : file_edges)
    if (color[node] == 0) dfs(node);
}

// ---------------------------------------------------------- per-line rules --
//
// Token-level, not a parser: each rule matches against the lexer's
// classified lines — `code` (comments stripped, literals collapsed) or,
// for the %-conversion rule, `strings` (the literal text) — and is scoped
// by path substring, so "util/rng." exempts the RNG implementation
// wherever the tree is rooted.

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool path_has(const std::string& norm, const char* frag) {
  return norm.find(frag) != std::string::npos;
}

bool in_tree(const std::string& norm, const char* tree) {  // tree = "src"
  const std::string t = std::string(tree) + "/";
  return norm.rfind(t, 0) == 0 || norm.find("/" + t) != std::string::npos;
}

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

void rule_rng(const Input& in, Sink& sink) {
  if (path_has(in.path, "util/rng.")) return;
  for (std::size_t li = 0; li < in.lx.lines.size(); ++li) {
    const std::string& code = in.lx.lines[li].code;
    for (const char* fn : {"rand", "srand", "time"})
      for (std::size_t p : find_all(code, fn))
        if (free_call_at(code, p, fn))
          sink.emit(in.path, li + 1, {},
                    std::string(fn) + "() is nondeterministic; use the seeded "
                                      "generators in util/rng");
    for (std::size_t p : find_all(code, "random_device"))
      if (token_at(code, p, "random_device") ||
          (p >= 5 && code.compare(p - 5, 5, "std::") == 0))
        sink.emit(in.path, li + 1, {},
                  "std::random_device is nondeterministic; use the seeded "
                  "generators in util/rng");
  }
}

void rule_thread_ownership(const Input& in, Sink& sink) {
  if (path_has(in.path, "util/thread_pool.") || path_has(in.path, "src/serve/")) return;
  for (std::size_t li = 0; li < in.lx.lines.size(); ++li) {
    const std::string& code = in.lx.lines[li].code;
    for (const char* tok : {"std::thread", "std::jthread"})
      for (std::size_t p : find_all(code, tok)) {
        const std::size_t after = p + std::string(tok).size();
        if (after < code.size() && (is_ident(code[after]) || code[after] == ':'))
          continue;  // std::thread::hardware_concurrency etc.
        if (p > 0 && is_ident(code[p - 1])) continue;
        sink.emit(in.path, li + 1, {},
                  std::string(tok) + " outside util/thread_pool and src/serve; "
                                     "route work through util::ThreadPool");
      }
  }
}

void rule_float_print(const Input& in, Sink& sink) {
  if (!path_has(in.path, "core/sweep.") && !path_has(in.path, "core/experiment.") &&
      !path_has(in.path, "core/result_cache.") && !path_has(in.path, "serve/protocol."))
    return;
  for (std::size_t li = 0; li < in.lx.lines.size(); ++li) {
    const lex::Line& line = in.lx.lines[li];
    if (has_float_conversion(line.strings))
      sink.emit(in.path, li + 1, {},
                "decimal float conversion in a serialization path; use the "
                "canonical %a formatter util::append_hexf");
    for (std::size_t p : find_all(line.code, "std::to_string"))
      if (token_at(line.code, p, "std::to_string"))
        sink.emit(in.path, li + 1, {},
                  "std::to_string in a serialization path; floats must go "
                  "through the canonical %a formatter util::append_hexf");
  }
}

void rule_guarded_mutex(const Input& in, Sink& sink) {
  if (!in_tree(in.path, "src")) return;
  if (path_has(in.path, "util/mutex.hpp") || path_has(in.path, "util/thread_safety.hpp"))
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
        sink.emit(in.path, line + 1, {},
                  type + " member in a class with no OPM_GUARDED_BY field; "
                         "annotate what it protects (util/thread_safety.hpp)");
  };

  for (std::size_t li = 0; li < in.lx.lines.size(); ++li) {
    const std::string& code = in.lx.lines[li].code;
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

void rule_pragma_once(const Input& in, Sink& sink) {
  if (!in.path.ends_with(".hpp") && !in.path.ends_with(".h")) return;
  for (const lex::Line& line : in.lx.lines) {
    const std::size_t p = line.raw.find("#pragma");
    if (p != std::string::npos && line.raw.find("once", p) != std::string::npos) return;
  }
  sink.emit(in.path, 1, {}, "header is missing #pragma once");
}

void rule_no_endl(const Input& in, Sink& sink) {
  if (!in_tree(in.path, "src")) return;
  for (std::size_t li = 0; li < in.lx.lines.size(); ++li)
    for (std::size_t p : find_all(in.lx.lines[li].code, "std::endl"))
      if (token_at(in.lx.lines[li].code, p, "std::endl"))
        sink.emit(in.path, li + 1, {},
                  "std::endl flushes on every call; write \"\\n\" in hot paths");
}

/// A per-line rule as a pass: every C++ input, one at a time.
template <void (*Rule)(const Input&, Sink&)>
void per_file(const std::vector<Input>& inputs, Sink& sink) {
  for (const Input& in : inputs)
    if (in.cxx) Rule(in, sink);
}

// ---------------------------------------------------------------- the table --

using Pass = void (*)(const std::vector<Input>&, Sink&);

struct PassDef {
  PassInfo info;
  Pass run;
};

const std::vector<PassDef>& pass_table() {
  static const std::vector<PassDef> table = {
      {{"lock-order", "global lock-order graph over util::MutexLock scopes; fails on cycles"},
       pass_lock_order},
      {{"protocol", "serve error-kind taxonomy exhaustive across protocol.hpp, docs, tests, router"},
       pass_protocol},
      {{"metrics", "dotted counter names: one owner, no near-miss typos, all references defined"},
       pass_metrics},
      {{"layering", "include-graph cycles + architecture rules (util ⊄ core/sim/serve/advise, ...)"},
       pass_layering},
      {{"rng", "rand()/srand()/time()/std::random_device outside util/rng"}, per_file<rule_rng>},
      {{"thread-ownership", "raw std::thread outside util/thread_pool and src/serve"},
       per_file<rule_thread_ownership>},
      {{"float-print", "%f-style or std::to_string output in canonical serialization paths"},
       per_file<rule_float_print>},
      {{"guarded-mutex", "mutex member without an OPM_GUARDED_BY field in the same class"},
       per_file<rule_guarded_mutex>},
      {{"pragma-once", "every header carries #pragma once"}, per_file<rule_pragma_once>},
      {{"no-endl", "std::endl in src/ hot paths"}, per_file<rule_no_endl>},
  };
  return table;
}

// ----------------------------------------------------------------- markers --
//
// The one suppression mechanism: the allow marker in a line comment names
// the pass ids it silences on its own line (docs/MODEL.md §10 spells it;
// spelling it here would make this comment a marker). Only line-comment
// text is consulted, so a marker inside a string literal or a block
// comment is data. A marker id that is unknown, or that silences no
// finding on its line, is a finding of its own: suppressions only shrink.

/// Pass ids named by the marker in one line comment (none when absent).
std::vector<std::string> marker_ids(const std::string& comment) {
  std::vector<std::string> out;
  const std::size_t marker = comment.find("opm-lint:");
  if (marker == std::string::npos) return out;
  const std::size_t open = comment.find("allow(", marker);
  if (open == std::string::npos) return out;
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return out;
  std::istringstream is(comment.substr(open + 6, close - open - 6));
  std::string id;
  while (std::getline(is, id, ',')) {
    const auto b = id.find_first_not_of(" \t");
    const auto e = id.find_last_not_of(" \t");
    if (b != std::string::npos) out.push_back(id.substr(b, e - b + 1));
  }
  return out;
}

/// Drops the findings a marker silences, then reports every marker id
/// that silenced nothing. With `only_pass` set, only markers naming it
/// are checked: the other passes did not run.
std::vector<Finding> apply_markers(const std::vector<Input>& inputs, std::vector<Finding> raw,
                                   const std::string& only_pass) {
  struct Marker {
    std::string id;
    bool used = false;
  };
  std::map<std::pair<std::string, std::size_t>, std::vector<Marker>> markers;
  for (const Input& in : inputs)
    for (std::size_t li = 0; li < in.lx.lines.size(); ++li)
      for (std::string& id : marker_ids(in.lx.lines[li].line_comment))
        markers[{in.path, li + 1}].push_back(Marker{std::move(id)});

  std::vector<Finding> kept;
  for (Finding& f : raw) {
    bool silenced = false;
    const auto it = markers.find({f.file, f.line});
    if (it != markers.end())
      for (Marker& m : it->second)
        if (m.id == f.pass) silenced = m.used = true;
    if (!silenced) kept.push_back(std::move(f));
  }

  for (const auto& [where, list] : markers)
    for (const Marker& m : list) {
      if (m.used || (!only_pass.empty() && m.id != only_pass)) continue;
      const bool known = std::any_of(pass_table().begin(), pass_table().end(),
                                     [&](const PassDef& p) { return m.id == p.info.id; });
      if (known)
        kept.push_back(Finding{where.first, where.second, m.id, {},
                               "stale marker: no " + m.id +
                                   " finding on this line to allow — delete it"});
      else
        kept.push_back(Finding{where.first, where.second, "marker", {},
                               "marker names \"" + m.id +
                                   "\", which is not a pass id (see --list-passes)"});
    }
  return kept;
}

}  // namespace

const std::vector<PassInfo>& passes() {
  static const std::vector<PassInfo> infos = [] {
    std::vector<PassInfo> out;
    for (const PassDef& p : pass_table()) out.push_back(p.info);
    return out;
  }();
  return infos;
}

Report analyze_sources(const std::vector<SourceFile>& sources, const std::string& only_pass) {
  std::vector<Input> inputs;
  inputs.reserve(sources.size());
  for (const SourceFile& s : sources) {
    Input in;
    in.path = normalized(s.path);
    in.content = s.content;
    in.cxx = is_cxx_path(in.path);
    if (in.cxx) in.lx = lex::lex(in.content);
    inputs.push_back(std::move(in));
  }

  Report report;
  std::vector<Finding> raw;
  for (const PassDef& p : pass_table()) {
    if (!only_pass.empty() && only_pass != p.info.id) continue;
    Sink sink{&raw, p.info.id};
    const auto t0 = std::chrono::steady_clock::now();
    p.run(inputs, sink);
    const auto t1 = std::chrono::steady_clock::now();
    report.timing.push_back(
        PassTiming{p.info.id, std::chrono::duration<double>(t1 - t0).count(), 0});
  }

  report.findings = apply_markers(inputs, std::move(raw), only_pass);
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.pass, a.key) <
                     std::tie(b.file, b.line, b.pass, b.key);
            });
  // Count per-pass findings after the markers so the summary matches output.
  for (PassTiming& t : report.timing)
    for (const Finding& f : report.findings)
      if (f.pass == t.pass) ++t.findings;
  return report;
}

Report analyze_paths(const std::vector<std::string>& roots, const std::string& only_pass) {
  std::vector<SourceFile> sources;
  std::vector<Finding> io;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);  // explicit file: any extension participates
    } else if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && is_cxx_path(normalized(it->path().string())))
          files.push_back(it->path().generic_string());
      }
    } else {
      io.push_back(Finding{root, 0, "io", "missing:" + root,
                           "path is not a file or directory"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    if (!in) {
      io.push_back(Finding{file, 0, "io", "unreadable:" + file, "unreadable file"});
      continue;
    }
    buf << in.rdbuf();
    sources.push_back(SourceFile{file, buf.str()});
  }

  Report report = analyze_sources(sources, only_pass);
  report.findings.insert(report.findings.begin(), io.begin(), io.end());
  return report;
}

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  std::vector<std::string> roots;
  std::string only_pass;
  const char* usage =
      "usage: opm_analyze [--pass=ID] [--list-passes] <path>...\n"
      "The repo's static checker (docs/MODEL.md §10): ten passes over the\n"
      "lexed sources. Directories are walked for *.hpp/*.h/*.cpp/*.cc;\n"
      "explicitly listed files of any type (docs/MODEL.md, scripts/ci.sh)\n"
      "join as reference text. Silence one line with a line comment\n"
      "  // opm-lint: allow(<pass-id>[,...])\n"
      "A marker that silences nothing is itself a finding.\n"
      "Exit: 0 clean, 1 findings, 2 usage/IO error.\n";

  for (const std::string& a : args) {
    if (a == "--list-passes") {
      for (const PassInfo& p : passes()) out << p.id << "\t" << p.summary << "\n";
      return 0;
    }
    if (a == "--help" || a == "-h") {
      err << usage;
      return 0;
    }
    if (a.rfind("--pass=", 0) == 0) {
      only_pass = a.substr(7);
      bool known = false;
      for (const PassInfo& p : passes()) known = known || only_pass == p.id;
      if (!known) {
        err << "opm_analyze: unknown pass \"" << only_pass << "\"\n" << usage;
        return 2;
      }
      continue;
    }
    if (a.rfind("--", 0) == 0) {
      err << "opm_analyze: unknown flag \"" << a << "\"\n" << usage;
      return 2;
    }
    roots.push_back(a);
  }
  if (roots.empty()) {
    err << usage;
    return 2;
  }

  const Report report = analyze_paths(roots, only_pass);
  for (const Finding& f : report.findings)
    out << f.file << ":" << f.line << ": [" << f.pass << "] " << f.message << "\n";
  for (const PassTiming& t : report.timing) {
    char ms[32];
    std::snprintf(ms, sizeof ms, "%.1f", t.seconds * 1e3);
    out << "opm_analyze: pass " << t.pass << ": " << t.findings << " finding(s) in " << ms
        << " ms\n";
  }
  if (report.findings.empty()) {
    out << "opm_analyze: clean\n";
    return 0;
  }
  out << "opm_analyze: " << report.findings.size() << " finding(s)\n";
  const bool io_error = std::any_of(report.findings.begin(), report.findings.end(),
                                    [](const Finding& f) { return f.pass == "io"; });
  return io_error ? 2 : 1;
}

}  // namespace opm::analyze
