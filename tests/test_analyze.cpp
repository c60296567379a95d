// Tests for opm_analyze (tools/analyze.*): the shared lexer's token and
// line classification; one block per cross-file pass — lock-order cycle
// detection, protocol taxonomy exhaustiveness, metrics-name consistency,
// layering — each driven by synthetic in-memory fixture trees (a
// deliberate lock cycle, an undocumented error kind, a misspelled-counter
// typo, a util → serve include); one block per per-line rule (the Lint*
// suites), scoped to the rule's own pass; the line-marker suppression
// contract, including stale markers; and the CLI exit-code contract.
//
// Fixture sources are string literals: the analyzer must handle the
// fixtures' strings/comments correctly and must not trip over this file
// itself when it scans tests/.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze.hpp"
#include "lexer.hpp"

namespace {

using opm::analyze::Finding;
using opm::analyze::Report;
using opm::analyze::SourceFile;
using opm::analyze::analyze_sources;

std::vector<std::string> keys(const Report& report) {
  std::vector<std::string> out;
  for (const Finding& f : report.findings) out.push_back(f.pass + "/" + f.key);
  return out;
}

/// The findings of `pass` ("" = every pass) over a one-file tree.
std::vector<Finding> check_source(const std::string& path, const std::string& content,
                                  const std::string& pass) {
  return analyze_sources({{path, content}}, pass).findings;
}

std::vector<std::string> rule_ids(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.pass);
  return ids;
}

// ------------------------------------------------------------ shared lexer --

TEST(Lexer, ClassifiesCommentsStringsAndCode) {
  const auto src = opm::lex::lex(
      "int a = 1; // trailing\n"
      "const char* s = \"quoted // not a comment\";\n"
      "/* block\n"
      "   spanning */ int b;\n");
  ASSERT_EQ(src.lines.size(), 5u);  // trailing newline yields an empty line
  EXPECT_NE(src.lines[0].code.find("int a"), std::string::npos);
  EXPECT_NE(src.lines[0].line_comment.find("trailing"), std::string::npos);
  EXPECT_EQ(src.lines[1].code.find("not a comment"), std::string::npos);
  EXPECT_NE(src.lines[1].strings.find("// not a comment"), std::string::npos);
  EXPECT_EQ(src.lines[2].code.find("block"), std::string::npos);
  EXPECT_NE(src.lines[3].code.find("int b"), std::string::npos);
}

TEST(Lexer, TokenizesIdentifiersNumbersAndRawStrings) {
  const auto src = opm::lex::lex(
      "double x = 1'000.5e-3;\n"
      "auto s = R\"delim(raw \"text\")delim\";\n");
  bool saw_number = false, saw_raw = false;
  for (const auto& t : src.tokens) {
    if (t.kind == opm::lex::TokenKind::kNumber && t.text == "1'000.5e-3") saw_number = true;
    if (t.kind == opm::lex::TokenKind::kString && t.text == "raw \"text\"") saw_raw = true;
  }
  EXPECT_TRUE(saw_number);
  EXPECT_TRUE(saw_raw);
}

TEST(Lexer, CapturesIncludesOutOfCodeText) {
  const auto src = opm::lex::lex(
      "#include <vector>\n"
      "#include \"core/sweep.hpp\"\n");
  ASSERT_EQ(src.includes.size(), 2u);
  EXPECT_TRUE(src.includes[0].angled);
  EXPECT_EQ(src.includes[0].path, "vector");
  EXPECT_FALSE(src.includes[1].angled);
  EXPECT_EQ(src.includes[1].path, "core/sweep.hpp");
  EXPECT_EQ(src.includes[1].line, 2u);
  // The path never leaks into code text (a "<time.h>" would otherwise
  // read as less-than / identifier / greater-than).
  EXPECT_EQ(src.lines[0].code.find("vector"), std::string::npos);
}

// -------------------------------------------------------- pass: lock-order --

TEST(LockOrder, DetectsCrossTuCycle) {
  // a.cpp takes A then B; b.cpp takes B then A — a classic ABBA deadlock
  // no single translation unit can see.
  const std::vector<SourceFile> tree = {
      {"src/core/a.cpp",
       "void fa() {\n"
       "  util::MutexLock la(mu_a);\n"
       "  util::MutexLock lb(mu_b);\n"
       "}\n"},
      {"src/core/b.cpp",
       "void fb() {\n"
       "  util::MutexLock lb(mu_b);\n"
       "  util::MutexLock la(mu_a);\n"
       "}\n"},
  };
  const Report report = analyze_sources(tree, "lock-order");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_EQ(report.findings[0].pass, "lock-order");
  EXPECT_NE(report.findings[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("mu_a"), std::string::npos);
}

TEST(LockOrder, SequentialScopesAndLambdasAreNotEdges) {
  const std::vector<SourceFile> tree = {
      // Sequential non-nested scopes: never held together.
      {"src/core/seq.cpp",
       "void f() {\n"
       "  { util::MutexLock la(mu_a); }\n"
       "  { util::MutexLock lb(mu_b); }\n"
       "}\n"},
      // A lambda body runs on another call stack; the capture-site lock
      // is not held inside it.
      {"src/core/lam.cpp",
       "void g() {\n"
       "  util::MutexLock lb(mu_b);\n"
       "  pool.submit([&] { util::MutexLock la(mu_a); });\n"
       "}\n"},
      // A→B in one function is fine on its own (consistent order).
      {"src/core/ok.cpp",
       "void h() {\n"
       "  util::MutexLock la(mu_a);\n"
       "  util::MutexLock lb(mu_b);\n"
       "}\n"},
  };
  EXPECT_TRUE(analyze_sources(tree, "lock-order").findings.empty());
}

TEST(LockOrder, PimplAcquisitionsUnifyAcrossSpellings) {
  // Inside Router::Impl methods the mutex is `pending_mutex`; in
  // out-of-line Router methods it is `impl_->pending_mutex`. Both must
  // canonicalize to the same lock, or real cycles through the pimpl
  // boundary would go unseen.
  const std::vector<SourceFile> tree = {
      {"src/serve/r.cpp",
       "struct Router::Impl {\n"
       "  void a() {\n"
       "    util::MutexLock l1(pending_mutex);\n"
       "    util::MutexLock l2(conns_mutex);\n"
       "  }\n"
       "};\n"
       "void Router::b() {\n"
       "  util::MutexLock l2(impl_->conns_mutex);\n"
       "  util::MutexLock l1(impl_->pending_mutex);\n"
       "}\n"},
  };
  const Report report = analyze_sources(tree, "lock-order");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_NE(report.findings[0].message.find("Router::Impl::pending_mutex"),
            std::string::npos);
}

// ---------------------------------------------------------- pass: protocol --

// A minimal healthy serve fixture: one kind, documented and tested.
std::vector<SourceFile> protocol_tree() {
  return {
      {"src/serve/protocol.hpp", "// taxonomy: \"overload\" \"redirect\"\n"},
      {"src/serve/server.cpp",
       "void reject() { auto e = rejection(\"overload\", \"queue full\"); }\n"
       "void heal() { err->category = \"redirect\"; }\n"},
      {"src/serve/router.cpp",
       "void route() {\n"
       "  if (view.error.category == \"redirect\") { retry(); }\n"
       "}\n"},
      {"docs/MODEL.md", "## Errors\n`overload` and `redirect` are retryable.\n"},
      {"tests/test_serve.cpp",
       "TEST(T, K) { EXPECT_EQ(err.category, \"overload\"); check(\"redirect\"); }\n"},
  };
}

TEST(Protocol, CleanTaxonomyPasses) {
  EXPECT_TRUE(analyze_sources(protocol_tree(), "protocol").findings.empty());
}

TEST(Protocol, UndocumentedKindIsFlaggedOnEverySurface) {
  auto tree = protocol_tree();
  // A new kind constructed in code but added nowhere else.
  tree[1].content += "void die() { auto e = make_error(\"exploded\", \"boom\"); }\n";
  const Report report = analyze_sources(tree, "protocol");
  ASSERT_EQ(report.findings.size(), 3u) << testing::PrintToString(keys(report));
  EXPECT_EQ(report.findings[0].key, "kind:exploded:docs");
  EXPECT_EQ(report.findings[1].key, "kind:exploded:taxonomy");
  EXPECT_EQ(report.findings[2].key, "kind:exploded:tests");
  EXPECT_EQ(report.findings[0].file, "src/serve/server.cpp");
  EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(Protocol, PhantomComparisonAndDroppedRedirectHandling) {
  auto tree = protocol_tree();
  // The router compares against a kind nothing constructs (a typo), and
  // its redirect handling disappears.
  tree[2].content = "void route() { if (view.error.category == \"overlaod\") { } }\n";
  const Report report = analyze_sources(tree, "protocol");
  const auto ks = keys(report);
  EXPECT_NE(std::find(ks.begin(), ks.end(), "protocol/kind:overlaod:phantom"), ks.end())
      << testing::PrintToString(ks);
  EXPECT_NE(std::find(ks.begin(), ks.end(), "protocol/kind:redirect:unhandled"), ks.end())
      << testing::PrintToString(ks);
}

TEST(Protocol, KindInsideCommentDoesNotCountAsConstruction) {
  auto tree = protocol_tree();
  // Prose mentioning the pattern must not register a kind.
  tree[1].content += "// err->category = \"imaginary\" would be wrong\n";
  EXPECT_TRUE(analyze_sources(tree, "protocol").findings.empty());
}

// ----------------------------------------------------------- pass: metrics --

std::vector<SourceFile> metrics_tree() {
  return {
      {"src/core/lru.cpp",
       "void hit() { util::MetricsRegistry::instance().counter(\"lru.hits\").add(1); }\n"
       "void miss() { util::MetricsRegistry::instance().counter(\"lru.misses\").add(1); }\n"},
      {"bench/gate.cpp",
       "double g() { return stats_counter(stats, \"lru.misses\"); }\n"},
  };
}

TEST(Metrics, CleanNamesPass) {
  EXPECT_TRUE(analyze_sources(metrics_tree(), "metrics").findings.empty());
}

TEST(Metrics, NearMissTypoIsFlagged) {
  auto tree = metrics_tree();
  tree[0].content += "void oops() { counter(\"lru.missses\").add(1); }\n";
  const Report report = analyze_sources(tree, "metrics");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_EQ(report.findings[0].key, "near-miss:lru.misses~lru.missses");
  EXPECT_EQ(report.findings[0].line, 3u);
}

TEST(Metrics, UndefinedReferenceFromBenchOrScriptIsFlagged) {
  auto tree = metrics_tree();
  tree[1].content = "double g() { return stats_counter(stats, \"lru.missed\"); }\n";
  tree.push_back({"scripts/ci.sh", "jq '.\"lru.evictions\"' < stats.json\n"});
  const Report report = analyze_sources(tree, "metrics");
  const auto ks = keys(report);
  ASSERT_EQ(ks.size(), 2u) << testing::PrintToString(ks);
  EXPECT_EQ(ks[0], "metrics/name:lru.missed:undefined");
  EXPECT_EQ(ks[1], "metrics/name:lru.evictions:undefined");
  // Unknown namespaces (file names, JSON schema tags) are not metrics.
  auto quiet = metrics_tree();
  quiet.push_back({"scripts/ci.sh", "cp results/sim.json $tmp/other.thing\n"});
  EXPECT_TRUE(analyze_sources(quiet, "metrics").findings.empty());
}

TEST(Metrics, MultiOwnerAndMalformedNamesAreFlagged) {
  auto tree = metrics_tree();
  tree.push_back({"src/serve/server.cpp",
                  "void h() { counter(\"lru.hits\").add(1); }\n"
                  "void bad() { counter(\"CacheHits\").add(1); }\n"});
  const Report report = analyze_sources(tree, "metrics");
  const auto ks = keys(report);
  ASSERT_EQ(ks.size(), 2u) << testing::PrintToString(ks);
  EXPECT_EQ(ks[0], "metrics/name:lru.hits:multi-owner");
  EXPECT_EQ(ks[1], "metrics/name:CacheHits:format");
}

TEST(Metrics, ReadOnlyValueCallsAreReferencesNotDefinitions) {
  // A src/ read of an undefined counter is exactly the silent-zero bug.
  const std::vector<SourceFile> tree = {
      {"src/core/lru.cpp", "void h() { counter(\"lru.hits\").add(1); }\n"},
      {"src/core/report.cpp",
       "double r() { return counter(\"lru.hist\").value(); }\n"},
  };
  const Report report = analyze_sources(tree, "metrics");
  const auto ks = keys(report);
  // Both the near-miss (hits~hist at distance 1... they differ by one
  // substitution) and the undefined read fire — either alone pins the bug.
  EXPECT_NE(std::find(ks.begin(), ks.end(), "metrics/name:lru.hist:undefined"), ks.end())
      << testing::PrintToString(ks);
}

TEST(Metrics, SamplerCountersResolveAcrossOwnerAndReader) {
  // The PR-10 sampling counters mirror the real topology: defined once in
  // sim/window_sampler.cpp, read as sweep watermarks by core/sweep.cpp.
  // The cross-file read is exactly the silent-zero shape the pass guards.
  const std::vector<SourceFile> tree = {
      {"src/sim/window_sampler.cpp",
       "void f() { registry.counter(\"sim.sampled_windows\").add(1);\n"
       "  registry.double_counter(\"sim.sampling_rel_error\").add(e); }\n"},
      {"src/core/sweep.cpp",
       "bool g() { return reg.counter(\"sim.sampled_windows\").value() > 0; }\n"
       "double h() { return reg.double_counter(\"sim.sampling_rel_error\").value(); }\n"},
  };
  EXPECT_TRUE(analyze_sources(tree, "metrics").findings.empty());
  // A truncated read of the error counter no longer resolves. (The bad
  // name is assembled at runtime: a metric-shaped literal here would be
  // an undefined reference in the repo's own self-scan below.)
  const std::string trunc = std::string("sim") + ".sampling_rel";
  auto typo = tree;
  typo[1].content = "double h() { return reg.double_counter(\"" + trunc + "\").value(); }\n";
  const auto ks = keys(analyze_sources(typo, "metrics"));
  EXPECT_NE(std::find(ks.begin(), ks.end(), "metrics/name:" + trunc + ":undefined"), ks.end())
      << testing::PrintToString(ks);
}

// ---------------------------------------------------------- pass: layering --

TEST(Layering, UtilIncludingUpperLayerIsFlagged) {
  const std::vector<SourceFile> tree = {
      {"src/util/metrics.cpp",
       "#include \"util/metrics.hpp\"\n"
       "#include \"serve/protocol.hpp\"\n"},
      {"src/util/metrics.hpp", "#pragma once\n"},
      {"src/serve/protocol.hpp", "#pragma once\n"},
  };
  const Report report = analyze_sources(tree, "layering");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_EQ(report.findings[0].pass, "layering");
  EXPECT_EQ(report.findings[0].file, "src/util/metrics.cpp");
  EXPECT_EQ(report.findings[0].line, 2u);
  EXPECT_NE(report.findings[0].message.find("util/ must not include serve/"),
            std::string::npos);
}

TEST(Layering, AllowedEdgesAndSystemHeadersPass) {
  const std::vector<SourceFile> tree = {
      {"src/serve/server.cpp",
       "#include <vector>\n"
       "#include \"core/sweep.hpp\"\n"
       "#include \"util/metrics.hpp\"\n"},
      {"src/core/sweep.cpp", "#include \"sim/memory_system.hpp\"\n"},
      {"tools/analyze.cpp", "#include \"lexer.hpp\"\n"},
      {"tools/lexer.hpp", "#pragma once\n"},
  };
  EXPECT_TRUE(analyze_sources(tree, "layering").findings.empty());
}

TEST(Layering, IncludeCycleIsFlaggedOnce) {
  const std::vector<SourceFile> tree = {
      {"src/core/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
      {"src/core/b.hpp", "#pragma once\n#include \"core/a.hpp\"\n"},
  };
  const Report report = analyze_sources(tree, "layering");
  ASSERT_EQ(report.findings.size(), 1u) << testing::PrintToString(keys(report));
  EXPECT_NE(report.findings[0].key.find("cycle:"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("src/core/a.hpp"), std::string::npos);
  EXPECT_NE(report.findings[0].message.find("src/core/b.hpp"), std::string::npos);
}

// ------------------------------------------------------------- rule table --

TEST(LintRules, TableListsEverySupportedRule) {
  // The per-line rules are passes, listed after the four cross-file ones.
  const std::vector<std::string> expected = {"rng",           "thread-ownership",
                                             "float-print",   "guarded-mutex",
                                             "pragma-once",   "no-endl"};
  const auto& table = opm::analyze::passes();
  ASSERT_EQ(table.size(), 4 + expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(table[4 + i].id, expected[i]);
    EXPECT_NE(std::string(table[4 + i].summary), "");
  }
}

// --------------------------------------------------------------------- rng --

TEST(LintRng, FlagsLibcRandomness) {
  const std::string src = R"(
int f() { return rand(); }
void g(unsigned s) { srand(s); }
long h() { return std::rand() + ::time(nullptr); }
int dev() { std::random_device rd; return rd(); }
)";
  const auto findings = check_source("src/core/foo.cpp", src, "rng");
  EXPECT_EQ(rule_ids(findings), std::vector<std::string>(5, "rng"));
}

TEST(LintRng, IgnoresLookalikes) {
  const std::string src = R"(
auto t = clock.now().time_since_epoch();
double w = wall_time();
int x = obj.rand();
int y = mytime::time(3);
// rand() in a comment is fine
const char* s = "rand() in a string is fine";
)";
  EXPECT_TRUE(check_source("src/core/foo.cpp", src, "rng").empty());
}

TEST(LintRng, ExemptsTheRngImplementation) {
  const std::string src = "int f() { std::random_device rd; return rd(); }\n";
  EXPECT_FALSE(check_source("src/core/foo.cpp", src, "rng").empty());
  EXPECT_TRUE(check_source("src/util/rng.cpp", src, "rng").empty());
  EXPECT_TRUE(
      check_source("src/util/rng.hpp", "#pragma once\nstd::random_device rd;\n", "rng").empty());
}

// -------------------------------------------------------- thread-ownership --

TEST(LintThreadOwnership, FlagsRawThreads) {
  const std::string src = R"(
std::thread t([] {});
std::jthread j([] {});
std::vector<std::thread> pool;
)";
  const auto findings = check_source("src/core/foo.cpp", src, "thread-ownership");
  EXPECT_EQ(rule_ids(findings),
            std::vector<std::string>(3, "thread-ownership"));
}

TEST(LintThreadOwnership, AllowsStaticMembersAndOwners) {
  const std::string src = "unsigned n = std::thread::hardware_concurrency();\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", src, "thread-ownership").empty());

  const std::string spawn = "std::thread t([] {});\n";
  EXPECT_TRUE(check_source("src/util/thread_pool.cpp", spawn, "thread-ownership").empty());
  EXPECT_TRUE(check_source("src/serve/server.cpp", spawn, "thread-ownership").empty());
  EXPECT_FALSE(check_source("src/core/sweep.cpp", spawn, "thread-ownership").empty());
}

// ------------------------------------------------------------- float-print --

TEST(LintFloatPrint, FlagsDecimalConversionsInSerializationPaths) {
  const std::string src = R"(
std::snprintf(buf, sizeof buf, "%f", v);
std::snprintf(buf, sizeof buf, "%.17g", v);
std::snprintf(buf, sizeof buf, "%-12.3E", v);
std::string s = std::to_string(v);
)";
  const auto findings = check_source("src/serve/protocol.cpp", src, "float-print");
  EXPECT_EQ(rule_ids(findings), std::vector<std::string>(4, "float-print"));
}

TEST(LintFloatPrint, HexFloatAndEscapedPercentArePermitted) {
  const std::string src = R"(
std::snprintf(buf, sizeof buf, "%a", v);
std::snprintf(buf, sizeof buf, "100%% of %d", n);
)";
  EXPECT_TRUE(check_source("src/core/sweep.cpp", src, "float-print").empty());
}

TEST(LintFloatPrint, OnlyAppliesToSerializationPaths) {
  const std::string src = "std::string s = std::to_string(v);\n";
  EXPECT_FALSE(check_source("src/core/result_cache.cpp", src, "float-print").empty());
  EXPECT_FALSE(check_source("src/core/experiment.cpp", src, "float-print").empty());
  EXPECT_TRUE(check_source("src/util/metrics.cpp", src, "float-print").empty());
  EXPECT_TRUE(check_source("bench/serve_loadgen.cpp", src, "float-print").empty());
}

// ----------------------------------------------------------- guarded-mutex --

TEST(LintGuardedMutex, FlagsUnannotatedMutexMembers) {
  const std::string src = R"(
class Queue {
 public:
  void push(int v);
 private:
  std::mutex mutex;
  int depth = 0;
};
)";
  const auto findings =
      check_source("src/core/foo.hpp", "#pragma once\n" + src, "guarded-mutex");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "guarded-mutex");
}

TEST(LintGuardedMutex, AnnotatedClassesPass) {
  const std::string src = R"(#pragma once
struct Queue {
  util::Mutex mutex;
  int depth OPM_GUARDED_BY(mutex) = 0;
};
struct Wrapper {
  Mutex& mu_;
};
void local_scope() {
  std::mutex scratch;
}
)";
  EXPECT_TRUE(check_source("src/core/foo.hpp", src, "guarded-mutex").empty());
}

TEST(LintGuardedMutex, OnlyAppliesUnderSrc) {
  const std::string src = R"(
struct Fixture {
  std::mutex mutex;
};
)";
  EXPECT_FALSE(check_source("src/core/foo.cpp", src, "guarded-mutex").empty());
  EXPECT_TRUE(check_source("tests/test_foo.cpp", src, "guarded-mutex").empty());
  EXPECT_TRUE(check_source("bench/foo.cpp", src, "guarded-mutex").empty());
}

// ------------------------------------------------------------- pragma-once --

TEST(LintPragmaOnce, HeadersMustCarryIt) {
  const auto findings = check_source("src/core/foo.hpp", "struct S {};\n", "pragma-once");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "pragma-once");
  EXPECT_EQ(findings[0].line, 1u);

  EXPECT_TRUE(
      check_source("src/core/foo.hpp", "#pragma once\nstruct S {};\n", "pragma-once").empty());
  EXPECT_TRUE(check_source("src/core/foo.cpp", "struct S {};\n", "pragma-once").empty());
}

// ----------------------------------------------------------------- no-endl --

TEST(LintNoEndl, FlagsEndlInSrcOnly) {
  const std::string src = "void f() { std::cout << 1 << std::endl; }\n";
  const auto findings = check_source("src/core/foo.cpp", src, "no-endl");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "no-endl");
  EXPECT_TRUE(check_source("bench/foo.cpp", src, "no-endl").empty());
}

// ----------------------------------------------------------------- markers --

TEST(LintAllow, SuppressesExactlyTheNamedRules) {
  const std::string one =
      "int f() { return rand(); }  // opm-lint: allow(rng)\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", one, "").empty());

  const std::string multi =
      "std::thread t([] { srand(1); });  // opm-lint: allow(rng, thread-ownership)\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", multi, "").empty());

  const std::string wrong =
      "int f() { return rand(); }  // opm-lint: allow(no-endl)\n";
  EXPECT_FALSE(check_source("src/core/foo.cpp", wrong, "").empty());

  // The hatch is per-line: the next line is still checked.
  const std::string next_line =
      "int f() { return rand(); }  // opm-lint: allow(rng)\nint g() { return rand(); }\n";
  const auto findings = check_source("src/core/foo.cpp", next_line, "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintAllow, MarkerInsideStringLiteralIsData) {
  // A marker spelled inside a string literal is content, not a
  // suppression — otherwise any file echoing lint syntax (this test!)
  // would silently disable its own checks.
  const std::string in_string =
      "const char* s = \"// opm-lint: allow(rng)\"; int x = rand();\n";
  const auto findings = check_source("src/core/foo.cpp", in_string, "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "rng");

  const std::string in_raw =
      "const char* s = R\"(// opm-lint: allow(rng))\"; int x = rand();\n";
  EXPECT_EQ(check_source("src/core/foo.cpp", in_raw, "").size(), 1u);
}

TEST(LintAllow, MarkerInsideBlockCommentIsIgnored) {
  // Only the trailing line comment is a hatch; block comments are prose.
  const std::string block =
      "int x = rand(); /* opm-lint: allow(rng) */\n";
  ASSERT_EQ(check_source("src/core/foo.cpp", block, "").size(), 1u);

  // And a real line-comment hatch still works when a block comment also
  // sits on the line.
  const std::string both =
      "int x = rand(); /* noise */ // opm-lint: allow(rng)\n";
  EXPECT_TRUE(check_source("src/core/foo.cpp", both, "").empty());
}

TEST(Markers, MarkerThatSilencesNothingIsAFinding) {
  // A live marker is not a finding...
  EXPECT_TRUE(check_source("src/core/foo.cpp",
                           "int f() { return rand(); }  // opm-lint: allow(rng)\n", "")
                  .empty());

  // ...but a marker naming the wrong pass is, next to the finding it
  // failed to silence.
  auto findings = check_source(
      "src/core/foo.cpp", "int f() { return rand(); }  // opm-lint: allow(no-endl)\n", "");
  ASSERT_EQ(rule_ids(findings), (std::vector<std::string>{"no-endl", "rng"}));
  EXPECT_NE(findings[0].message.find("stale marker"), std::string::npos);
  EXPECT_EQ(findings[0].line, 1u);

  // An id that is no pass at all.
  findings = check_source("src/core/foo.cpp",
                          "int f() { return 1; }  // opm-lint: allow(rgn)\n", "");
  ASSERT_EQ(rule_ids(findings), std::vector<std::string>{"marker"});
  EXPECT_NE(findings[0].message.find("\"rgn\""), std::string::npos);

  // A marker one line away from its finding silences nothing.
  findings = check_source("src/core/foo.cpp",
                          "// opm-lint: allow(rng)\nint f() { return rand(); }\n", "");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].pass, "rng");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("stale marker"), std::string::npos);
  EXPECT_EQ(findings[1].pass, "rng");
  EXPECT_EQ(findings[1].line, 2u);
}

TEST(Markers, PassFilterChecksOnlyMarkersNamingThatPass) {
  const std::string src =
      "int f() { return rand(); }  // opm-lint: allow(rng, no-endl, rgn)\n";
  EXPECT_EQ(rule_ids(check_source("src/core/foo.cpp", src, "")),
            (std::vector<std::string>{"marker", "no-endl"}));
  EXPECT_TRUE(check_source("src/core/foo.cpp", src, "rng").empty());
  EXPECT_EQ(rule_ids(check_source("src/core/foo.cpp", src, "no-endl")),
            std::vector<std::string>{"no-endl"});
  EXPECT_TRUE(check_source("src/core/foo.cpp", src, "layering").empty());
}

TEST(Markers, CrossFileFindingsAreSilencedOnTheirOwnLine) {
  // The marker is the one suppression mechanism for every pass: a
  // layering finding sits on its #include line.
  std::vector<SourceFile> tree = {
      {"src/util/bad.cpp", "#include \"serve/protocol.hpp\"\n"},
      {"src/serve/protocol.hpp", "#pragma once\n"},
  };
  ASSERT_EQ(analyze_sources(tree).findings.size(), 1u);
  tree[0].content = "#include \"serve/protocol.hpp\"  // opm-lint: allow(layering)\n";
  EXPECT_TRUE(analyze_sources(tree).findings.empty())
      << testing::PrintToString(keys(analyze_sources(tree)));
}

// ----------------------------------------------------- lexer corner cases --

TEST(LintLexer, CommentsStringsAndRawStringsAreNotCode) {
  const std::string src = R"XX(
// std::thread t; rand();
/* std::endl
   srand(7); */
const char* a = "rand() and std::endl";
const char* b = R"(std::thread inside raw string; rand();)";
char c = '"';
int after_char_literal = rand();
)XX";
  const auto findings = check_source("src/core/foo.cpp", src, "");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].pass, "rng");
  EXPECT_EQ(findings[0].line, 8u);
}

// --------------------------------------------------------------------- CLI --

struct TempTree {
  std::filesystem::path root;
  TempTree() {
    root = std::filesystem::temp_directory_path() /
           ("opm_analyze_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root / "src/util");
    std::filesystem::create_directories(root / "src/serve");
  }
  ~TempTree() { std::filesystem::remove_all(root); }
  void write(const std::string& rel, const std::string& content) {
    std::ofstream(root / rel) << content;
  }
};

TEST(AnalyzeCli, ExitContractCleanFindingsUsage) {
  TempTree tree;
  tree.write("src/util/a.cpp", "int x = 0;\n");
  // Walked directories contribute C++ sources only.
  tree.write("src/util/notes.txt", "rand() in a txt file is not scanned\n");
  std::ostringstream out, err;

  EXPECT_EQ(opm::analyze::run({(tree.root / "src").string()}, out, err), 0);
  EXPECT_NE(out.str().find("opm_analyze: clean"), std::string::npos);

  tree.write("src/util/bad.cpp", "#include \"serve/x.hpp\"\n");
  out.str("");
  EXPECT_EQ(opm::analyze::run({(tree.root / "src").string()}, out, err), 1);
  EXPECT_NE(out.str().find("[layering]"), std::string::npos);

  EXPECT_EQ(opm::analyze::run({}, out, err), 2);
  EXPECT_EQ(opm::analyze::run({"--format=json", "x"}, out, err), 2);
  EXPECT_EQ(opm::analyze::run({"--pass=nope", "x"}, out, err), 2);
  EXPECT_EQ(opm::analyze::run({(tree.root / "missing").string()}, out, err), 2);
}

TEST(AnalyzeCli, ListPassesNamesAllFour) {
  // Named for the four cross-file passes it first listed; the six
  // per-line rules are passes too.
  std::ostringstream out, err;
  EXPECT_EQ(opm::analyze::run({"--list-passes"}, out, err), 0);
  for (const char* id : {"lock-order", "protocol", "metrics", "layering", "rng",
                         "thread-ownership", "float-print", "guarded-mutex", "pragma-once",
                         "no-endl"})
    EXPECT_NE(out.str().find(id), std::string::npos) << id;
}

// ------------------------------------------------------------- self-check --
//
// The repo's own tree must be clean: the same invocation ci.sh runs,
// from the repo root with relative roots. Path scopes match substrings
// such as "src/", so absolute roots under a checkout that itself sits
// below some "src/" directory would put tests/ in src/'s scope. (Skip
// quietly when the sources are not where a source build puts them.)

TEST(AnalyzeSelf, RepoTreeIsClean) {
  const std::filesystem::path repo = std::filesystem::path(OPM_SOURCE_DIR);
  if (!std::filesystem::exists(repo / "src")) GTEST_SKIP();
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(repo);
  std::vector<std::string> roots = {"src", "tools", "bench", "tests"};
  for (const char* f : {"docs/MODEL.md", "scripts/ci.sh"})
    if (std::filesystem::exists(f)) roots.push_back(f);
  std::ostringstream out, err;
  const int rc = opm::analyze::run(roots, out, err);
  std::filesystem::current_path(cwd);
  EXPECT_EQ(rc, 0) << out.str();
}

}  // namespace
