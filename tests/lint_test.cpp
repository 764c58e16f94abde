// Golden-file tests for vmincqr_lint: each fixture in tests/lint_fixtures/
// makes exactly one rule fire and suppressions silence diagnostics. That the
// real src/ tree is clean under all three passes (the include-graph pass,
// the per-TU seed, calibration and concurrency rules, and the cross-TU
// call-graph pass) is the `lint_tree_clean` ctest, which runs the linter
// binary itself over src/. Suite names are lowercase so `ctest -R lint`
// selects every linter-related test.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "include_graph.hpp"
#include "lint.hpp"
#include "parallel/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using vmincqr::lint::analyze_call_graph;
using vmincqr::lint::analyze_include_graph;
using vmincqr::lint::CallGraph;
using vmincqr::lint::Diagnostic;
using vmincqr::lint::LayerConfig;
using vmincqr::lint::lint_file;
using vmincqr::lint::lint_source;
using vmincqr::lint::load_layers;
using vmincqr::lint::parse_layers;
using vmincqr::lint::read_source_tree;
using vmincqr::lint::SourceFile;

std::string fixture(const std::string& name) {
  return std::string(VMINCQR_LINT_FIXTURE_DIR) + "/" + name;
}

std::string layering_dir() {
  return std::string(VMINCQR_LINT_FIXTURE_DIR) + "/layering";
}

std::string callgraph_dir() {
  return std::string(VMINCQR_LINT_FIXTURE_DIR) + "/callgraph";
}

std::vector<Diagnostic> analyze_callgraph_fixture() {
  return analyze_call_graph(read_source_tree(callgraph_dir()),
                            load_layers(callgraph_dir() + "/layers.toml"));
}

std::vector<Diagnostic> analyze_layering_fixture() {
  return analyze_include_graph(read_source_tree(layering_dir()),
                               load_layers(layering_dir() + "/layers.toml"));
}

struct GoldenCase {
  const char* file;
  const char* rule;
};

// One fixture per rule; the linter must fire exactly once, with the right id.
const GoldenCase kGolden[] = {
    {"no_rand.cpp", "no-rand"},
    {"calib_leakage.cpp", "calib-leakage"},
    {"seed_reuse.cpp", "seed-reuse"},
    {"unseeded_rng.cpp", "unseeded-rng"},
    {"raw_thread.cpp", "raw-thread"},
    {"shared_mutable_capture.cpp", "shared-mutable-capture"},
    {"nondeterministic_reduce.cpp", "nondeterministic-reduce"},
    {"rng_in_parallel.cpp", "rng-in-parallel"},
    {"unordered_iteration.cpp", "unordered-iteration"},
    {"clock_in_hot_path.cpp", "clock-in-hot-path"},
    {"atomic_outside_parallel.cpp", "atomic-outside-parallel"},
};

TEST(lint, EveryRuleFiresExactlyOnceOnItsFixture) {
  for (const auto& test_case : kGolden) {
    const auto diags = lint_file(fixture(test_case.file));
    ASSERT_EQ(diags.size(), 1u)
        << test_case.file << ": expected exactly one diagnostic, got "
        << diags.size();
    EXPECT_EQ(diags[0].rule, test_case.rule) << test_case.file;
    EXPECT_GT(diags[0].line, 0u);
  }
}

TEST(lint, FixturesCoverEveryRuleInTheTable) {
  std::set<std::string> fired;
  for (const auto& test_case : kGolden) fired.insert(test_case.rule);
  for (const auto& rule : vmincqr::lint::rule_table()) {
    EXPECT_TRUE(fired.count(rule.id) == 1)
        << "rule '" << rule.id << "' has no golden fixture";
  }
  EXPECT_EQ(fired.size(), vmincqr::lint::rule_table().size());
}

TEST(lint, RuleIdsAreUniqueAcrossAllTables) {
  std::set<std::string> ids;
  for (const auto& rule : vmincqr::lint::rule_table()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
  }
  for (const auto& rule : vmincqr::lint::graph_rule_table()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
  }
  for (const auto& rule : vmincqr::lint::callgraph_rule_table()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
  }
}

TEST(lint, SuppressionsSilenceSameLineAndPreviousLine) {
  EXPECT_TRUE(lint_file(fixture("suppressed.cpp")).empty());
}

TEST(lint, CleanFileProducesNoDiagnostics) {
  EXPECT_TRUE(lint_file(fixture("clean.cpp")).empty());
}

TEST(lint, SuppressionIsPerRule) {
  // An allow() for a different rule must not silence the finding.
  const std::string src =
      "int f() {\n"
      "  return rand() % 7;  // vmincqr-lint: allow(raw-thread)\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "no-rand");
}

TEST(lint, CommentsAndStringsAreNotCode) {
  const std::string src =
      "// rand() and std::endl in comments are fine\n"
      "const char* s = \"x == 0.0 and rand()\";\n"
      "/* block: y != 1.5 */\n";
  EXPECT_TRUE(lint_source("probe.cpp", src).empty());
}

TEST(lint, FormatIsFileLineRuleMessage) {
  const Diagnostic d{"a/b.cpp", 12, "no-rand", "msg"};
  EXPECT_EQ(vmincqr::lint::format(d), "a/b.cpp:12: [no-rand] msg");
}

// --- dataflow rules -------------------------------------------------------

TEST(lint, CalibLeakageNegativeFixtureIsClean) {
  EXPECT_TRUE(lint_file(fixture("calib_leakage_ok.cpp")).empty());
}

TEST(lint, SeedReuseNegativeFixtureIsClean) {
  EXPECT_TRUE(lint_file(fixture("seed_reuse_ok.cpp")).empty());
}

TEST(lint, CalibLeakagePropagatesThroughAssignments) {
  // Two hops: calib rows -> holdout -> x; the fit() three statements later
  // must still fire.
  const std::string src =
      "void train(Model& m, const Split& s) {\n"
      "  Matrix holdout = s.x_calib;\n"
      "  Matrix x = holdout;\n"
      "  m.fit(x, s.train_y);\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "calib-leakage");
  EXPECT_EQ(diags[0].line, 4u);
}

TEST(lint, SeedReuseComparesVariableSeedsToo) {
  const std::string src =
      "void run(unsigned seed) {\n"
      "  Rng a(seed);\n"
      "  Rng b(seed);\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "seed-reuse");
}

TEST(lint, RawThreadFlagsEveryBannedPrimitive) {
  const std::string src =
      "void f() {\n"
      "  auto fut = std::async([] { return 1; });\n"
      "  std::atomic<int> counter{0};\n"
      "  std::mutex m;\n"
      "}\n";
  const auto diags = lint_source("src/models/probe.cpp", src);
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "raw-thread");
}

TEST(lint, RawThreadIsLegalInsideTheParallelDirectory) {
  const std::string src =
      "#include <thread>\n"
      "void pool() {\n"
      "  std::thread worker([] {});\n"
      "  std::mutex m;\n"
      "  worker.join();\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/parallel/thread_pool.cpp", src).empty());
}

TEST(lint, UnseededRngFlagsRandomDevice) {
  const std::string src =
      "unsigned entropy() {\n"
      "  std::random_device rd;\n"
      "  return rd();\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unseeded-rng");
}

// --- concurrency & determinism rules -------------------------------------

TEST(lint, ConcurrencyNegativeFixtureIsClean) {
  EXPECT_TRUE(lint_file(fixture("concurrency_ok.cpp")).empty());
}

TEST(lint, ByValueCaptureOfPointerLikeHandleIsNotShared) {
  // The capture-list false-positive case: the lambda owns a copy of the
  // handle, so mutating the copy (or writing through it per chunk) is not
  // shared state.
  const std::string src =
      "void advance(Cursor cur, std::size_t n) {\n"
      "  parallel::parallel_for(n, 64,\n"
      "      [cur](std::size_t b, std::size_t e) mutable {\n"
      "        cur.offset = b;\n"
      "        consume(cur, e);\n"
      "      });\n"
      "}\n";
  EXPECT_TRUE(lint_source("probe.cpp", src).empty());
}

TEST(lint, SharedMutableCaptureSeesWritesThroughDefaultRefCapture) {
  const std::string src =
      "void f(Stats& stats, std::size_t n) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    stats.last_chunk = b + e;\n"
      "  });\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "shared-mutable-capture");
  EXPECT_EQ(diags[0].line, 3u);
}

TEST(lint, SharedMutableCaptureSeesContainerMutation) {
  const std::string src =
      "void f(std::vector<double>& results, std::size_t n) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    results.push_back(static_cast<double>(b + e));\n"
      "  });\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "shared-mutable-capture");
}

TEST(lint, NondeterministicReduceFlagsPostfixIncrement) {
  const std::string src =
      "void f(std::size_t n, std::size_t& hits) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    if (b < e) hits++;\n"
      "  });\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "nondeterministic-reduce");
}

TEST(lint, ChunkLocalAccumulationInsideReduceIsClean) {
  const std::string src =
      "double f(const std::vector<double>& xs) {\n"
      "  return parallel::parallel_deterministic_reduce(\n"
      "      xs.size(), 64, 0.0,\n"
      "      [&](std::size_t b, std::size_t e) {\n"
      "        double acc = 0.0;\n"
      "        for (std::size_t i = b; i < e; ++i) acc += xs[i];\n"
      "        return acc;\n"
      "      },\n"
      "      [](double a, double b) { return a + b; });\n"
      "}\n";
  EXPECT_TRUE(lint_source("probe.cpp", src).empty());
}

TEST(lint, RngInParallelFlagsScheduleIndependentSeedOnly) {
  // A fixed seed inside the body replays the same stream in every chunk (or
  // shares one); a chunk-derived seed is the sanctioned idiom.
  const std::string fixed =
      "void f(std::size_t n, std::vector<double>& out) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    Rng r(1234);\n"
      "    fill(r, out, b, e);\n"
      "  });\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", fixed);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "rng-in-parallel");

  const std::string per_chunk =
      "void f(std::size_t n, std::uint64_t seed,\n"
      "       std::vector<double>& out) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    Rng r(seed + b);\n"
      "    fill(r, out, b, e);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("probe.cpp", per_chunk).empty());
}

TEST(lint, RngInParallelFlagsForkInsideBody) {
  // Rng::fork() advances the parent's fork counter, so the i-th child goes
  // to whichever chunk the scheduler ran i-th.
  const std::string src =
      "void f(std::size_t n, rng::Rng& base, std::vector<double>& out) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    scatter(base.fork(), out, b, e);\n"
      "  });\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "rng-in-parallel");
}

TEST(lint, UnorderedIterationFlagsExplicitBeginWalk) {
  const std::string src =
      "void f(const std::unordered_set<int>& seen) {\n"
      "  auto it = seen.begin();\n"
      "  consume(it);\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unordered-iteration");
}

TEST(lint, UnorderedLookupWithoutIterationIsClean) {
  // Point lookups do not observe the hash order; only iteration does.
  const std::string src =
      "bool f(const std::unordered_set<int>& seen, int key) {\n"
      "  return seen.count(key) > 0;\n"
      "}\n";
  EXPECT_TRUE(lint_source("probe.cpp", src).empty());
}

TEST(lint, ClockIsLegalInBenchAndToolsPaths) {
  const std::string src =
      "long long f() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  EXPECT_TRUE(lint_source("bench/probe.cpp", src).empty());
  EXPECT_TRUE(lint_source("tools/probe/probe.cpp", src).empty());
  const auto diags = lint_source("src/core/probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "clock-in-hot-path");
}

TEST(lint, UnqualifiedAtomicIsLegalOnlyInsideParallel) {
  // Unqualified names slip past raw-thread (which keys on `std::`); the
  // atomic-outside-parallel rule closes that gap everywhere but src/parallel/.
  const std::string src =
      "void f() {\n"
      "  atomic<int> counter{0};\n"
      "  bump(counter);\n"
      "}\n";
  const auto diags = lint_source("src/models/probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "atomic-outside-parallel");
  EXPECT_TRUE(lint_source("src/parallel/queue.cpp", src).empty());
}

TEST(lint, MultiDeclaratorLocalsAreNotSharedState) {
  // Regression: `double g = 0.0, h = 0.0;` and `vector<double> a(n), b(n);`
  // declare chunk-locals for every declarator, including the ones after an
  // initializer — writes to the second name must not be flagged (this shape
  // appears verbatim in the tree/ordered-boost split searches).
  const std::string src =
      "void f(std::size_t n, const std::vector<double>& grad,\n"
      "       const std::vector<double>& hess) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    std::vector<double> g_acc(n), h_acc(n);\n"
      "    double g_left = 0.0, h_left = 0.0;\n"
      "    for (std::size_t i = b; i < e; ++i) {\n"
      "      g_left += grad[i];\n"
      "      h_left += hess[i];\n"
      "      g_acc[i] = g_left;\n"
      "      h_acc[i] = h_left;\n"
      "    }\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("probe.cpp", src).empty());
}

TEST(lint, ConcurrencyFindingsHonorAllowSuppressions) {
  const std::string src =
      "void f(std::size_t n, double& shared_total) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    // vmincqr-lint: allow(nondeterministic-reduce)\n"
      "    shared_total += static_cast<double>(e - b);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_source("probe.cpp", src).empty());
}

// --- parallel linting (dogfooding the deterministic pool) -----------------

std::vector<std::string> lintable_fixture_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(VMINCQR_LINT_FIXTURE_DIR)) {
    const std::string path = entry.path().generic_string();
    if (entry.is_regular_file() && vmincqr::lint::is_lintable(path)) {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(lint, LintFilesSortsDiagnosticsByFileThenLine) {
  // Inputs deliberately out of order; the merged stream must come back
  // sorted by (file, line, rule, message) regardless.
  const std::vector<std::string> files = {fixture("seed_reuse.cpp"),
                                          fixture("calib_leakage.cpp")};
  const auto diags = vmincqr::lint::lint_files(files);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_NE(diags[0].file.find("calib_leakage"), std::string::npos);
  EXPECT_NE(diags[1].file.find("seed_reuse"), std::string::npos);
}

TEST(lint, ParallelLintIsByteIdenticalAcrossThreadWidths) {
  const std::vector<std::string> files = lintable_fixture_files();
  ASSERT_GT(files.size(), 10u);
  auto render = [&files] {
    std::string text;
    for (const auto& d : vmincqr::lint::lint_files(files)) {
      text += vmincqr::lint::format(d) + "\n";
    }
    return text;
  };
  vmincqr::parallel::set_max_threads(1);
  const std::string narrow = render();
  vmincqr::parallel::set_max_threads(8);
  const std::string wide = render();
  vmincqr::parallel::set_max_threads(0);  // restore env/hardware resolution
  EXPECT_EQ(narrow, wide);
  // The comparison is meaningful only if the run actually found things.
  EXPECT_NE(narrow.find(": ["), std::string::npos);
}

// --- include-graph rules --------------------------------------------------

TEST(lint, LayeringFixtureFiresEachGraphRuleExactlyOnce) {
  const auto diags = analyze_layering_fixture();
  ASSERT_EQ(diags.size(), 2u);
  std::set<std::string> fired;
  for (const auto& d : diags) fired.insert(d.rule);
  EXPECT_EQ(fired,
            (std::set<std::string>{"layer-violation", "include-cycle"}));
  for (const auto& rule : vmincqr::lint::graph_rule_table()) {
    EXPECT_TRUE(fired.count(rule.id) == 1)
        << "graph rule '" << rule.id << "' has no layering fixture";
  }
}

TEST(lint, LayerViolationNamesBothModules) {
  for (const auto& d : analyze_layering_fixture()) {
    if (d.rule != "layer-violation") continue;
    EXPECT_NE(d.message.find("'low'"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("'high'"), std::string::npos) << d.message;
    EXPECT_NE(d.file.find("bad.hpp"), std::string::npos) << d.file;
  }
}

TEST(lint, ModuleOfPrefersTheLongestPrefixAndExactFiles) {
  const LayerConfig config = parse_layers(
      "[modules]\n"
      "core_base = [\"core/units.hpp\"]\n"
      "core_app  = [\"core/\"]\n"
      "[allow]\n"
      "core_base = []\n"
      "core_app  = [\"core_base\"]\n");
  EXPECT_EQ(config.module_of("core/units.hpp"), "core_base");
  EXPECT_EQ(config.module_of("core/pipeline.hpp"), "core_app");
  EXPECT_EQ(config.module_of("elsewhere/x.hpp"), "");
  EXPECT_TRUE(config.edge_allowed("core_app", "core_app"));  // self-edge
  EXPECT_TRUE(config.edge_allowed("core_app", "core_base"));
  EXPECT_FALSE(config.edge_allowed("core_base", "core_app"));
}

TEST(lint, ParseLayersRejectsMalformedInput) {
  EXPECT_THROW(parse_layers("[typo]\n"), std::runtime_error);
  EXPECT_THROW(parse_layers("[modules]\na = not-a-list\n"),
               std::runtime_error);
  EXPECT_THROW(parse_layers("[modules]\na = [\"a/\"]\n[allow]\nb = []\n"),
               std::runtime_error);
  EXPECT_THROW(parse_layers("[modules]\na = [\"a/\"]\n[allow]\na = [\"b\"]\n"),
               std::runtime_error);
}

// --- cross-TU call graph -------------------------------------------------
// ("Phase4" in a test name means the call-graph pass.)

TEST(lint, CallGraphFixtureFiresEveryPhase4RuleExactlyOnce) {
  const auto diags = analyze_callgraph_fixture();
  std::string dump;
  for (const auto& d : diags) dump += vmincqr::lint::format(d) + "\n";
  ASSERT_EQ(diags.size(), 3u) << dump;
  std::set<std::string> fired;
  for (const auto& d : diags) {
    EXPECT_TRUE(fired.insert(d.rule).second)
        << "rule fired twice: " << d.rule << "\n" << dump;
  }
  // The transitive RNG rule deliberately reuses the per-TU id, so the
  // expected set is the callgraph table plus rng-in-parallel.
  std::set<std::string> expected = {"rng-in-parallel"};
  for (const auto& rule : vmincqr::lint::callgraph_rule_table()) {
    expected.insert(rule.id);
  }
  EXPECT_EQ(fired, expected) << dump;
}

TEST(lint, CallLayerViolationAnchorsAtTheServeRoot) {
  bool seen = false;
  for (const auto& d : analyze_callgraph_fixture()) {
    if (d.rule != "call-layer-violation") continue;
    seen = true;
    // Reported against the serve-module root's first call edge, not the TU
    // that textually contains the fit() call.
    EXPECT_NE(d.file.find("serve/handler.cpp"), std::string::npos) << d.file;
    EXPECT_NE(d.message.find("'handle_request'"), std::string::npos);
    EXPECT_NE(d.message.find("module 'serve'"), std::string::npos);
    EXPECT_NE(d.message.find("handle_request -> refresh_model -> fit"),
              std::string::npos)
        << d.message;
  }
  EXPECT_TRUE(seen);
}

TEST(lint, TransitiveParallelFindingsNameTheReachedHelpers) {
  for (const auto& d : analyze_callgraph_fixture()) {
    if (d.rule == "mutable-static-in-parallel") {
      EXPECT_NE(d.file.find("core/kernels.cpp"), std::string::npos) << d.file;
      EXPECT_NE(d.message.find("'bump_counter'"), std::string::npos);
    }
    if (d.rule == "rng-in-parallel") {
      EXPECT_NE(d.file.find("core/kernels.cpp"), std::string::npos) << d.file;
      EXPECT_NE(d.message.find("'draw_noise'"), std::string::npos);
      EXPECT_NE(d.message.find("hardcoded seed"), std::string::npos);
    }
  }
}

TEST(lint, CallGraphResolvesOverloadsByArityWithConservativeFallback) {
  const std::vector<SourceFile> files = {
      {"a.cpp", "a.cpp",
       "double scale(double x) { return x; }\n"
       "double scale(double x, double y) { return x + y; }\n"
       "double use1(double v) { return scale(v); }\n"
       "double use3(double v) { return scale(v, v, v); }\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  ASSERT_EQ(g.defs().size(), 4u);
  bool saw_exact = false;
  bool saw_fallback = false;
  for (const auto& c : g.calls()) {
    if (c.name != "scale") continue;
    if (c.arity == 1) {
      saw_exact = true;
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0}));
    }
    if (c.arity == 3) {
      // No overload admits 3 arguments: the call falls back to the whole
      // visible set rather than silently dropping the edge.
      saw_fallback = true;
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0, 1}));
    }
  }
  EXPECT_TRUE(saw_exact);
  EXPECT_TRUE(saw_fallback);
}

TEST(lint, CallGraphPrefersMemberAndQualifiedDefinitions) {
  const std::vector<SourceFile> files = {
      {"m.cpp", "m.cpp",
       "struct Model {\n"
       "  double update(double x) { return x; }\n"
       "};\n"
       "double update(double x) { return x + 1.0; }\n"
       "double use_member(Model& m, double v) { return m.update(v); }\n"
       "double use_qualified(double v) { return Model::update(v); }\n"
       "double use_free(double v) { return update(v); }\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  ASSERT_EQ(g.defs().size(), 5u);
  EXPECT_EQ(g.defs()[0].display, "Model::update");
  for (const auto& c : g.calls()) {
    if (c.name != "update") continue;
    if (c.member || c.qualifier == "Model") {
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0}));
    } else {
      // An unqualified call cannot rule the member out: both survive.
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0, 1}));
    }
  }
}

TEST(lint, CallGraphTreatsExternalCallsAsLeaves) {
  const std::vector<SourceFile> files = {
      {"x.cpp", "x.cpp",
       "double probe(std::vector<double>& xs, double v) {\n"
       "  std::sort(xs.begin(), xs.end());\n"
       "  return mystery_helper(v);\n"
       "}\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  bool saw_unresolved = false;
  for (const auto& c : g.calls()) {
    EXPECT_NE(c.name, "sort");  // std:: never enters the graph
    if (c.name == "mystery_helper") {
      saw_unresolved = true;
      EXPECT_TRUE(c.callees.empty());
    }
  }
  EXPECT_TRUE(saw_unresolved);
}

TEST(lint, ReachabilityTerminatesOnCycles) {
  const std::vector<SourceFile> files = {
      {"c.cpp", "c.cpp",
       "double ping(double x) { return pong(x) + 1.0; }\n"
       "double pong(double x) { return ping(x) - 1.0; }\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  ASSERT_EQ(g.defs().size(), 2u);
  EXPECT_EQ(g.reachable_from({0}), (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(g.reachable_from({1}), (std::set<std::size_t>{0, 1}));
}

TEST(lint, LayerVisibilityScopesCallResolution) {
  const LayerConfig cfg = parse_layers(
      "[modules]\n"
      "low  = [\"low/\"]\n"
      "high = [\"high/\"]\n"
      "[allow]\n"
      "low  = []\n"
      "high = [\"low\"]\n");
  const std::vector<SourceFile> files = {
      {"low/a.cpp", "low/a.cpp", "double helper(double x) { return x; }\n"},
      {"high/b.cpp", "high/b.cpp",
       "double helper(double x) { return x * 2.0; }\n"
       "double drive(double v) { return helper(v); }\n"},
      {"low/c.cpp", "low/c.cpp",
       "double blind(double v) { return helper(v); }\n"}};
  const CallGraph g = CallGraph::build(files, cfg);
  for (const auto& c : g.calls()) {
    if (c.name != "helper") continue;
    if (g.module_of_tu(c.tu) == "high") {
      // high may include low: both definitions stay candidates.
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0, 1}));
    } else {
      // low cannot include high, so the high-module overload is invisible.
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0}));
    }
  }
}

TEST(lint, Phase4NegativeShapesStayClean) {
  // A parameter-derived seed and a const static are both deterministic
  // under any schedule; neither transitive rule may fire.
  const std::string src =
      "double seeded_noise(double seed) {\n"
      "  Rng r(seed);\n"
      "  return r.next();\n"
      "}\n"
      "double counting(double x) {\n"
      "  static const double kBase = 1.0;\n"
      "  return x + kBase;\n"
      "}\n"
      "void drive(std::size_t n) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    consume(seeded_noise(static_cast<double>(b)),\n"
      "            counting(static_cast<double>(e)));\n"
      "  });\n"
      "}\n";
  for (const auto& d :
       analyze_call_graph({{"p.cpp", "p.cpp", src}}, LayerConfig{})) {
    ADD_FAILURE() << vmincqr::lint::format(d);
  }
}

TEST(lint, Phase4FindingsHonorAllowSuppressions) {
  const std::string body =
      "  static double cache = 0.0;\n"
      "  cache += x;\n"
      "  return cache;\n"
      "}\n"
      "void drive(std::size_t n) {\n"
      "  parallel::parallel_for(n, 64, [&](std::size_t b, std::size_t e) {\n"
      "    consume(hot_static(static_cast<double>(b)));\n"
      "  });\n"
      "}\n";
  const std::string bad = "double hot_static(double x) {\n" + body;
  const auto fired = analyze_call_graph({{"p.cpp", "p.cpp", bad}}, LayerConfig{});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "mutable-static-in-parallel");
  const std::string suppressed =
      "double hot_static(double x) {\n"
      "  // vmincqr-lint: allow(mutable-static-in-parallel)\n" +
      body;
  EXPECT_TRUE(
      analyze_call_graph({{"p.cpp", "p.cpp", suppressed}}, LayerConfig{})
          .empty());
}

TEST(lint, CallGraphDiagnosticsAreByteIdenticalAcrossThreadWidths) {
  auto render = [] {
    std::string text;
    for (const auto& d : analyze_callgraph_fixture()) {
      text += vmincqr::lint::format(d) + "\n";
    }
    return text;
  };
  vmincqr::parallel::set_max_threads(1);
  const std::string narrow = render();
  vmincqr::parallel::set_max_threads(8);
  const std::string wide = render();
  vmincqr::parallel::set_max_threads(0);  // restore env/hardware resolution
  EXPECT_EQ(narrow, wide);
  // The comparison is meaningful only if the run actually found things.
  EXPECT_NE(narrow.find("[call-layer-violation]"), std::string::npos);
}

}  // namespace
