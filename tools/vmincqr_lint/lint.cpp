#include "lint.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "concurrency.hpp"
#include "core/experiment.hpp"
#include "dataflow.hpp"
#include "token.hpp"

namespace vmincqr::lint {
namespace {

struct Ctx {
  const std::string& path;
  const Unit& unit;
  std::vector<Diagnostic>& out;

  void report(const char* rule, std::size_t line, std::string message) const {
    out.push_back({path, line, rule, std::move(message)});
  }
};

/// no-rand: libc rand()/srand() is not reproducible across platforms; all
/// randomness must flow through rng::Rng so experiments are seed-stable.
void rule_no_rand(const Ctx& ctx) {
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text != "rand" && t[i].text != "srand") continue;
    if (t[i + 1].text != "(") continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
    // An identifier right before means this is a declaration ("int rand();"),
    // not a call; std::rand() still fires because the previous token is "::",
    // and "return rand()" fires because statement keywords are not types.
    static const std::set<std::string> stmt_keywords = {
        "return", "co_return", "co_yield", "else",  "do",    "case",
        "throw",  "new",       "delete",   "sizeof", "while", "and",
        "or",     "not"};
    if (i > 0 && t[i - 1].kind == TokKind::kIdent &&
        stmt_keywords.count(t[i - 1].text) == 0) {
      continue;
    }
    ctx.report("no-rand", t[i].line,
               "use rng::Rng instead of libc " + t[i].text + "()");
  }
}

const std::set<std::string>& raw_thread_names() {
  static const std::set<std::string> names = {
      "thread",       "jthread", "async",   "atomic",
      "atomic_flag",  "mutex",   "shared_mutex", "recursive_mutex",
      "condition_variable", "condition_variable_any",
      "future",       "promise", "packaged_task",
      "barrier",      "latch",   "counting_semaphore", "binary_semaphore"};
  return names;
}

/// raw-thread: raw std threading primitives are only legal inside
/// src/parallel/ — everywhere else concurrency must go through the
/// deterministic pool (parallel_for / parallel_deterministic_reduce), so
/// the bit-exactness contract stays auditable in one directory.
void rule_raw_thread(const Ctx& ctx) {
  if (ctx.path.find("parallel/") != std::string::npos) return;
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "std") continue;
    if (t[i + 1].text != "::") continue;
    if (raw_thread_names().count(t[i + 2].text) == 0) continue;
    ctx.report("raw-thread", t[i].line,
               "raw 'std::" + t[i + 2].text +
                   "' outside src/parallel/; use the deterministic pool "
                   "(parallel/parallel_for.hpp) so thread-count invariance "
                   "stays provable");
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> table = {
      {"no-rand", "libc rand()/srand() breaks seed-stable experiments"},
      {"calib-leakage",
       "calibration rows must never reach fit(); leakage voids the "
       "conformal coverage guarantee"},
      {"seed-reuse",
       "one seed must not construct two RNGs in one scope; correlated "
       "streams break exchangeability"},
      {"unseeded-rng",
       "every RNG takes an explicit seed; std::random_device and "
       "default-constructed engines are nondeterministic"},
      {"raw-thread",
       "raw std::thread/std::async/std::atomic only inside src/parallel/; "
       "all other code uses the deterministic pool"},
      {"shared-mutable-capture",
       "no unindexed writes to by-reference captures inside parallel bodies; "
       "concurrent chunks race on shared state"},
      {"nondeterministic-reduce",
       "no accumulation into by-reference captures inside parallel bodies; "
       "reductions go through parallel_deterministic_reduce's fixed-order "
       "combine"},
      {"rng-in-parallel",
       "RNGs inside parallel bodies must be forked per chunk; otherwise the "
       "stream order depends on the schedule"},
      {"unordered-iteration",
       "no iteration over std::unordered_{map,set}; hash order is not "
       "reproducible across platforms or loads"},
      {"clock-in-hot-path",
       "wall-clock reads only in bench/ and tools/; timing must never steer "
       "library results"},
      {"atomic-outside-parallel",
       "<atomic>/<mutex>-family includes and unqualified atomic uses only "
       "inside src/parallel/ (closes the raw-thread gap)"},
  };
  return table;
}

const std::vector<RuleInfo>& graph_rule_table() {
  static const std::vector<RuleInfo> table = {
      {"layer-violation",
       "include edges must follow the layering DAG declared in layers.toml"},
      {"include-cycle", "project headers must form an acyclic include graph"},
  };
  return table;
}

const std::vector<RuleInfo>& callgraph_rule_table() {
  static const std::vector<RuleInfo> table = {
      {"mutable-static-in-parallel",
       "no non-const function-local statics in functions reachable from "
       "parallel bodies; concurrent chunks race on their state"},
      {"call-layer-violation",
       "modules listed in layers.toml [call_forbidden] must not transitively "
       "call the named training symbols, even through legal includes"},
  };
  return table;
}

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content) {
  const Unit unit = tokenize(content);
  std::vector<Diagnostic> raw;
  const Ctx ctx{path, unit, raw};
  rule_no_rand(ctx);
  rule_raw_thread(ctx);
  for (auto& d : dataflow_rules(path, unit)) raw.push_back(std::move(d));
  for (auto& d : concurrency_rules(path, unit)) raw.push_back(std::move(d));

  // Apply per-line suppressions: same line or the line directly above.
  std::vector<Diagnostic> kept;
  for (auto& d : raw) {
    if (!is_allowed(unit, d.rule, d.line)) kept.push_back(std::move(d));
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return kept;
}

std::vector<Diagnostic> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("vmincqr_lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path, ss.str());
}

std::vector<Diagnostic> lint_files(const std::vector<std::string>& paths) {
  // Dogfood the deterministic pool: one task per TU. Each task is a pure
  // function of its file, and the final order is a total sort, so the
  // merged diagnostics are byte-identical at every thread width (asserted
  // by lint.ParallelLintIsByteIdenticalAcrossThreadWidths).
  const auto per_file = core::parallel_map<std::vector<Diagnostic>>(
      paths.size(),
      [&](std::size_t i) { return lint_file(paths[i]); });
  std::vector<Diagnostic> out;
  for (const auto& ds : per_file) out.insert(out.end(), ds.begin(), ds.end());
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

bool is_lintable(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  return ext == ".hpp" || ext == ".cpp";
}

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

}  // namespace vmincqr::lint
