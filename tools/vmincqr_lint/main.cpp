// CLI driver for vmincqr_lint.
//
// Usage:
//   vmincqr_lint [options] <file-or-dir>...
//
// Options:
//   --rules               print every rule table and exit
//   --layers=FILE         layering DAG config; enables the layer-violation
//                         rule (pass 1) and the call-level layering rule
//                         (pass 3) for directory arguments
//   --include-root=DIR    root against which quoted includes resolve for the
//                         cross-file passes (default: first directory arg)
//   --exclude=SUBSTR      drop collected files whose path contains SUBSTR
//                         (repeatable; e.g. --exclude=lint_fixtures)
//   --budget-ms=N         fail (exit 1) if the whole run exceeds N ms — the
//                         semantic pass must never slow the tier-1 suite
//
// The cross-file passes (1 and 3) run whenever at least one argument is a
// directory (or --include-root is given); the per-TU rules always run.
//
// Exit status: 0 when clean, 1 on any diagnostic (or blown budget), 2 on
// usage/IO errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "include_graph.hpp"
#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

void collect(const fs::path& root, std::vector<std::string>& files) {
  if (fs::is_directory(root)) {
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() &&
          vmincqr::lint::is_lintable(entry.path().string())) {
        files.push_back(entry.path().string());
      }
    }
  } else {
    files.push_back(root.string());
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("vmincqr_lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: vmincqr_lint [--rules] [--layers=FILE] "
               "[--include-root=DIR] [--exclude=SUBSTR]... [--budget-ms=N] "
               "<file-or-dir>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  std::string layers_path;
  std::string include_root;
  std::vector<std::string> excludes;
  long budget_ms = -1;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rules") {
      for (const auto* table : {&vmincqr::lint::rule_table(),
                                &vmincqr::lint::graph_rule_table(),
                                &vmincqr::lint::callgraph_rule_table()}) {
        for (const auto& rule : *table) {
          std::printf("%-28s %s\n", rule.id, rule.rationale);
        }
      }
      return 0;
    }
    if (arg.rfind("--layers=", 0) == 0) {
      layers_path = arg.substr(9);
      continue;
    }
    if (arg.rfind("--include-root=", 0) == 0) {
      include_root = arg.substr(15);
      continue;
    }
    if (arg.rfind("--exclude=", 0) == 0) {
      excludes.push_back(arg.substr(10));
      continue;
    }
    if (arg.rfind("--budget-ms=", 0) == 0) {
      try {
        budget_ms = std::stol(arg.substr(12));
      } catch (const std::exception&) {
        return usage();
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) return usage();
    paths.push_back(arg);
  }
  if (paths.empty()) return usage();

  std::vector<std::string> files;
  std::vector<std::string> dir_args;
  try {
    for (const auto& p : paths) {
      if (fs::is_directory(p)) dir_args.push_back(p);
      collect(p, files);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmincqr_lint: %s\n", e.what());
    return 2;
  }
  files.erase(std::remove_if(files.begin(), files.end(),
                             [&](const std::string& f) {
                               for (const auto& sub : excludes) {
                                 if (f.find(sub) != std::string::npos) {
                                   return true;
                                 }
                               }
                               return false;
                             }),
              files.end());
  std::sort(files.begin(), files.end());
  if (include_root.empty() && !dir_args.empty()) include_root = dir_args[0];

  std::vector<vmincqr::lint::Diagnostic> diagnostics;
  try {
    // Pass 2: per-TU rules, one pool task per file (the linter dogfoods the
    // deterministic pool). lint_files sorts by (file, line, rule, message),
    // so output is byte-identical at every thread width.
    diagnostics = vmincqr::lint::lint_files(files);

    // Passes 1 and 3 need the whole file set with root-relative paths.
    if (!include_root.empty()) {
      vmincqr::lint::LayerConfig config;
      if (!layers_path.empty()) {
        config = vmincqr::lint::load_layers(layers_path);
      }
      const fs::path root = fs::absolute(include_root);
      std::vector<vmincqr::lint::SourceFile> sources;
      for (const auto& file : files) {
        const fs::path abs = fs::absolute(file);
        sources.push_back({file,
                           abs.lexically_relative(root).generic_string(),
                           read_file(file)});
      }
      std::sort(sources.begin(), sources.end(),
                [](const vmincqr::lint::SourceFile& a,
                   const vmincqr::lint::SourceFile& b) {
                  return a.rel < b.rel;
                });
      for (auto& d : vmincqr::lint::analyze_include_graph(sources, config)) {
        diagnostics.push_back(std::move(d));
      }
      for (auto& d : vmincqr::lint::analyze_call_graph(sources, config)) {
        diagnostics.push_back(std::move(d));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmincqr_lint: %s\n", e.what());
    return 2;
  }

  for (const auto& d : diagnostics) {
    std::printf("%s\n", vmincqr::lint::format(d).c_str());
  }

  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (budget_ms >= 0 && elapsed_ms > budget_ms) {
    std::fprintf(stderr,
                 "vmincqr_lint: run took %lld ms, over the %ld ms budget\n",
                 static_cast<long long>(elapsed_ms), budget_ms);
    return 1;
  }

  if (!diagnostics.empty()) {
    std::fprintf(stderr, "vmincqr_lint: %zu finding(s) in %zu file(s)\n",
                 diagnostics.size(), files.size());
    return 1;
  }
  std::printf("vmincqr_lint: %zu file(s) clean\n", files.size());
  return 0;
}
