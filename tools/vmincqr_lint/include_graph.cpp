#include "include_graph.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "token.hpp"

namespace vmincqr::lint {
namespace {

namespace fs = std::filesystem;

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Parses `["a", "b"]` into a vector; throws on anything else.
std::vector<std::string> parse_string_list(const std::string& raw,
                                           std::size_t line_no) {
  const std::string s = trim(raw);
  if (s.size() < 2 || s.front() != '[' || s.back() != ']') {
    throw std::runtime_error("layers.toml:" + std::to_string(line_no) +
                             ": expected a [\"...\"] list");
  }
  std::vector<std::string> out;
  std::string body = s.substr(1, s.size() - 2);
  std::stringstream ss(body);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (item.empty()) continue;
    if (item.size() < 2 || item.front() != '"' || item.back() != '"') {
      throw std::runtime_error("layers.toml:" + std::to_string(line_no) +
                               ": list items must be quoted strings");
    }
    out.push_back(item.substr(1, item.size() - 2));
  }
  return out;
}

/// One direct quoted include of a file: resolved target plus source line.
struct IncludeEdge {
  std::string target;  // include string as written, e.g. "data/split.hpp"
  std::size_t line;
};

std::vector<IncludeEdge> quoted_includes(const Unit& unit) {
  std::vector<IncludeEdge> out;
  for (const auto& [line, text] : unit.directives) {
    // Normalized directive text: `#include "x/y.hpp"` or `# include ...`.
    auto pos = text.find("include");
    if (pos == std::string::npos || text[0] != '#') continue;
    const auto open = text.find('"', pos);
    if (open == std::string::npos) continue;
    const auto close = text.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back({text.substr(open + 1, close - open - 1), line});
  }
  return out;
}

bool is_header(const std::string& rel) {
  return rel.size() >= 4 && rel.compare(rel.size() - 4, 4, ".hpp") == 0;
}

}  // namespace

std::string LayerConfig::module_of(const std::string& rel) const {
  std::string best;
  std::size_t best_len = 0;
  for (const auto& m : modules) {
    for (const auto& prefix : m.prefixes) {
      const bool match = prefix == rel || (!prefix.empty() &&
                                           prefix.back() == '/' &&
                                           rel.rfind(prefix, 0) == 0);
      if (match && prefix.size() >= best_len) {
        best = m.name;
        best_len = prefix.size();
      }
    }
  }
  return best;
}

bool LayerConfig::edge_allowed(const std::string& from,
                               const std::string& to) const {
  if (from == to) return true;
  for (const auto& [name, list] : allowed) {
    if (name != from) continue;
    return std::find(list.begin(), list.end(), to) != list.end();
  }
  return false;
}

LayerConfig parse_layers(const std::string& toml_text) {
  LayerConfig config;
  std::stringstream ss(toml_text);
  std::string raw;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(ss, raw)) {
    ++line_no;
    std::string line = trim(raw);
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = trim(line.substr(0, hash));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("layers.toml:" + std::to_string(line_no) +
                                 ": unterminated section header");
      }
      section = trim(line.substr(1, line.size() - 2));
      if (section != "modules" && section != "allow" &&
          section != "call_forbidden") {
        throw std::runtime_error(
            "layers.toml:" + std::to_string(line_no) + ": unknown section [" +
            section +
            "] (expected [modules], [allow], or [call_forbidden])");
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || section.empty()) {
      throw std::runtime_error("layers.toml:" + std::to_string(line_no) +
                               ": expected `name = [\"...\"]`");
    }
    const std::string key = trim(line.substr(0, eq));
    const auto values = parse_string_list(line.substr(eq + 1), line_no);
    if (section == "modules") {
      config.modules.push_back({key, values});
    } else if (section == "allow") {
      config.allowed.emplace_back(key, values);
    } else {
      config.call_forbidden.emplace_back(key, values);
    }
  }
  // Validate: every [allow] key and value must be a declared module, and
  // every [call_forbidden] key too (its values are symbol names, not
  // modules, so they are free-form).
  std::set<std::string> known;
  for (const auto& m : config.modules) known.insert(m.name);
  for (const auto& [name, list] : config.allowed) {
    if (known.count(name) == 0) {
      throw std::runtime_error("layers.toml: [allow] entry '" + name +
                               "' is not a declared module");
    }
    for (const auto& dep : list) {
      if (known.count(dep) == 0) {
        throw std::runtime_error("layers.toml: '" + name +
                                 "' allows unknown module '" + dep + "'");
      }
    }
  }
  for (const auto& [name, list] : config.call_forbidden) {
    (void)list;
    if (known.count(name) == 0) {
      throw std::runtime_error("layers.toml: [call_forbidden] entry '" +
                               name + "' is not a declared module");
    }
  }
  return config;
}

LayerConfig load_layers(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("vmincqr_lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_layers(ss.str());
}

std::vector<Diagnostic> analyze_include_graph(
    const std::vector<SourceFile>& files, const LayerConfig& config) {
  std::vector<Diagnostic> out;

  // Per-file tokenization and include lists.
  std::map<std::string, std::size_t> by_rel;
  for (std::size_t i = 0; i < files.size(); ++i) by_rel[files[i].rel] = i;
  std::vector<Unit> units;
  std::vector<std::vector<IncludeEdge>> includes;
  units.reserve(files.size());
  includes.reserve(files.size());
  for (const auto& f : files) {
    units.push_back(tokenize(f.content));
    includes.push_back(quoted_includes(units.back()));
  }

  auto report = [&](std::size_t file_idx, const char* rule, std::size_t line,
                    std::string message) {
    if (is_allowed(units[file_idx], rule, line)) return;
    out.push_back({files[file_idx].display, line, rule, std::move(message)});
  };

  // --- layer-violation --------------------------------------------------
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string from = config.module_of(files[i].rel);
    if (from.empty()) continue;
    for (const auto& inc : includes[i]) {
      const std::string to = config.module_of(inc.target);
      if (to.empty() || config.edge_allowed(from, to)) continue;
      report(i, "layer-violation", inc.line,
             "module '" + from + "' must not include '" + inc.target +
                 "' (module '" + to +
                 "'); the layering DAG in layers.toml has no '" + from +
                 "' -> '" + to + "' edge");
    }
  }

  // --- include-cycle ----------------------------------------------------
  // DFS over the header-only subgraph; each distinct cycle is reported once,
  // anchored at its lexicographically smallest member.
  {
    std::set<std::vector<std::string>> seen_cycles;
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::vector<std::string> stack;

    std::function<void(const std::string&)> dfs =
        [&](const std::string& rel) {
          color[rel] = 1;
          stack.push_back(rel);
          const std::size_t idx = by_rel.at(rel);
          for (const auto& inc : includes[idx]) {
            const auto it = by_rel.find(inc.target);
            if (it == by_rel.end() || !is_header(inc.target)) continue;
            const int c = color[inc.target];
            if (c == 0) {
              dfs(inc.target);
            } else if (c == 1) {
              // Cycle: stack suffix from inc.target to rel.
              auto at = std::find(stack.begin(), stack.end(), inc.target);
              std::vector<std::string> cycle(at, stack.end());
              auto smallest = std::min_element(cycle.begin(), cycle.end());
              std::rotate(cycle.begin(), smallest, cycle.end());
              if (seen_cycles.insert(cycle).second) {
                std::string path_desc;
                for (const auto& member : cycle) {
                  path_desc += member + " -> ";
                }
                path_desc += cycle.front();
                report(idx, "include-cycle", inc.line,
                       "header include cycle: " + path_desc);
              }
            }
          }
          stack.pop_back();
          color[rel] = 2;
        };

    for (const auto& f : files) {
      if (is_header(f.rel) && color[f.rel] == 0) dfs(f.rel);
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  return out;
}

std::vector<SourceFile> read_source_tree(const std::string& root) {
  std::vector<SourceFile> files;
  const fs::path base(root);
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) {
      throw std::runtime_error("vmincqr_lint: cannot read " +
                               entry.path().string());
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back({entry.path().string(),
                     entry.path().lexically_relative(base).generic_string(),
                     ss.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  return files;
}

}  // namespace vmincqr::lint
