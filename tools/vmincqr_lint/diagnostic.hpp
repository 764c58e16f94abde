// The one currency every analyzer pass trades in: a (file, line, rule,
// message) finding, printed as `file:line: [rule] message`.
#pragma once

#include <cstddef>
#include <string>

namespace vmincqr::lint {

/// One finding. `line` is 1-based, matching compiler diagnostics, so editors
/// can jump straight to it from `file:line:` output.
struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Renders a diagnostic as `file:line: [rule] message`.
std::string format(const Diagnostic& d);

}  // namespace vmincqr::lint
