// Command-line driver, implemented as a library so it is unit-testable
// (the tools/mvsim binary is a three-line main). `mvsim help` lists
// every verb and flag.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mvsim::cli {

/// Runs one CLI invocation. `args` excludes the program name. Output
/// goes to `out`, diagnostics to `err`. Returns the process exit code
/// (0 success, 1 usage error, 2 runtime failure).
int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace mvsim::cli
