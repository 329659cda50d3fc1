// The symfail command-line tool.
//
// Subcommands:
//   campaign  — run a fleet campaign, print the headline figures, and
//               optionally dump the raw logs and CSV artifacts
//   analyze   — re-run the full analysis pipeline over logs on disk
//   forum     — run the web-forum study (Table 1)
//   tables    — print the paper's reference taxonomies
//
// `runCli` is the testable entry point; main() forwards to it.
#pragma once

#include <string>
#include <vector>

#include "experiment/grid.hpp"

namespace symfail::cli {

/// Executes the tool.  `args` excludes the program name.  Output goes to
/// stdout/stderr; the return value is the process exit code.
int runCli(const std::vector<std::string>& args);

/// The campaign cell a subcommand runs: `defaults` (the subcommand's own
/// fleet size and length) with every axis flag in `args` applied, each
/// read with the bounds of its grid key (`experiment::axes()`).  Throws
/// std::runtime_error on a malformed or out-of-bounds value.
[[nodiscard]] experiment::Cell campaignCell(const std::vector<std::string>& args,
                                            experiment::Cell defaults);

}  // namespace symfail::cli
