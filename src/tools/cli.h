#ifndef ANONSAFE_TOOLS_CLI_H_
#define ANONSAFE_TOOLS_CLI_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace anonsafe {

/// \brief Parsed command line: a subcommand, positional arguments, and
/// `--key=value` flags.
struct CliInvocation {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
};

/// \brief Parses argv-style tokens (excluding the program name).
/// Flags take the form `--key=value` or boolean `--key`; anything else is
/// positional. The first positional token is the subcommand.
/// Fails with InvalidArgument when no subcommand is present.
Result<CliInvocation> ParseCli(const std::vector<std::string>& args);

/// \brief Reads a double flag with a default; InvalidArgument on garbage.
Result<double> FlagAsDouble(const CliInvocation& cli, const std::string& key,
                            double default_value);

/// \brief Reads a uint64 flag with a default; InvalidArgument on garbage.
Result<uint64_t> FlagAsUint64(const CliInvocation& cli,
                              const std::string& key,
                              uint64_t default_value);

/// \brief Executes a parsed invocation, writing human-readable output to
/// `out`. CliUsage() lists the subcommands and the global flags
/// (`--trace*`, `--metrics-out`, `--log-*`); the flags of the compute
/// commands are their serve twins' request params spelled with dashes,
/// decoded by the same functions (serve/registry.h). Returns the first
/// error encountered; `out` receives partial output.
Status RunCli(const CliInvocation& cli, std::ostream& out);

/// \brief Usage text.
std::string CliUsage();

}  // namespace anonsafe

#endif  // ANONSAFE_TOOLS_CLI_H_
