/**
 * @file
 * Small, strictly-validating helpers for command-line parsing.
 *
 * dolsim's flag handling routes every numeric or list-valued flag
 * through these functions so malformed input ("-4" jobs, "1e3"
 * instruction counts, empty file paths) is rejected with a message
 * instead of silently truncating through strtoul. Kept in the runner
 * library (not the tool) so unit tests can exercise each rule.
 */

#ifndef DOL_RUNNER_CLI_HPP
#define DOL_RUNNER_CLI_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace dol::runner
{

/** Split on commas, skipping empty tokens ("TPC,,SPP" -> 2 names). */
std::vector<std::string> splitCommas(const std::string &value);

/**
 * Parse a strictly non-negative decimal integer: every character a
 * digit, at least one digit, no overflow past 2^64-1.
 * @return false (out untouched) on any violation — including a
 *         leading '-' or '+', whitespace, hex, or exponents.
 */
bool parseUnsigned(const std::string &text, std::uint64_t &out);

/**
 * parseUnsigned with an inclusive upper bound (e.g. a jobs cap);
 * false when out of range.
 */
bool parseUnsignedInRange(const std::string &text, std::uint64_t min,
                          std::uint64_t max, std::uint64_t &out);

/**
 * Parse a --coordinator mode name. "hardwired" selects the paper's
 * fixed T2->P1->C1 policy, "adaptive" the feedback-driven one;
 * anything else — including the empty string — is rejected so a typo
 * can never silently fall back to the default policy.
 * @return false (out untouched) on an unknown mode.
 */
bool parseCoordinatorMode(const std::string &text, bool &adaptive_out);

/**
 * Parse a --shard value "i/N": N a count in [1, 65536], i an index in
 * [0, N). Both halves go through parseUnsigned, so "1/3x", "-1/3",
 * "3/3" and "0/0" are rejected.
 * @return false (outs untouched) on any violation.
 */
bool parseShard(const std::string &text, std::uint64_t &index_out,
                std::uint64_t &count_out);

/**
 * Per-cell trace file name for multi-cell sweeps:
 * "<base>.<workload>.<prefetcher><variant>", with every '/' in the
 * workload and prefetcher names mapped to '-'. Single-cell sweeps use
 * @p base verbatim (callers special-case that).
 */
std::string cellTracePath(const std::string &base,
                          const std::string &workload,
                          const std::string &prefetcher,
                          const std::string &variant);

} // namespace dol::runner

#endif // DOL_RUNNER_CLI_HPP
