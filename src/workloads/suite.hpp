/**
 * @file
 * Workload suites: named kernel configurations standing in for the
 * paper's four benchmark collections (SPEC CPU2006, CRONO graph suite,
 * STARBENCH embedded suite, NPB scientific suite) plus the 4-thread
 * multiprogrammed mixes of section V-A. Each ".syn" workload imitates
 * the dominant access-pattern mix of the program it is named after;
 * DESIGN.md section 2 records the substitution rationale.
 */

#ifndef DOL_WORKLOADS_SUITE_HPP
#define DOL_WORKLOADS_SUITE_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"

namespace dol
{

struct WorkloadSpec
{
    std::string name;
    std::string suite;
    std::function<std::unique_ptr<Kernel>(MemoryImage &)> factory;
};

/** The 21 SPEC-like single-core workloads (Figure 8's x-axis). */
const std::vector<WorkloadSpec> &speclikeSuite();

/** Graph workloads (CRONO stand-in). */
const std::vector<WorkloadSpec> &cronoSuite();

/** Embedded/streaming workloads (STARBENCH stand-in). */
const std::vector<WorkloadSpec> &starbenchSuite();

/** Scientific workloads (NPB stand-in). */
const std::vector<WorkloadSpec> &npbSuite();

/**
 * Temporal-correlation workloads: repeated irregular traversal
 * orders, shuffled-list re-traversals, and history-dependent
 * sequences — the patterns the temporal/pointer-chase extras target.
 */
const std::vector<WorkloadSpec> &temporalSuite();

/** Every single-core workload, all suites concatenated. */
const std::vector<WorkloadSpec> &allWorkloads();

/**
 * ChampSim trace workloads (`--suite trace`): one champSimWorkload
 * per `*.champsim` / `*.champsim.xz` file in $DOL_TRACE_DIR (default
 * `tests/traces`), sorted by filename. Empty when the directory does
 * not exist. Deliberately NOT folded into allWorkloads(): the set
 * depends on the working directory, and `--suite all` / makeMixes()
 * must stay byte-deterministic regardless of where dolsim runs.
 */
const std::vector<WorkloadSpec> &traceSuite();

/**
 * The `trace:<stem>` workload of the ChampSim trace at @p path: each
 * kernel decodes the file into a looping ReplayKernel (fatal on a
 * malformed trace).
 */
WorkloadSpec champSimWorkload(const std::string &path);

/** Find a workload by name, searching the synthetic suites then the
 *  trace suite (fatal on unknown). */
const WorkloadSpec &findWorkload(const std::string &name);

} // namespace dol

#endif // DOL_WORKLOADS_SUITE_HPP
