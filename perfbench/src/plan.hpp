/**
 * @file
 * Workload plans.  A plan is a pure function of (workload, seed): the
 * kernels and their scale parameters, which reloads flush the decoded
 * caches, the sampled programs, and the service job mix with its
 * arrival rate.  The program under test only ever sees the generated
 * inputs.
 *
 * Every workload drives all three stages -- interface sweep, sampled
 * simulation, service daemon -- because every end-to-end metric is
 * reported on every workload.  A workload gives most of the run to its
 * own stage and sets the cache regime of all three: iface_sweep reuses
 * decoded caches, sampled flushes them the way restored windows do,
 * service_mix mixes both.
 */

#ifndef PERFBENCH_PLAN_HPP
#define PERFBENCH_PLAN_HPP

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

/** One program image: what KernelBuilder needs to make it. */
struct ProgramKey
{
    std::string isa;
    std::string kernel;
    uint64_t param = 0;

    bool
    operator==(const ProgramKey &o) const
    {
        return std::tie(isa, kernel, param) ==
               std::tie(o.isa, o.kernel, o.param);
    }

    bool
    operator<(const ProgramKey &o) const
    {
        return std::tie(isa, kernel, param) <
               std::tie(o.isa, o.kernel, o.param);
    }
};

/** The four Table II interfaces every workload measures. */
struct Cell
{
    const char *buildset;
    const char *tag; ///< metric suffix: mips_<tag>
};
inline constexpr Cell kCells[] = {
    {"BlockMinNo", "block_min"},
    {"OneMinNo", "one_min"},
    {"OneAllYes", "one_all_spec"},
    {"StepAllYes", "step_all_spec"},
};
inline constexpr unsigned kNumCells = 4;

struct IfacePlan
{
    std::vector<ProgramKey> programs;
    /** Per program: flush decoded caches before every reload. */
    std::vector<bool> flush;
};

struct SampledPlan
{
    std::vector<ProgramKey> programs; ///< small, then large footprint
    uint64_t windowInstrs = 500;   ///< window:period is 1:100
    uint64_t periodInstrs = 50000;
    const char *detailed = "StepAllNo"; ///< timing windows
    const char *fast = "BlockMinNo";    ///< fast-forward between them
};

struct ServiceJob
{
    ProgramKey program;
    std::string buildset;
    uint64_t sliceInstrs = 0; ///< 0: never preempted
    bool repeated = false;    ///< image shared with other jobs
};

struct ServicePlan
{
    std::vector<ServiceJob> open;   ///< one open-loop round, in order
    std::vector<ServiceJob> closed; ///< one closed-loop round
    double rateHz = 0.0;            ///< fixed open-loop arrival rate
    unsigned inFlight = 0;          ///< closed-loop concurrency
    unsigned workers = 0;           ///< daemon pool width
};

struct Plan
{
    std::string workload;
    uint64_t seed = 0;
    /** Share of the measured time per stage: iface, sampled, service. */
    double share[3] = {0, 0, 0};
    IfacePlan iface;
    SampledPlan sampled;
    ServicePlan service;
};

/** Names of the workloads makePlan() accepts. */
const std::vector<std::string> &workloadNames();

/** The plan for @p workload at @p seed; throws on an unknown name. */
Plan makePlan(const std::string &workload, uint64_t seed,
              unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HPP
