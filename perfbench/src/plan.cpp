#include "plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

const char *const kIsas[] = {"alpha64", "arm32", "ppc32"};

/** Cache regime and time split of one workload. */
struct Regime
{
    const char *name;
    double share[3];      ///< iface, sampled, service
    double ifaceFlush;    ///< share of sweep programs reloaded cold
    double repeatShare;   ///< service jobs that reuse a hot image
    double slicedShare;   ///< service jobs cut into preempted slices
    double rateHz;        ///< open-loop arrivals, about half capacity
};

// The open-loop rates are fixed absolute numbers, set to about half the
// closed-loop capacity this code measured on a 4-thread x86-64 host.
// They are part of the benchmark's definition: never recalibrate them
// from a run, or a faster daemon would simply be offered more work.
const Regime kRegimes[] = {
    {"iface_sweep", {0.4, 0.3, 0.3}, 0.0, 0.8, 0.1, 300.0},
    {"sampled", {0.2, 0.5, 0.3}, 1.0, 0.2, 0.4, 300.0},
    {"service_mix", {0.2, 0.3, 0.5}, 0.5, 0.5, 0.25, 300.0},
};

/** Sweep kernels at about 100k dynamic instructions per run: branchy
 *  short-block ones and long-block or large-footprint ones.  Short runs
 *  make many rounds, and so many chances of a quiet host, in a run. */
const std::pair<const char *, uint64_t> kSweepKernels[] = {
    {"fib", 12600},  {"listsum", 960}, {"matmul", 17},
    {"crc32", 710}, {"sieve", 3950},
};

/** Service kernels at about 100k dynamic instructions per job. */
const std::pair<const char *, uint64_t> kJobKernels[] = {
    {"fib", 12500},   {"crc32", 700},     {"sieve", 3900},
    {"listsum", 950}, {"strhash", 1250},
};
const char *const kJobBuildsets[] = {"BlockMinNo", "OneMinNo"};
constexpr uint64_t kSliceInstrs = 40000; ///< two preemptions per job
constexpr unsigned kHotImages = 6;
constexpr unsigned kOpenJobs = 256;
constexpr unsigned kClosedJobs = 64;

const Regime &
regimeFor(const std::string &workload)
{
    for (const Regime &r : kRegimes)
        if (workload == r.name)
            return r;
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * @p n jobs with a fixed composition: exactly the regime's shares of
 * repeated and sliced jobs, repeated jobs cycling over the hot images,
 * unique ones over every (ISA, kernel) pair, and both interfaces in
 * equal numbers.  The seed picks which jobs are sliced and the order.
 */
std::vector<ServiceJob>
makeJobs(Rng &rng, const Regime &r, const std::vector<ProgramKey> &hot,
         unsigned n, uint64_t &unique)
{
    const unsigned repeated = static_cast<unsigned>(r.repeatShare * n + 0.5);
    const unsigned sliced = static_cast<unsigned>(r.slicedShare * n + 0.5);
    std::vector<ServiceJob> jobs(n);
    for (unsigned i = 0; i < n; ++i) {
        ServiceJob &j = jobs[i];
        j.repeated = i < repeated;
        if (j.repeated) {
            j.program = hot[i % hot.size()];
            j.buildset = kJobBuildsets[(i / hot.size()) % 2];
        } else {
            // A fresh parameter gives an image no other job shares.
            const unsigned u = i - repeated;
            const auto &[k, base] = kJobKernels[u % std::size(kJobKernels)];
            j.program = {kIsas[(u / std::size(kJobKernels)) % 3], k,
                         base + 1 + unique++};
            while (std::count(hot.begin(), hot.end(), j.program))
                j.program.param = base + 1 + unique++;
            j.buildset = kJobBuildsets[(u / 15) % 2];
        }
    }
    std::vector<unsigned> order(n);
    for (unsigned i = 0; i < n; ++i)
        order[i] = i;
    shuffle(order, rng);
    for (unsigned i = 0; i < sliced; ++i)
        jobs[order[i]].sliceInstrs = kSliceInstrs;
    shuffle(jobs, rng);
    return jobs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Regime &r : kRegimes)
            v.push_back(r.name);
        return v;
    }();
    return names;
}

Plan
makePlan(const std::string &workload, uint64_t seed, unsigned threads)
{
    const Regime &r = regimeFor(workload);
    Plan p;
    p.workload = workload;
    p.seed = seed;
    std::copy(std::begin(r.share), std::end(r.share), p.share);
    Rng rng(seed);

    // The seed never changes how much work a round holds: it jitters
    // scale parameters by at most 2% and picks which programs flush,
    // which jobs are sliced, the job order and the arrival instants.
    // The composition is the same at every seed, so figures from
    // different seeds compare, and their spread is the host's noise.
    for (const char *isa : kIsas)
        for (const auto &[k, base] : kSweepKernels)
            p.iface.programs.push_back({isa, k, rng.jitter(base, 0.02)});
    const size_t n = p.iface.programs.size();
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    shuffle(idx, rng);
    p.iface.flush.assign(n, false);
    for (size_t i = 0; i < static_cast<size_t>(r.ifaceFlush * n + 0.5); ++i)
        p.iface.flush[idx[i]] = true;

    // Sampled: a small-footprint and a large-footprint program of about
    // five million instructions each, on two different ISAs.
    p.sampled.programs.push_back({"alpha64", "fib", rng.jitter(625000, 0.01)});
    p.sampled.programs.push_back(
        {"ppc32", "sieve", rng.jitter(195000, 0.01)});

    std::vector<ProgramKey> hot;
    for (unsigned i = 0; i < kHotImages; ++i) {
        const auto &[k, base] = kJobKernels[i % std::size(kJobKernels)];
        hot.push_back({kIsas[i % 3], k, rng.jitter(base, 0.02)});
    }
    uint64_t unique = 0;
    p.service.open = makeJobs(rng, r, hot, kOpenJobs, unique);
    p.service.closed = makeJobs(rng, r, hot, kClosedJobs, unique);
    p.service.rateHz = r.rateHz;
    p.service.workers = threads > 1 ? threads - 1 : 1;
    p.service.inFlight = 2 * p.service.workers;
    return p;
}

} // namespace perfbench
