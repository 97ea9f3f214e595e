/**
 * @file
 * Small shared pieces of the repository benchmark: the one clock, the
 * seeded generator, order statistics, operation accounting, and the
 * exact-count ledger whose values must repeat bit-for-bit.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds: the timebase of every figure and span. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** splitmix64, the generator the repository's fault plans use. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    /** @p base scaled by a factor drawn uniformly from [1-s, 1+s]. */
    uint64_t
    jitter(uint64_t base, double s)
    {
        double f = 1.0 - s + 2.0 * s * uniform();
        uint64_t v = static_cast<uint64_t>(static_cast<double>(base) * f);
        return v ? v : 1;
    }

  private:
    uint64_t s_;
};

/**
 * Delete @p dir and everything under it, then flush its filesystem and
 * wait for the flush, so the deletion's journal work does not land in a
 * later timed call -- of this run or of the next.
 */
void removeAndSettle(const std::string &dir);

/** Flush the filesystem holding @p dir and wait for it. */
void settle(const std::string &dir);

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> xs);

/** Geometric mean of the positive entries; 0 when there are none. */
double geomean(const std::vector<double> &xs);

/** Every checked operation is attempted; a wrong result, a reject, a
 *  quarantine, an error or a count that did not repeat is a failure. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Count one operation; report the first failures on stderr. */
    void check(bool ok, const std::string &what);
};

/** A reported value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/**
 * Exact counts.  record() keeps the first value seen under a name and
 * counts every later value that differs as a failed operation: a count
 * that moves between repeats of the same work is a bug, never noise to
 * average away.
 */
class Counts
{
  public:
    void record(const std::string &name, uint64_t v, Outcome &out);
    const std::map<std::string, uint64_t> &values() const { return v_; }

  private:
    std::map<std::string, uint64_t> v_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
