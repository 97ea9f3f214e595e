/**
 * @file
 * The three measured stages.  A stage object lives for one pass
 * (untraced or traced): round() does one fixed, deterministic unit of
 * work, checks its outputs and records its exact counts; report()
 * turns the rounds into the end-to-end figures, each the best of its
 * repeats, and into per-layer medians.  A pass interleaves the rounds
 * of all three stages over its whole length, so every stage samples
 * the host over the same stretch of time.  Timings come from the benchmark's
 * own clock around calls into public functions, and in the traced pass
 * also from the flight-recorder rings.
 */

#ifndef PERFBENCH_STAGES_HPP
#define PERFBENCH_STAGES_HPP

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats/json.hpp"
#include "trace.hpp"
#include "world.hpp"

namespace perfbench {

/** What one pass of one stage measured. */
struct StageReport
{
    Metrics e2e;    ///< end-to-end metrics of this stage
    Metrics layers; ///< per-layer metrics (timings only when traced)
    /** Reconciliation, tail percentile, layers no source covers. */
    onespec::stats::Json detail = onespec::stats::Json::object();
};

/** Shared state of a stage pass. */
struct StageEnv
{
    World &world;
    Tracer &tracer;
    Outcome &outcome;
    Counts &counts;
};

class Stage
{
  public:
    explicit Stage(StageEnv env) : env_(env) {}
    virtual ~Stage() = default;

    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

    virtual const char *name() const = 0;
    /** Untimed work that lets caches fill before the first round. */
    virtual void warmup() {}
    virtual void round() = 0;
    virtual StageReport report() const = 0;

    unsigned rounds() const { return rounds_; }

    /** Run one round and count it. */
    void
    runRound()
    {
        round();
        ++rounds_;
    }

  protected:
    bool traced() const { return env_.tracer.enabled(); }

    StageEnv env_;
    unsigned rounds_ = 0;
};

std::unique_ptr<Stage> makeIfaceStage(StageEnv env);
std::unique_ptr<Stage> makeSampledStage(StageEnv env);
std::unique_ptr<Stage> makeServiceStage(StageEnv env);

} // namespace perfbench

#endif // PERFBENCH_STAGES_HPP
