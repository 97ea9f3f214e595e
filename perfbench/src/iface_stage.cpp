/**
 * @file
 * Stage 1, the interface sweep (Table II speed).  Every sweep program
 * runs to completion under each of the four cells, reloaded into the
 * same long-lived simulator every round, so its decoded-block cache is
 * reused -- unless the plan flushes it before the reload, the way a
 * checkpoint restore does.  Single-threaded; it touches only codegen/,
 * iface/ and runtime/.
 *
 * Untraced rounds call FunctionalSimulator::run(), the loop Table II
 * times.  Traced rounds drive the same entrypoints in the same order
 * but read the clock around every executeBlock/execute/step crossing.
 */

#include <algorithm>
#include <memory>

#include "codegen/genruntime.hpp"
#include "stages.hpp"
#include "workload/kernels.hpp"

namespace perfbench {

using namespace onespec;

namespace {

/** run() with a clock read around each interface crossing. */
RunResult
timedRun(FunctionalSimulator &sim, uint64_t &crossNs, uint64_t &crossings)
{
    RunResult rr;
    RunStatus st = RunStatus::Ok;
    switch (sim.buildset().semantic) {
      case SemanticLevel::Block: {
        DynInst block[64];
        while (st == RunStatus::Ok) {
            uint64_t t = nowNs();
            rr.instrs += sim.executeBlock(block, 64, st);
            crossNs += nowNs() - t;
            ++crossings;
        }
        break;
      }
      case SemanticLevel::One: {
        DynInst di;
        while (st == RunStatus::Ok) {
            uint64_t t = nowNs();
            st = sim.execute(di);
            crossNs += nowNs() - t;
            ++crossings;
            ++rr.instrs;
        }
        break;
      }
      default: {
        DynInst di;
        while (st == RunStatus::Ok) {
            for (unsigned s = 0; s < kNumSteps && st == RunStatus::Ok; ++s) {
                uint64_t t = nowNs();
                st = sim.step(static_cast<Step>(s), di);
                crossNs += nowNs() - t;
                ++crossings;
            }
            ++rr.instrs;
        }
        break;
      }
    }
    rr.status = st;
    return rr;
}

class IfaceStage final : public Stage
{
  public:
    explicit IfaceStage(StageEnv env) : Stage(env)
    {
        const IfacePlan &p = env_.world.plan().iface;
        for (const ProgramKey &k : p.programs)
            golden_.push_back(goldenOutput(k.kernel, k.param));
        mips_.resize(p.programs.size());
        refHash_.assign(p.programs.size(), 0);
    }

    const char *name() const override { return "iface"; }

    void
    warmup() override
    {
        pass(false);
    }

    void
    round() override
    {
        Tracer::Scope rs(env_.tracer, "iface.round", rounds_);
        const uint64_t t0 = nowNs();
        pass(true);
        stageNs_ += nowNs() - t0;
    }

    StageReport
    report() const override
    {
        StageReport r;
        for (unsigned c = 0; c < kNumCells; ++c) {
            // Each program's fastest round: co-tenants of a shared host
            // slow any one run by up to half, never speed it up.
            std::vector<double> perProgram;
            for (const auto &cells : mips_)
                perProgram.push_back(*std::max_element(cells[c].begin(),
                                                       cells[c].end()));
            r.e2e[std::string("mips_") + kCells[c].tag] = {
                geomean(perProgram), "MIPS"};
            const uint64_t cross = roundCrossings_[c];
            r.layers[std::string("iface.instrs_per_crossing.") +
                     kCells[c].tag] = {
                cross ? static_cast<double>(roundInstrs_[c]) /
                            static_cast<double>(cross)
                      : 0.0,
                "instrs"};
            if (traced())
                r.layers[std::string("iface.ns_per_crossing.") +
                         kCells[c].tag] = {
                    crossings_[c] ? static_cast<double>(crossNs_[c]) /
                                        static_cast<double>(crossings_[c])
                                  : 0.0,
                    "ns"};
        }
        // Disclosed beside the best round: the median round, which is
        // as fast as the host happened to be.
        stats::Json medianRound = stats::Json::object();
        for (unsigned c = 0; c < kNumCells; ++c) {
            std::vector<double> perProgram;
            for (const auto &cells : mips_)
                perProgram.push_back(median(cells[c]));
            medianRound.set(kCells[c].tag, stats::Json(geomean(perProgram)));
        }
        r.detail.set("mips_median_round", std::move(medianRound));
        r.layers["codegen.block_cache_hits"] = {
            static_cast<double>(roundHits_), "count"};
        r.layers["codegen.block_cache_misses"] = {
            static_cast<double>(roundMisses_), "count"};
        r.layers["runtime.load_ms"] = {median(loadNs_) / 1e6, "ms"};

        uint64_t loadTotal = 0;
        for (double ns : loadNs_)
            loadTotal += static_cast<uint64_t>(ns);
        r.detail.set("load_share", stats::Json(
            stageNs_ ? static_cast<double>(loadTotal) /
                           static_cast<double>(stageNs_)
                     : 0.0));
        if (traced()) {
            // Reconciliation: round wall time = crossings + reloads +
            // the benchmark's own loop and the clock reads.
            uint64_t layers = loadTotal;
            for (uint64_t ns : crossNs_)
                layers += ns;
            r.detail.set("e2e_s", stats::Json(stageNs_ / 1e9));
            r.detail.set("layer_sum_s", stats::Json(layers / 1e9));
            r.detail.set("residual_frac", stats::Json(
                stageNs_ ? (static_cast<double>(stageNs_) -
                            static_cast<double>(layers)) /
                               static_cast<double>(stageNs_)
                         : 0.0));
        }
        return r;
    }

  private:
    /** One run of every (program, cell); @p measure false = warm-up. */
    void
    pass(bool measure)
    {
        World &w = env_.world;
        const IfacePlan &p = w.plan().iface;
        const size_t n = p.programs.size();
        std::array<uint64_t, kNumCells> crossings{}, instrs{};
        uint64_t hits = 0, misses = 0;
        for (size_t i = 0; i < n; ++i) {
            // Rotate program and cell order every round so no cell
            // always runs first after the same neighbour.
            const size_t pi = (i + rounds_) % n;
            const ProgramKey &key = p.programs[pi];
            for (unsigned j = 0; j < kNumCells; ++j) {
                const unsigned c = (j + rounds_) % kNumCells;
                SimContext &ctx = *w.sweep()[pi].ctx;
                FunctionalSimulator &sim = *w.sweep()[pi].sims[c];
                const uint64_t id = w.nextId();
                Tracer::Scope ks(env_.tracer, "iface.kernel_run", id);
                const IfaceCounters before = sim.ifaceCounters();
                auto *gen = dynamic_cast<GenSimBase *>(&sim);
                const uint64_t h0 = gen ? gen->blockCacheHits() : 0;
                const uint64_t m0 = gen ? gen->blockCacheMisses() : 0;

                if (p.flush[pi])
                    sim.onStateRestored();
                const uint64_t t0 = nowNs();
                {
                    Tracer::Scope ls(env_.tracer, "runtime.load", id);
                    ctx.load(w.program(key));
                }
                const uint64_t t1 = nowNs();
                RunResult rr;
                {
                    Tracer::Scope rs(env_.tracer, "iface.run", id);
                    rr = traced() && measure
                             ? timedRun(sim, crossNs_[c], crossings_[c])
                             : sim.run(~uint64_t{0});
                }
                const uint64_t t2 = nowNs();

                // Oracle: golden output, and one architectural end
                // state whichever interface ran the program.
                const std::string &out = ctx.os().output();
                const uint64_t hash =
                    parallel::contextStateHash(ctx, out);
                if (!refHash_[pi])
                    refHash_[pi] = hash;
                env_.outcome.check(
                    rr.status == RunStatus::Halted && out == golden_[pi] &&
                        hash == refHash_[pi],
                    "iface " + key.isa + "/" + key.kernel + " on " +
                        kCells[c].buildset);
                if (!measure)
                    continue;

                mips_[pi][c].push_back(static_cast<double>(rr.instrs) *
                                       1e3 / static_cast<double>(t2 - t0));
                loadNs_.push_back(static_cast<double>(t1 - t0));
                const IfaceCounters &after = sim.ifaceCounters();
                crossings[c] += after.crossings() - before.crossings();
                instrs[c] += after.instrs - before.instrs;
                if (gen) {
                    hits += gen->blockCacheHits() - h0;
                    misses += gen->blockCacheMisses() - m0;
                }
            }
        }
        if (!measure)
            return;
        for (unsigned c = 0; c < kNumCells; ++c) {
            const std::string tag = kCells[c].tag;
            env_.counts.record("iface.crossings." + tag, crossings[c],
                               env_.outcome);
            env_.counts.record("iface.instrs." + tag, instrs[c],
                               env_.outcome);
        }
        env_.counts.record("codegen.block_cache_hits", hits, env_.outcome);
        env_.counts.record("codegen.block_cache_misses", misses,
                           env_.outcome);
        roundCrossings_ = crossings;
        roundInstrs_ = instrs;
        roundHits_ = hits;
        roundMisses_ = misses;
    }

    std::vector<std::string> golden_;
    std::vector<uint64_t> refHash_;
    /** Per program, per cell: MIPS of each measured run. */
    std::vector<std::array<std::vector<double>, kNumCells>> mips_;
    std::vector<double> loadNs_;
    uint64_t stageNs_ = 0;
    std::array<uint64_t, kNumCells> crossNs_{}, crossings_{};
    std::array<uint64_t, kNumCells> roundCrossings_{}, roundInstrs_{};
    uint64_t roundHits_ = 0, roundMisses_ = 0;
};

} // namespace

std::unique_ptr<Stage>
makeIfaceStage(StageEnv env)
{
    return std::make_unique<IfaceStage>(env);
}

} // namespace perfbench
