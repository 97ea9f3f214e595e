/**
 * @file
 * Stage 2, sampled simulation (paper Section VI).  Each round runs the
 * plan's two long programs twice: serially through runSampled with
 * independent windows, and checkpoint-parallel on the fleet with a
 * fresh checkpoint store.  The two merged statistics dumps must match
 * byte for byte.  This is the stage where checkpoint capture, store
 * writes and chain restores sit on the critical path; restored windows
 * start with flushed decoded caches, and the timing model's caches
 * start empty in every window by design.
 */

#include <filesystem>
#include <memory>
#include <sstream>

#include "ckpt/store.hpp"
#include "iface/registry.hpp"
#include "parallel/ckpt_sampling.hpp"
#include "stages.hpp"
#include "timing/sampling.hpp"

namespace perfbench {

using namespace onespec;

namespace {

std::string
statsDump(const SamplingStats &s)
{
    stats::StatsRegistry reg;
    s.publish(reg.group("sampling"));
    std::ostringstream os;
    reg.dump(os);
    return os.str();
}

std::unique_ptr<FunctionalSimulator>
makeSim(SimContext &ctx, const char *buildset)
{
    auto sim = SimRegistry::instance().create(ctx, buildset);
    if (!sim)
        throw std::runtime_error(std::string("no simulator for ") +
                                 ctx.spec().props.name + "/" + buildset);
    return sim;
}

/** Per-round sums over the plan's programs. */
struct RoundTimes
{
    uint64_t serialNs = 0, parallelNs = 0, ffNs = 0, measureNs = 0;
    // Traced only.
    uint64_t fastForwardNs = 0, captureNs = 0, encodeNs = 0, saveNs = 0;
    uint64_t restoreNs = 0, windowSelfNs = 0, jobNs = 0;
};

class SampledStage final : public Stage
{
  public:
    explicit SampledStage(StageEnv env) : Stage(env)
    {
        // An earlier pass's stores would turn this pass's page writes
        // into dedup hits.
        std::filesystem::remove_all(env_.world.dir() + "/sampled_store");
        removeAndSettle(env_.world.dir() + "/resave_store");
    }

    const char *name() const override { return "sampled"; }

    void
    round() override
    {
        Tracer::Scope rs(env_.tracer, "sampled.round", rounds_);
        RoundTimes t;
        ckpt::CkptCounters ck;
        uint64_t cycles = 0, instrs = 0, windows = 0;
        const auto &progs = env_.world.plan().sampled.programs;
        perProg_.resize(progs.size());
        for (size_t i = 0; i < progs.size(); ++i) {
            const RoundTimes before = t;
            runProgram(progs[i], t, ck, cycles, instrs, windows);
            perProg_[i].push_back({(t.serialNs - before.serialNs) / 1e9,
                                   (t.parallelNs - before.parallelNs) / 1e9});
        }
        times_.push_back(t);
        settleStores();

        Outcome &o = env_.outcome;
        env_.counts.record("ckpt.restores", ck.restores, o);
        env_.counts.record("ckpt.pages_captured", ck.pagesCaptured, o);
        env_.counts.record("ckpt.pages_restored", ck.pagesRestored, o);
        env_.counts.record("ckpt.store_bytes_written", ck.storeBytesWritten,
                           o);
        env_.counts.record("timing.cycles", cycles, o);
        env_.counts.record("timing.instrs", instrs, o);
        env_.counts.record("sampling.windows", windows, o);
        last_ = {ck.restores, ck.pagesCaptured, ck.pagesRestored,
                 ck.storeBytesWritten, cycles, instrs};
    }

    StageReport
    report() const override
    {
        auto med = [this](uint64_t RoundTimes::*f) {
            std::vector<double> v;
            for (const RoundTimes &t : times_)
                v.push_back(static_cast<double>(t.*f) / 1e9);
            return median(v);
        };
        // Each program's fastest round, summed over the programs.
        auto best = [this](bool parallel) {
            double sum = 0;
            for (const auto &rounds : perProg_) {
                double b = 0;
                for (const auto &[s, p] : rounds) {
                    const double x = parallel ? p : s;
                    b = b > 0 ? std::min(b, x) : x;
                }
                sum += b;
            }
            return sum;
        };
        StageReport r;
        r.e2e["sampled_serial_s"] = {best(false), "s"};
        r.e2e["sampled_parallel_s"] = {best(true), "s"};
        // Disclosed beside the best rounds, and reconciled against the
        // layer medians: the median round.
        const double serialMed = med(&RoundTimes::serialNs);
        const double parMed = med(&RoundTimes::parallelNs);
        r.detail.set("serial_median_round_s", stats::Json(serialMed));
        r.detail.set("parallel_median_round_s", stats::Json(parMed));

        const char *const countNames[] = {
            "ckpt.restores", "ckpt.pages_captured", "ckpt.pages_restored",
            "ckpt.store_bytes_written", "timing.cycles", "timing.instrs"};
        for (size_t i = 0; i < std::size(countNames); ++i)
            r.layers[countNames[i]] = {
                static_cast<double>(last_[i]),
                std::string(countNames[i]).ends_with("_bytes_written")
                    ? "B"
                    : "count"};
        if (!traced())
            return r;

        const double threads = env_.world.threads();
        const double phase1 = med(&RoundTimes::ffNs);
        const double phase2 = med(&RoundTimes::measureNs);
        const double ff = med(&RoundTimes::fastForwardNs);
        const double capture = med(&RoundTimes::captureNs);
        const double save = med(&RoundTimes::saveNs);
        const double restore = med(&RoundTimes::restoreNs);
        const double window = med(&RoundTimes::windowSelfNs);
        r.layers["parallel.phase1_s"] = {phase1, "s"};
        r.layers["parallel.phase2_s"] = {phase2, "s"};
        r.layers["iface.fastforward_s"] = {ff, "s"};
        r.layers["ckpt.capture_s"] = {capture, "s"};
        r.layers["ckpt.encode_s"] = {med(&RoundTimes::encodeNs), "s"};
        r.layers["ckpt.store_save_s"] = {save, "s"};
        r.layers["ckpt.restore_chain_s"] = {restore, "s"};
        r.layers["timing.window_s"] = {window, "s"};
        r.layers["parallel.fleet_busy_frac"] = {
            phase2 > 0 ? med(&RoundTimes::jobNs) / (threads * phase2) : 0.0,
            "ratio"};

        // Reconciliation.  Parallel: phase 1 is fast-forward + capture +
        // store writes on one thread; phase 2 is restore + window self
        // time spread over the pool.  Serial: only the fast-forward
        // floor is covered; the detailed windows inside runSampled have
        // no span of their own.
        const double parLayers =
            ff + capture + save + (restore + window) / threads;
        r.detail.set("parallel_residual_frac",
                     stats::Json(parMed > 0 ? (parMed - parLayers) / parMed
                                            : 0.0));
        r.detail.set("serial_residual_frac",
                     stats::Json(serialMed > 0 ? (serialMed - ff) / serialMed
                                               : 0.0));
        return r;
    }

  private:
    /**
     * Flush the filesystem, untimed, so the writeback of megabytes of
     * page blobs lands here and not inside a timed call -- the next
     * parallel run's or another stage's.  Every parallel run gets a
     * store directory of its own, and none is deleted until the next
     * pass: deleting thousands of blobs between rounds keeps the
     * filesystem busy into the next round's store writes.
     */
    void
    settleStores()
    {
        settle(env_.world.dir());
    }

    void
    runProgram(const ProgramKey &k, RoundTimes &t, ckpt::CkptCounters &ck,
               uint64_t &cycles, uint64_t &instrs, uint64_t &windows)
    {
        World &w = env_.world;
        const SampledPlan &sp = w.plan().sampled;
        const Spec &spec = w.spec(k.isa);
        const Program &prog = w.program(k);
        const uint64_t id = w.nextId();
        const std::string what = "sampled " + k.isa + "/" + k.kernel;

        SamplingConfig cfg;
        cfg.windowInstrs = sp.windowInstrs;
        cfg.periodInstrs = sp.periodInstrs;
        cfg.independentWindows = true;

        // Serial: one context, the detailed and fast-forward interfaces
        // of the same specification over it.
        SimContext ctx(spec);
        ctx.load(prog);
        auto det = makeSim(ctx, sp.detailed);
        auto fast = makeSim(ctx, sp.fast);
        uint64_t t0 = nowNs();
        SamplingStats serial;
        {
            Tracer::Scope s(env_.tracer, "timing.sampled_serial", id);
            serial = runSampled(spec, *det, *fast, cfg, ~uint64_t{0});
        }
        t.serialNs += nowNs() - t0;

        // Checkpoint-parallel, store writes included, fresh store.
        settleStores();
        ckpt::CkptStore store(w.dir() + "/sampled_store/" +
                              std::to_string(storeSeq_++));
        parallel::CkptSamplingConfig ccfg;
        ccfg.sampling = cfg;
        ccfg.detailedBuildset = sp.detailed;
        ccfg.fastBuildset = sp.fast;
        ccfg.store = &store;
        ccfg.storePrefix = "w";
        env_.tracer.armRings();
        t0 = nowNs();
        parallel::CkptSamplingResult par;
        {
            Tracer::Scope s(env_.tracer, "parallel.sampled_parallel", id);
            par = parallel::runSampledCheckpointParallel(spec, prog, ccfg,
                                                         w.fleet());
        }
        t.parallelNs += nowNs() - t0;
        t.ffNs += par.ffNs;
        t.measureNs += par.measureNs;

        bool clean = true;
        for (const std::string &e : par.jobErrors)
            clean &= e.empty();
        env_.outcome.check(clean && statsDump(serial) == statsDump(par.stats),
                           what + ": parallel result differs from serial");
        ck += par.ckpt;
        cycles += par.stats.detailed.cycles;
        instrs += par.stats.detailed.instrs;
        windows += par.stats.windows;

        if (!traced())
            return;
        // Window jobs are numbered by fleet job index; give them ids
        // that are unique across the run.
        const uint64_t base = id << 16;
        std::vector<RingEvent> ev = env_.tracer.harvestRings(
            [base](const RingEvent &e) {
                return e.ev.type == obs::EvType::Job ? base + e.ev.id + 1
                                                     : uint64_t{0};
            });
        RingTimes rt = ringTimes(ev);
        t.captureNs += rt.totalOf(obs::EvType::CkptCapture);
        t.restoreNs += rt.totalOf(obs::EvType::CkptRestore);
        t.windowSelfNs += rt.selfOf(obs::EvType::Job);
        t.jobNs += rt.totalOf(obs::EvType::Job);

        // The fast-forward floor: one plain fastForward over the length
        // phase 1 covered.
        {
            SimContext fctx(spec);
            fctx.load(prog);
            auto ffsim = makeSim(fctx, sp.fast);
            RunStatus st = RunStatus::Ok;
            Tracer::Scope s(env_.tracer, "iface.fastforward", id);
            t0 = nowNs();
            ffsim->fastForward(par.totalInstrs, st);
            t.fastForwardNs += nowNs() - t0;
        }
        // Encode and store writes, re-done on the result's checkpoints
        // into a second fresh store.
        {
            Tracer::Scope s(env_.tracer, "ckpt.encode", id);
            t0 = nowNs();
            for (const ckpt::Checkpoint &c : par.checkpoints)
                ckpt::encode(c);
            t.encodeNs += nowNs() - t0;
        }
        {
            ckpt::CkptStore resave(w.dir() + "/resave_store/" +
                                   std::to_string(storeSeq_++));
            Tracer::Scope s(env_.tracer, "ckpt.store_save", id);
            t0 = nowNs();
            for (size_t i = 0; i < par.checkpoints.size(); ++i)
                resave.save("w" + std::to_string(i), par.checkpoints[i]);
            t.saveNs += nowNs() - t0;
        }
    }

    std::vector<RoundTimes> times_;
    unsigned storeSeq_ = 0;
    std::vector<std::vector<std::pair<double, double>>> perProg_;
    std::array<uint64_t, 6> last_{};
};

} // namespace

std::unique_ptr<Stage>
makeSampledStage(StageEnv env)
{
    return std::make_unique<SampledStage>(env);
}

} // namespace perfbench
