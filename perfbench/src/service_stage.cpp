/**
 * @file
 * Stage 3, the service mix.  One client thread on one connection to the
 * in-process daemon.  Each round has two phases over the plan's job
 * lists:
 *
 *   open loop    seeded Poisson arrivals at the plan's fixed absolute
 *                rate, the same schedule every round; a job's latency
 *                runs from its *scheduled* send to its Result, so a
 *                stall also charges the jobs queued behind it, and how
 *                late the generator ran is reported;
 *   closed loop  a fixed number of jobs kept in flight; jobs per second.
 *
 * Every result must match the direct-run reference of its image.
 * Repeated images give warm-pool cache reuse, unique ones do not, and
 * sliced jobs are checkpointed into the daemon's store and resumed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>

#include "service/client.hpp"
#include "stages.hpp"

namespace perfbench {

using namespace onespec;
using service::ClientEvent;
using service::JobPhase;

namespace {

uint64_t
jsonCount(const stats::Json &root, const char *group, const char *key)
{
    const stats::Json *g = root.find(group);
    const stats::Json *v = g ? g->find(key) : nullptr;
    return v ? v->asUint() : 0;
}

/** Client-side timeline of one job, keyed by daemon job id. */
struct Live
{
    const ServiceJob *job = nullptr;
    uint64_t schedNs = 0, sentNs = 0, acceptNs = 0, runningNs = 0;
    uint64_t preemptAt = 0;
    bool open = false;
};

class ServiceStage final : public Stage
{
  public:
    using Stage::Stage;

    const char *name() const override { return "service"; }

    void
    warmup() override
    {
        // Fill the warm pool the way the mix will use it: each repeated
        // image once per interface it runs on, closed loop, unmeasured.
        std::vector<ServiceJob> jobs;
        for (const auto *list :
             {&env_.world.plan().service.open,
              &env_.world.plan().service.closed})
            for (const ServiceJob &j : *list)
                if (j.repeated &&
                    std::none_of(jobs.begin(), jobs.end(),
                                 [&](const ServiceJob &x) {
                                     return x.program == j.program &&
                                            x.buildset == j.buildset;
                                 }))
                    jobs.push_back(j);
        closedLoop(jobs);
    }

    void
    round() override
    {
        World &w = env_.world;
        const ServicePlan &sp = w.plan().service;
        Tracer::Scope rs(env_.tracer, "service.round", rounds_);
        env_.tracer.armRings();
        const stats::Json before = settledStatsz();
        if (!rounds_)
            first_ = before;

        preemptions_ = 0;
        openDone_.clear();
        openLoop();
        const uint64_t t0 = nowNs();
        closedLoop(sp.closed);
        jobsPerSec_.push_back(static_cast<double>(sp.closed.size()) * 1e9 /
                              static_cast<double>(nowNs() - t0));

        const stats::Json after = settledStatsz();
        auto delta = [&](const char *g, const char *k) {
            return jsonCount(after, g, k) - jsonCount(before, g, k);
        };
        Outcome &o = env_.outcome;
        o.check(delta("jobs", "rejected_queue_full") +
                        delta("jobs", "rejected_tenant_quota") +
                        delta("jobs", "quarantined") ==
                    0,
                "service: statsz shows rejected or quarantined jobs");
        env_.counts.record("service.preemptions", preemptions_, o);
        env_.counts.record("service.ckpt.pages_restored",
                           delta("ckpt", "pages_restored"), o);
        pagesRestored_ = delta("ckpt", "pages_restored");
        // Identical rounds re-store identical pages, which dedup, so the
        // store's lifetime byte count settles after the first round.  It
        // is not an exact count: two workers preempting jobs of the same
        // image at once may both write a page before either sees it.
        storeBytes_ = jsonCount(after, "ckpt", "store_bytes_written");
        last_ = after;

        if (traced())
            harvest();
    }

    StageReport
    report() const override
    {
        StageReport r;
        // Every round replays the same schedule: the same jobs at the
        // same offsets.  A job's latency is its best over the rounds; a
        // co-tenant of a shared host only ever adds latency, and it
        // slows whole stretches of a run, so pooling every round would
        // measure the co-tenant.
        std::vector<double> lat;
        for (double x : bestMs_)
            if (x < kNever)
                lat.push_back(x);
        std::sort(lat.begin(), lat.end());
        const size_t n = lat.size();
        r.e2e["job_latency_p50_ms"] = {median(lat), "ms"};
        // Tail: the highest percentile with at least ten samples beyond.
        const size_t rank = n > 10 ? n - 10 : 1;
        r.e2e["job_latency_tail_ms"] = {n ? lat[rank - 1] : 0.0, "ms"};
        // The fastest closed-loop round.
        r.e2e["jobs_per_s"] = {
            jobsPerSec_.empty() ? 0.0
                                : *std::max_element(jobsPerSec_.begin(),
                                                    jobsPerSec_.end()),
            "1/s"};
        r.detail.set("tail_percentile",
                     stats::Json(n ? 100.0 * static_cast<double>(rank) /
                                         static_cast<double>(n)
                                   : 0.0));
        r.detail.set("latency_samples", stats::Json(uint64_t{n}));
        r.detail.set("latency_repeats", stats::Json(uint64_t{rounds_}));
        r.detail.set("latency_p50_all_ms", stats::Json(median(latencyMs_)));
        r.detail.set("open_loop_rate_hz",
                     stats::Json(env_.world.plan().service.rateHz));

        r.layers["service.preemptions"] = {
            static_cast<double>(preemptions_), "count"};
        r.layers["service.ckpt.pages_restored"] = {
            static_cast<double>(pagesRestored_), "count"};
        r.layers["service.ckpt.store_bytes_written"] = {
            static_cast<double>(storeBytes_), "bytes"};
        if (!traced())
            return r;

        r.layers["service.submit_ms"] = {median(submitMs_), "ms"};
        r.layers["service.run_ms"] = {median(runMs_), "ms"};
        r.layers["service.queue_wait_ms"] = {median(queueMs_), "ms"};
        r.layers["service.preempt_ms"] = {median(preemptMs_), "ms"};
        r.layers["service.backlog_max"] = {median(backlog_), "jobs"};
        const double acq = static_cast<double>(
            jsonCount(last_, "warm", "acquires") -
            jsonCount(first_, "warm", "acquires"));
        const double reuse = static_cast<double>(
            jsonCount(last_, "warm", "cache_reuses") -
            jsonCount(first_, "warm", "cache_reuses"));
        r.layers["service.warm_reuse_ratio"] = {acq > 0 ? reuse / acq : 0.0,
                                                "ratio"};
        double lag = 0;
        for (double x : lagMs_)
            lag += x;
        r.layers["service.gen_lag_ms"] = {
            lagMs_.empty() ? 0.0 : lag / static_cast<double>(lagMs_.size()),
            "ms"};

        // Reconciliation per open-loop job: latency = generator lag +
        // submit + daemon queue wait + active run + preempted wait +
        // residual (wire, result encoding, stream).
        double e2e = 0, resid = 0;
        for (const Done &d : recon_) {
            e2e += d.latMs;
            resid += d.latMs - d.coveredMs;
        }
        r.detail.set("residual_frac",
                     stats::Json(e2e > 0 ? resid / e2e : 0.0));
        return r;
    }

  private:
    /**
     * The daemon's statsz once every finished job has been retired.  It
     * folds a job's checkpoint counters in after sending its Result, so
     * a dump taken as soon as the last Result arrives can miss them.
     */
    stats::Json
    settledStatsz()
    {
        stats::Json j;
        while (true) {
            stats::Json::parse(env_.world.daemon().statszJson(), j);
            if (jsonCount(j, "gauges", "in_flight_jobs") == 0)
                return j;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /** Submit one job; returns its daemon id (0 when refused). */
    uint64_t
    submit(const ServiceJob &j, bool open, uint64_t schedNs)
    {
        World &w = env_.world;
        service::JobSpec s;
        s.name = j.program.isa + "/" + j.program.kernel;
        s.isa = j.program.isa;
        s.kernel = j.program.kernel;
        s.param = j.program.param;
        s.buildset = j.buildset;
        s.sliceInstrs = j.sliceInstrs;
        const uint64_t cid = w.nextId();
        w.client().setTraceContext(traced());
        Live l;
        l.job = &j;
        l.open = open;
        l.schedNs = schedNs;
        l.sentNs = nowNs();
        service::SubmitOutcome o;
        {
            Tracer::Scope s2(env_.tracer, "service.submit", cid);
            o = w.client().submit(s);
        }
        l.acceptNs = nowNs();
        if (traced())
            ctrCid_[++w.tracedSubmits] = cid;
        env_.outcome.check(o.accepted, "service: job " + s.name +
                                           " rejected: " + o.reject.reason);
        if (!o.accepted)
            return 0;
        jobCid_[o.jobId] = cid;
        live_[o.jobId] = l;
        if (open) {
            submitMs_.push_back((l.acceptNs - l.sentNs) / 1e6);
            lagMs_.push_back((l.sentNs - schedNs) / 1e6);
        }
        return o.jobId;
    }

    /** Apply one streamed event; true when it completed a job. */
    bool
    handle(const ClientEvent &ev)
    {
        const uint64_t now = nowNs();
        if (ev.kind == ClientEvent::Kind::Status) {
            auto it = live_.find(ev.status.jobId);
            if (it == live_.end())
                return false;
            Live &l = it->second;
            if (ev.status.phase == JobPhase::Running && !l.runningNs)
                l.runningNs = now;
            else if (ev.status.phase == JobPhase::Preempted)
                l.preemptAt = now;
            else if (ev.status.phase == JobPhase::Resumed && l.preemptAt) {
                if (l.open)
                    preemptMs_.push_back((now - l.preemptAt) / 1e6);
                preemptWait_[it->first] += now - l.preemptAt;
                l.preemptAt = 0;
            }
            return false;
        }
        if (ev.kind != ClientEvent::Kind::Result)
            return false;
        auto it = live_.find(ev.result.jobId);
        if (it == live_.end())
            return false;
        const Live l = it->second;
        live_.erase(it);
        const service::JobResult &res = ev.result;
        const Reference &ref = env_.world.reference(l.job->program);
        env_.outcome.check(!res.quarantined &&
                               res.runStatus == RunStatus::Halted &&
                               res.output == ref.output &&
                               res.stateHash == ref.stateHash,
                           "service: job " + res.name + " on " +
                               l.job->buildset + " differs from its "
                               "direct run" +
                               (res.error.empty() ? "" : ": " + res.error));
        preemptions_ += res.preemptions;
        if (l.open) {
            const double latMs = (now - l.schedNs) / 1e6;
            latencyMs_.push_back(latMs);
            double &best = bestMs_[static_cast<size_t>(
                l.job - env_.world.plan().service.open.data())];
            best = std::min(best, latMs);
            runMs_.push_back(res.ns / 1e6);
            if (l.runningNs)
                queueMs_.push_back((l.runningNs - l.acceptNs) / 1e6);
            const uint64_t covered =
                (l.acceptNs - l.schedNs) + res.ns + preemptWait_[res.jobId];
            openDone_.push_back({res.jobId, latMs, covered / 1e6});
        }
        preemptWait_.erase(res.jobId);
        return true;
    }

    void
    openLoop()
    {
        World &w = env_.world;
        const ServicePlan &sp = w.plan().service;
        // Arrival gaps are drawn from the seed alone: every round offers
        // the same load at the same instants.
        Rng rng(w.plan().seed * 0x100000001b3ull + 1);
        bestMs_.resize(sp.open.size(), kNever);
        uint64_t sched = nowNs() + 1'000'000;
        size_t outstanding = 0, maxBacklog = 0;
        ClientEvent ev;
        for (const ServiceJob &j : sp.open) {
            // Wait for the scheduled instant, streaming events, without
            // sleeping: on a busy shared host a sleeping client wakes
            // milliseconds late, and its lag would count as latency.
            // The spin holds one core; at this rate the daemon's workers
            // and I/O threads fit on the others.
            while (nowNs() < sched)
                if (w.client().poll(ev, 0) && handle(ev))
                    --outstanding;
            if (submit(j, true, sched))
                maxBacklog = std::max(maxBacklog, ++outstanding);
            const double gap = -std::log(1.0 - rng.uniform()) / sp.rateHz;
            sched += static_cast<uint64_t>(gap * 1e9);
        }
        while (outstanding)
            if (w.client().poll(ev, 0) && handle(ev))
                --outstanding;
        backlog_.push_back(static_cast<double>(maxBacklog));
    }

    void
    closedLoop(const std::vector<ServiceJob> &jobs)
    {
        World &w = env_.world;
        const unsigned inFlight = w.plan().service.inFlight;
        size_t next = 0, outstanding = 0, done = 0;
        ClientEvent ev;
        while (done < jobs.size()) {
            while (next < jobs.size() && outstanding < inFlight) {
                if (submit(jobs[next++], false, nowNs()))
                    ++outstanding;
                else
                    ++done;
            }
            if (!outstanding)
                continue;
            if (!w.client().next(ev))
                throw service::WireError("daemon closed the connection");
            if (handle(ev)) {
                --outstanding;
                ++done;
            }
        }
    }

    /** Traced: read the rings for the daemon's queue-wait instants and
     *  build the per-job reconciliation. */
    void
    harvest()
    {
        const unsigned client = env_.tracer.mainTid();
        std::vector<RingEvent> ev = env_.tracer.harvestRings(
            [&](const RingEvent &e) -> uint64_t {
                const auto &m = e.tid == client ? ctrCid_ : jobCid_;
                auto it = m.find(e.ev.id);
                return it == m.end() ? 0 : it->second;
            });
        std::map<uint64_t, uint64_t> queueNs; // daemon job id -> wait
        for (const RingEvent &e : ev)
            if (e.tid != client && e.ev.type == obs::EvType::QueueWait)
                queueNs[e.ev.id] = e.ev.a0;
        for (Done d : openDone_) {
            auto it = queueNs.find(d.jobId);
            if (it != queueNs.end())
                d.coveredMs += it->second / 1e6;
            recon_.push_back(d);
        }
        openDone_.clear();
    }

    std::map<uint64_t, Live> live_;
    std::map<uint64_t, uint64_t> jobCid_;  ///< daemon job id -> cid
    std::map<uint64_t, uint64_t> ctrCid_;  ///< client trace ctr -> cid
    std::map<uint64_t, uint64_t> preemptWait_; ///< job id -> ns preempted
    /** An open-loop job's latency and the part its layers cover. */
    struct Done
    {
        uint64_t jobId;
        double latMs;
        double coveredMs;
    };
    std::vector<Done> openDone_, recon_;
    std::vector<double> latencyMs_, submitMs_, runMs_, queueMs_;
    std::vector<double> preemptMs_, lagMs_, backlog_, jobsPerSec_;
    /** Per open-loop job: its best latency over the rounds. */
    std::vector<double> bestMs_;
    static constexpr double kNever = 1e300;
    uint64_t preemptions_ = 0, pagesRestored_ = 0, storeBytes_ = 0;
    stats::Json first_, last_; ///< statsz at the pass's start and end
};

} // namespace

std::unique_ptr<Stage>
makeServiceStage(StageEnv env)
{
    return std::make_unique<ServiceStage>(env);
}

} // namespace perfbench
