#include "world.hpp"

#include <filesystem>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "iface/registry.hpp"
#include "isa/isa.hpp"
#include "workload/builder.hpp"
#include "workload/kernels.hpp"

namespace perfbench {

using namespace onespec;

namespace {

double
secondsSince(uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

Program
buildProgram(const Spec &spec, const ProgramKey &k)
{
    auto b = makeBuilder(spec);
    return buildKernel(*b, k.kernel, k.param);
}

} // namespace

World::World(const Plan &plan, const std::string &dir, unsigned threads)
    : plan_(plan), dir_(dir), threads_(threads)
{
    std::set<std::string> isas;
    for (const ProgramKey &k : plan.iface.programs)
        isas.insert(k.isa);
    for (const ProgramKey &k : plan.sampled.programs)
        isas.insert(k.isa);

    uint64_t t = nowNs();
    for (const std::string &isa : isas)
        specs_[isa] = loadIsa(isa);
    times_.adlLoad = secondsSince(t);

    t = nowNs();
    for (const ProgramKey &k : plan.iface.programs)
        programs_.emplace(k, buildProgram(spec(k.isa), k));
    for (const ProgramKey &k : plan.sampled.programs)
        programs_.emplace(k, buildProgram(spec(k.isa), k));
    times_.build = secondsSince(t);

    t = nowNs();
    for (const ProgramKey &k : plan.iface.programs) {
        SweepSims s;
        s.ctx = std::make_unique<SimContext>(spec(k.isa));
        s.ctx->load(program(k));
        for (unsigned c = 0; c < kNumCells; ++c) {
            s.sims[c] =
                SimRegistry::instance().create(*s.ctx, kCells[c].buildset);
            if (!s.sims[c])
                throw std::runtime_error(std::string("no simulator for ") +
                                         k.isa + "/" + kCells[c].buildset);
        }
        sweep_.push_back(std::move(s));
    }
    fleet_ = std::make_unique<parallel::SimFleet>(threads);
    times_.simCreate = secondsSince(t);

    t = nowNs();
    std::filesystem::remove_all(dir + "/daemon_store"); // earlier set-up
    service::ServiceConfig cfg;
    cfg.socketPath = dir + "/daemon.sock";
    cfg.storeDir = dir + "/daemon_store";
    cfg.workers = plan.service.workers;
    // Admission must never refuse a job of the mix: a reject would be a
    // failed operation, not a latency.
    cfg.queueDepth = 1024;
    cfg.tenantQuota = 1024;
    daemon_ = std::make_unique<service::ServiceDaemon>(cfg);
    daemon_->start();
    client_ = std::make_unique<service::ServiceClient>();
    client_->connect(cfg.socketPath, "perfbench");
    times_.serviceStart = secondsSince(t);
}

World::~World()
{
    client_.reset();
    daemon_.reset();
}

const Spec &
World::spec(const std::string &isa) const
{
    return *specs_.at(isa);
}

const Program &
World::program(const ProgramKey &k) const
{
    return programs_.at(k);
}

void
World::computeReferences()
{
    auto add = [this](const ServiceJob &j) {
        const ProgramKey &k = j.program;
        if (refs_.count(k))
            return;
        auto it = specs_.find(k.isa);
        if (it == specs_.end())
            it = specs_.emplace(k.isa, loadIsa(k.isa)).first;
        Program prog = buildProgram(*it->second, k);
        SimContext ctx(*it->second);
        ctx.load(prog);
        auto sim = SimRegistry::instance().create(ctx, "BlockMinNo");
        if (!sim)
            throw std::runtime_error("no BlockMinNo simulator for " + k.isa);
        sim->run(~uint64_t{0});
        Reference r;
        r.output = ctx.os().output();
        r.stateHash = parallel::contextStateHash(ctx, r.output);
        if (r.output != goldenOutput(k.kernel, k.param))
            throw std::runtime_error("reference run of " + k.isa + "/" +
                                     k.kernel + " disagrees with its "
                                     "golden output");
        refs_.emplace(k, std::move(r));
    };
    for (const ServiceJob &j : plan_.service.open)
        add(j);
    for (const ServiceJob &j : plan_.service.closed)
        add(j);
}

const Reference &
World::reference(const ProgramKey &k) const
{
    return refs_.at(k);
}

} // namespace perfbench
