/**
 * @file
 * The benchmark's set-up: everything a user builds before simulating,
 * made from a plan through the public APIs -- ISA descriptions loaded,
 * program images built, long-lived simulators created, the fleet and
 * the in-process service daemon started and connected.  Each step is
 * timed, because set-up time is a reported metric.
 */

#ifndef PERFBENCH_WORLD_HPP
#define PERFBENCH_WORLD_HPP

#include <array>
#include <map>
#include <memory>
#include <string>

#include "adl/spec.hpp"
#include "iface/functional_simulator.hpp"
#include "parallel/fleet.hpp"
#include "plan.hpp"
#include "runtime/context.hpp"
#include "runtime/program.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace perfbench {

/** One sweep program's context and a long-lived simulator per cell
 *  over it.  Reloading the same image keeps each simulator's decoded
 *  caches valid, exactly as rotating-interface validation shares one
 *  context between interfaces. */
struct SweepSims
{
    std::unique_ptr<onespec::SimContext> ctx;
    std::array<std::unique_ptr<onespec::FunctionalSimulator>, kNumCells>
        sims;
};

/** Wall time of each set-up step, in seconds. */
struct SetupTimes
{
    double adlLoad = 0;    ///< adl.load_s
    double build = 0;      ///< workload.build_s
    double simCreate = 0;  ///< iface.sim_create_s
    double serviceStart = 0; ///< service.start_s

    double total() const { return adlLoad + build + simCreate + serviceStart; }
};

/** Reference outcome of one program image, from a direct run. */
struct Reference
{
    std::string output;
    uint64_t stateHash = 0;
};

class World
{
  public:
    /** Build everything for @p plan; @p dir is the run's scratch
     *  directory (checkpoint stores, the daemon socket). */
    World(const Plan &plan, const std::string &dir, unsigned threads);
    ~World();

    World(const World &) = delete;
    World &operator=(const World &) = delete;

    const Plan &plan() const { return plan_; }
    const SetupTimes &setupTimes() const { return times_; }
    unsigned threads() const { return threads_; }
    const std::string &dir() const { return dir_; }

    const onespec::Spec &spec(const std::string &isa) const;
    const onespec::Program &program(const ProgramKey &k) const;

    /** Per sweep program, its context and one simulator per cell. */
    std::vector<SweepSims> &sweep() { return sweep_; }

    onespec::parallel::SimFleet &fleet() { return *fleet_; }
    onespec::service::ServiceDaemon &daemon() { return *daemon_; }
    onespec::service::ServiceClient &client() { return *client_; }

    /**
     * Direct-run references for every service image, computed once on
     * a plain context through the BlockMinNo interface.  Not part of
     * set-up time: it is the oracle's work, not the user's.
     */
    void computeReferences();
    const Reference &reference(const ProgramKey &k) const;

    /** Fresh correlation id for a kernel run, window or job. */
    uint64_t nextId() { return ++ids_; }

    /** Traced submits so far on the client connection (the client
     *  numbers its trace ids by this count). */
    uint32_t tracedSubmits = 0;

  private:
    const Plan &plan_;
    std::string dir_;
    unsigned threads_;
    SetupTimes times_;
    std::map<std::string, std::unique_ptr<onespec::Spec>> specs_;
    std::map<ProgramKey, onespec::Program> programs_;
    std::map<ProgramKey, Reference> refs_;
    std::vector<SweepSims> sweep_;
    std::unique_ptr<onespec::parallel::SimFleet> fleet_;
    std::unique_ptr<onespec::service::ServiceDaemon> daemon_;
    std::unique_ptr<onespec::service::ServiceClient> client_;
    uint64_t ids_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORLD_HPP
