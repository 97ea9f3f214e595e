/**
 * @file
 * The traced run's span store.  The benchmark records its own spans
 * (name, start, end, parent, correlation id) around every call it makes
 * into a layer, keeps them in memory, and merges them at exit with the
 * repository's flight-recorder rings -- armed only in the traced run --
 * into one Chrome trace-event document of the same shape
 * obs::exportChromeTrace writes.
 *
 * A disabled Tracer records nothing and never arms the rings, so the
 * untraced run pays one branch per span site.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace perfbench {

namespace obs = onespec::obs;

/** One benchmark-side span; parent is an index into the same store. */
struct Span
{
    std::string name;
    uint64_t id = 0;      ///< shared by every span of one run/window/job
    int64_t parent = -1;  ///< enclosing span, -1 at top level
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/** One flight-recorder event, re-based onto the benchmark's clock. */
struct RingEvent
{
    unsigned tid = 0;
    uint64_t ns = 0;      ///< nowNs() timebase
    uint64_t cid = 0;     ///< benchmark correlation id (0: none)
    obs::FrEvent ev;
};

constexpr size_t kNumEvTypes = static_cast<size_t>(obs::EvType::Sample) + 1;

/** Per event type: summed span durations and summed self time (span
 *  minus the part of it that nested spans on the same thread cover). */
struct RingTimes
{
    std::array<uint64_t, kNumEvTypes> total{};
    std::array<uint64_t, kNumEvTypes> self{};

    uint64_t
    totalOf(obs::EvType t) const
    {
        return total[static_cast<size_t>(t)];
    }
    uint64_t
    selfOf(obs::EvType t) const
    {
        return self[static_cast<size_t>(t)];
    }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return on_; }

    /** Open a span on the main thread (the only one that records
     *  benchmark spans); returns its index, or -1 when disabled. */
    int64_t begin(const char *name, uint64_t id);
    void end(int64_t span);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, uint64_t id)
            : t_(t), s_(t.begin(name, id))
        {}
        ~Scope() { t_.end(s_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int64_t s_;
    };

    /** Arm the flight-recorder rings (no-op when disabled). */
    void armRings();

    /**
     * Disarm, wait for in-flight recordings to land, and keep every
     * event of this arm generation.  @p cidOf maps a ring event to the
     * benchmark correlation id (0 for none).  Returns the events of
     * this generation only.
     */
    template <typename F>
    std::vector<RingEvent>
    harvestRings(F cidOf)
    {
        std::vector<RingEvent> got = collectRings();
        for (RingEvent &e : got)
            e.cid = cidOf(e);
        rings_.insert(rings_.end(), got.begin(), got.end());
        return got;
    }

    /** Ring tid of the main thread in the current generation. */
    unsigned mainTid() const { return mainTid_; }

    /** Events lost to ring overwrite, summed over harvests. */
    uint64_t dropped() const { return dropped_; }

    /** Write spans and ring events as Chrome trace-event JSON, at most
     *  @p maxEvents ring events.  Returns false on an IO error. */
    bool write(const std::string &path, size_t maxEvents) const;

  private:
    std::vector<RingEvent> collectRings();

    bool on_;
    uint64_t t0_;
    uint64_t armNs_ = 0;
    unsigned mainTid_ = 0;
    uint64_t dropped_ = 0;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
    std::vector<RingEvent> rings_;
};

/** Span totals and self times per event type over @p events. */
RingTimes ringTimes(const std::vector<RingEvent> &events);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
