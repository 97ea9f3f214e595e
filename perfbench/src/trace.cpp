#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <map>
#include <thread>

#include "common.hpp"
#include "stats/json.hpp"

namespace perfbench {

namespace {

/** Ring capacity per thread: one harvest never overwrites. */
constexpr size_t kRingEvents = size_t{1} << 16;

using onespec::stats::Json;

Json
metaEvent(const char *what, int64_t pid, int64_t tid,
          const std::string &value)
{
    Json e = Json::object();
    e.set("name", Json(what));
    e.set("ph", Json("M"));
    e.set("ts", Json(0.0));
    e.set("pid", Json(pid));
    e.set("tid", Json(tid));
    Json args = Json::object();
    args.set("name", Json(value));
    e.set("args", std::move(args));
    return e;
}

} // namespace

Tracer::Tracer(bool enabled) : on_(enabled), t0_(nowNs()) {}

int64_t
Tracer::begin(const char *name, uint64_t id)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.id = id;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int64_t span)
{
    if (span < 0)
        return;
    spans_[static_cast<size_t>(span)].endNs = nowNs();
    if (!open_.empty() && open_.back() == span)
        open_.pop_back();
}

void
Tracer::armRings()
{
    if (!on_)
        return;
    obs::FlightControl &fc = obs::FlightControl::instance();
    fc.arm(kRingEvents);
    armNs_ = nowNs() - fc.nowNs();
    mainTid_ = fc.local().tid();
}

std::vector<RingEvent>
Tracer::collectRings()
{
    std::vector<RingEvent> out;
    if (!on_)
        return out;
    obs::FlightControl &fc = obs::FlightControl::instance();
    fc.disarm();
    // A span opened while armed still records its End; give any such
    // recording on a daemon thread time to land before reading.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (const auto &r : fc.recorders()) {
        dropped_ += r->dropped();
        for (const obs::FrEvent &ev : r->snapshot()) {
            RingEvent e;
            e.tid = r->tid();
            e.ns = armNs_ + ev.tsNs;
            e.ev = ev;
            out.push_back(e);
        }
    }
    return out;
}

RingTimes
ringTimes(const std::vector<RingEvent> &events)
{
    struct Open
    {
        size_t type;
        uint64_t ns;
        uint64_t child;
    };
    RingTimes t;
    std::map<unsigned, std::vector<Open>> stacks;
    for (const RingEvent &e : events) {
        const size_t type = static_cast<size_t>(e.ev.type);
        std::vector<Open> &st = stacks[e.tid];
        if (e.ev.phase == obs::EvPhase::Begin) {
            st.push_back({type, e.ns, 0});
        } else if (e.ev.phase == obs::EvPhase::End && !st.empty() &&
                   st.back().type == type) {
            Open o = st.back();
            st.pop_back();
            uint64_t dur = e.ns > o.ns ? e.ns - o.ns : 0;
            t.total[type] += dur;
            t.self[type] += dur > o.child ? dur - o.child : 0;
            if (!st.empty())
                st.back().child += dur;
        }
    }
    return t;
}

bool
Tracer::write(const std::string &path, size_t maxEvents) const
{
    auto us = [this](uint64_t ns) {
        return static_cast<double>(ns > t0_ ? ns - t0_ : 0) / 1000.0;
    };
    Json events = Json::array();
    events.push(metaEvent("process_name", 1, 0, "onespec"));
    events.push(metaEvent("process_name", 2, 0, "perfbench"));
    events.push(metaEvent("thread_name", 2, 0, "main"));

    for (const Span &s : spans_) {
        Json e = Json::object();
        e.set("name", Json(s.name));
        e.set("cat", Json("perfbench"));
        e.set("ph", Json("X"));
        e.set("ts", Json(us(s.startNs)));
        e.set("dur", Json(static_cast<double>(s.endNs - s.startNs) / 1000.0));
        e.set("pid", Json(int64_t{2}));
        e.set("tid", Json(int64_t{0}));
        Json args = Json::object();
        args.set("id", Json(s.id));
        args.set("parent", Json(s.parent));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    // Ring events per thread in recording order, repaired so every
    // track has matched B/E pairs: ends without a begin are dropped and
    // spans still open at the cut are closed at the track's last event.
    std::map<unsigned, std::vector<const RingEvent *>> byTid;
    size_t kept = 0;
    for (const RingEvent &e : rings_) {
        if (kept++ == maxEvents)
            break;
        byTid[e.tid].push_back(&e);
    }
    for (const auto &[tid, evs] : byTid) {
        events.push(metaEvent("thread_name", 1, tid,
                              "ring " + std::to_string(tid)));
        std::vector<const RingEvent *> open;
        uint64_t last = 0;
        auto emit = [&](const RingEvent &e, const char *ph, uint64_t ns) {
            Json j = Json::object();
            j.set("name", Json(obs::evTypeName(e.ev.type)));
            j.set("cat", Json(obs::evCategory(e.ev.type)));
            j.set("ph", Json(ph));
            j.set("ts", Json(us(ns)));
            j.set("pid", Json(int64_t{1}));
            j.set("tid", Json(static_cast<int64_t>(tid)));
            Json args = Json::object();
            args.set("id", Json(uint64_t{e.ev.id}));
            args.set("a0", Json(e.ev.a0));
            args.set("a1", Json(e.ev.a1));
            if (e.cid)
                args.set("cid", Json(e.cid));
            j.set("args", std::move(args));
            events.push(std::move(j));
        };
        for (const RingEvent *e : evs) {
            last = std::max(last, e->ns);
            switch (e->ev.phase) {
            case obs::EvPhase::Begin:
                open.push_back(e);
                emit(*e, "B", e->ns);
                break;
            case obs::EvPhase::End:
                if (!open.empty() && open.back()->ev.type == e->ev.type) {
                    open.pop_back();
                    emit(*e, "E", e->ns);
                }
                break;
            case obs::EvPhase::Instant:
                emit(*e, "i", e->ns);
                break;
            }
        }
        while (!open.empty()) {
            emit(*open.back(), "E", last);
            open.pop_back();
        }
    }

    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json("ms"));
    Json other = Json::object();
    other.set("ring_events", Json(static_cast<uint64_t>(rings_.size())));
    other.set("ring_events_written",
              Json(static_cast<uint64_t>(std::min(rings_.size(), maxEvents))));
    other.set("ring_events_dropped", Json(dropped_));
    doc.set("otherData", std::move(other));

    std::ofstream f(path);
    f << doc.dump();
    return static_cast<bool>(f);
}

} // namespace perfbench
