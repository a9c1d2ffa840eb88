#include "perfbench/src/traced.hh"

#include <algorithm>

#include "src/cache/llc.hh"
#include "src/mem/controller.hh"
#include "src/rh/ground_truth.hh"

namespace perfbench {

using namespace dapper;

namespace {

class TimedTracker final : public Tracker
{
  public:
    TimedTracker(std::unique_ptr<Tracker> inner, TraceLog &log)
        : inner_(std::move(inner)), log_(log)
    {
        sync();
    }

    void
    onActivation(const ActEvent &event, MitigationVec &out) override
    {
        const Clock::time_point t0 = Clock::now();
        inner_->onActivation(event, out);
        log_.onActivation.add(nsSince(t0));
        sync();
        if (record(TrackerEvent::Kind::Act, event))
            ++log_.actsRecorded;
    }

    void
    onRefreshWindow(Tick now, MitigationVec &out) override
    {
        const Clock::time_point t0 = Clock::now();
        inner_->onRefreshWindow(now, out);
        log_.onRefreshWindow.add(nsSince(t0));
        sync();
        record(TrackerEvent::Kind::Window, at(now));
    }

    void
    onPeriodic(Tick now, MitigationVec &out) override
    {
        const Clock::time_point t0 = Clock::now();
        inner_->onPeriodic(now, out);
        log_.onPeriodic.add(nsSince(t0));
        sync();
        record(TrackerEvent::Kind::Periodic, at(now));
    }

    Tick
    throttleUntil(const ActEvent &event) override
    {
        const Clock::time_point t0 = Clock::now();
        const Tick until = inner_->throttleUntil(event);
        log_.throttleUntil.add(nsSince(t0));
        sync();
        record(TrackerEvent::Kind::Throttle, event);
        return until;
    }

    Tick actExtraTicks() const override { return inner_->actExtraTicks(); }
    StorageEstimate storage() const override { return inner_->storage(); }
    std::string name() const override { return inner_->name(); }
    void exportStats(StatWriter &w) const override { inner_->exportStats(w); }

  private:
    static ActEvent
    at(Tick now)
    {
        ActEvent e;
        e.now = now;
        return e;
    }

    /** Mirror the inner count: the probe reads mitigations() directly. */
    void sync() { mitigations_ = inner_->mitigations(); }

    bool
    record(TrackerEvent::Kind kind, const ActEvent &event)
    {
        if (log_.trackerFull)
            return false;
        if (log_.actsRecorded >= TraceLog::kMaxActs) {
            log_.trackerFull = true;
            return false;
        }
        log_.trackerEvents.push_back({kind, event});
        return true;
    }

    std::unique_ptr<Tracker> inner_;
    TraceLog &log_;
};

class TimedGen final : public TraceGen
{
  public:
    TimedGen(std::unique_ptr<TraceGen> inner, TraceLog &log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    TraceRecord
    next() override
    {
        const Clock::time_point t0 = Clock::now();
        const TraceRecord rec = inner_->next();
        log_.next.add(nsSince(t0));
        if (log_.accesses.size() < TraceLog::kMaxAccesses)
            log_.accesses.push_back(
                {rec.addr, log_.sys != nullptr ? log_.sys->now() : 0,
                 rec.isWrite, rec.bypassLlc});
        return rec;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TraceGen> inner_;
    TraceLog &log_;
};

/** Controllers with no tracker, GroundTruth or energy model attached,
 *  and an LLC over them: the memory side of one channel set. */
struct MemorySide
{
    explicit MemorySide(const SysConfig &c) : cfg(c), mapper(cfg)
    {
        for (int ch = 0; ch < cfg.channels; ++ch) {
            owned.push_back(std::make_unique<MemController>(
                cfg, ch, nullptr, nullptr, nullptr));
            owned.back()->setEventScheduling(true);
            controllers.push_back(owned.back().get());
        }
        llc = std::make_unique<Llc>(cfg, mapper, controllers);
    }

    SysConfig cfg;
    AddressMapper mapper;
    std::vector<std::unique_ptr<MemController>> owned;
    std::vector<MemController *> controllers;
    std::unique_ptr<Llc> llc;
};

} // namespace

TrackerInfo
timedTrackerInfo(const TrackerInfo &info, TraceLog &log)
{
    TrackerInfo timed = info;
    timed.make = [make = info.make, &log](SysConfig &cfg, Llc *llc)
        -> std::unique_ptr<Tracker> {
        std::unique_ptr<Tracker> inner = make(cfg, llc);
        if (inner == nullptr)
            return nullptr; // "none": no seam to wrap.
        return std::make_unique<TimedTracker>(std::move(inner), log);
    };
    return timed;
}

GenWrap
timedGenWrap(TraceLog &log)
{
    return [&log](std::unique_ptr<TraceGen> gen) {
        return std::unique_ptr<TraceGen>(
            std::make_unique<TimedGen>(std::move(gen), log));
    };
}

double
spanOverheadNs()
{
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
        std::int64_t sum = 0;
        constexpr int kSpans = 20000;
        for (int i = 0; i < kSpans; ++i)
            sum += nsSince(Clock::now());
        batches.push_back(static_cast<double>(sum) / kSpans);
    }
    std::nth_element(batches.begin(), batches.begin() + 4, batches.end());
    return batches[4];
}

ReplayCost
replayGroundTruth(const SysConfig &cfg, const TraceLog &log)
{
    GroundTruth gt(cfg);
    ReplayCost cost;
    const Clock::time_point t0 = Clock::now();
    for (const TrackerEvent &ev : log.trackerEvents) {
        if (ev.kind == TrackerEvent::Kind::Act) {
            gt.onActivation(ev.act.channel, ev.act.rank, ev.act.bank,
                            ev.act.row);
            ++cost.calls;
        } else if (ev.kind == TrackerEvent::Kind::Window) {
            gt.onWindowBoundary();
        }
    }
    cost.ns = static_cast<double>(nsSince(t0));
    return cost;
}

ReplayCost
replayTracker(const TrackerInfo &info, const SysConfig &cellCfg,
              const TraceLog &log)
{
    SysConfig cfg = cellCfg;
    info.adjustConfig(cfg);
    MemorySide side(cfg);
    if (info.reservesLlc)
        side.llc->reserveWays(cfg.llcWays / 2, 0);
    const std::unique_ptr<Tracker> tracker = info.make(cfg, side.llc.get());
    ReplayCost cost;
    if (tracker == nullptr)
        return cost;
    MitigationVec out;
    const Clock::time_point t0 = Clock::now();
    for (const TrackerEvent &ev : log.trackerEvents) {
        switch (ev.kind) {
          case TrackerEvent::Kind::Act:
            tracker->onActivation(ev.act, out);
            ++cost.calls;
            break;
          case TrackerEvent::Kind::Throttle:
            (void)tracker->throttleUntil(ev.act);
            break;
          case TrackerEvent::Kind::Periodic:
            tracker->onPeriodic(ev.act.now, out);
            break;
          case TrackerEvent::Kind::Window:
            tracker->onRefreshWindow(ev.act.now, out);
            break;
        }
        out.clear();
    }
    cost.ns = static_cast<double>(nsSince(t0));
    return cost;
}

MemoryReplay
replayMemory(const SysConfig &cfg, bool reserveLlc, const TraceLog &log)
{
    MemorySide side(cfg);
    if (reserveLlc)
        side.llc->reserveWays(cfg.llcWays / 2, 0);
    std::vector<MemController *> &mcs = side.controllers;
    MemoryReplay out;
    Tick t = 0;

    const auto minWork = [&] {
        Tick m = kTickMax;
        for (MemController *mc : mcs)
            m = std::min(m, mc->nextWorkAt());
        return m;
    };
    // Tick every controller due at t, as System::run does, then move to
    // the next tick with work (at least t + 1).
    const auto step = [&] {
        for (MemController *mc : mcs) {
            if (mc->nextWorkAt() <= t) {
                const Clock::time_point t0 = Clock::now();
                mc->tick(t);
                out.controller.add(nsSince(t0));
            }
        }
        const Tick m = minWork();
        t = std::max(t + 1, m == kTickMax ? t + 1 : m);
    };

    for (const Access &a : log.accesses) {
        while (minWork() < a.tick && t < a.tick)
            step();
        t = std::max(t, a.tick);
        const DramAddress dram = side.mapper.decode(a.addr);
        MemController *mc = mcs[static_cast<std::size_t>(dram.channel)];
        for (int tries = 0;; ++tries) {
            if (tries > 10000000) {
                out.error = "memory replay made no progress";
                return out;
            }
            if (!mc->readQueueFull()) {
                if (a.bypassLlc) {
                    Request req;
                    req.dram = dram;
                    req.type = ReqType::Read;
                    const Clock::time_point t0 = Clock::now();
                    const bool ok = mc->enqueue(req, t);
                    out.controller.add(nsSince(t0));
                    if (ok)
                        break;
                } else {
                    const Clock::time_point t0 = Clock::now();
                    const CacheResult res = side.llc->access(
                        a.addr, a.isWrite, nullptr, Llc::kNoSlot, t);
                    out.llcAccess.add(nsSince(t0));
                    if (res != CacheResult::Blocked)
                        break;
                }
            }
            step();
        }
    }
    for (MemController *mc : mcs)
        out.requests += mc->stats().reads + mc->stats().writes;
    return out;
}

} // namespace perfbench
