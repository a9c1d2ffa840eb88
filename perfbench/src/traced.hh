/**
 * @file
 * The traced run: decorators around the simulator's two virtual seams
 * (Tracker and TraceGen) that time every forwarded call and record the
 * ACT and access streams, plus replays of those streams through the
 * public APIs of GroundTruth, registry trackers, Llc and MemController
 * for per-call costs. Nothing here changes what the simulator computes:
 * main.cc asserts that a traced cell's stats fingerprint equals the
 * untraced one.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/cells.hh"
#include "src/rh/tracker.hh"
#include "src/workload/trace_gen.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nsSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

/** Calls into one seam and the host time they took (raw, uncorrected). */
struct Span
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void
    add(std::int64_t d)
    {
        ++calls;
        ns += d;
    }
    void
    merge(const Span &o)
    {
        calls += o.calls;
        ns += o.ns;
    }
    /** Time with the cost of the span's own clock reads taken out. */
    double
    netNs(double overheadNs) const
    {
        const double net = static_cast<double>(ns) -
                           overheadNs * static_cast<double>(calls);
        return net > 0.0 ? net : 0.0;
    }
    double
    netPerCall(double overheadNs) const
    {
        return calls ? netNs(overheadNs) / static_cast<double>(calls) : 0.0;
    }
};

/** Tracker-side event recorded in call order. */
struct TrackerEvent
{
    enum class Kind : std::uint8_t
    {
        Act,
        Throttle,
        Periodic,
        Window,
    };
    Kind kind;
    dapper::ActEvent act; ///< Periodic / Window carry only act.now.
};

/** One TraceGen::next() result and the tick it was pulled at. */
struct Access
{
    std::uint64_t addr;
    dapper::Tick tick;
    bool isWrite;
    bool bypassLlc;
};

/** Everything the decorators saw while one cell ran. */
struct TraceLog
{
    /// Streams stop recording at these sizes; timing continues.
    static constexpr std::size_t kMaxActs = 150000;
    static constexpr std::size_t kMaxAccesses = 300000;

    Span onActivation;
    Span throttleUntil;
    Span onPeriodic;
    Span onRefreshWindow;
    Span next;

    std::vector<TrackerEvent> trackerEvents;
    std::size_t actsRecorded = 0;
    bool trackerFull = false;
    std::vector<Access> accesses;
    /// Read for access timestamps; set once the System exists.
    const dapper::System *sys = nullptr;
};

/**
 * Registry entry identical to @p info except that make() wraps the
 * tracker in a timing decorator reporting into @p log. The decorator
 * copies the inner tracker's mitigation count after every forwarded
 * hook, because Tracker::mitigations() is non-virtual and the tREFI
 * probe reads it.
 */
dapper::TrackerInfo timedTrackerInfo(const dapper::TrackerInfo &info,
                                     TraceLog &log);

/** Generator wrapper that times next() and records its results. */
GenWrap timedGenWrap(TraceLog &log);

/** Median cost of one empty span (two clock reads), in ns. */
double spanOverheadNs();

/** Host time of a replay and the number of calls it made. */
struct ReplayCost
{
    std::uint64_t calls = 0;
    double ns = 0.0;

    void
    merge(const ReplayCost &o)
    {
        calls += o.calls;
        ns += o.ns;
    }
    double
    perCall() const
    {
        return calls ? ns / static_cast<double>(calls) : 0.0;
    }
};

/** GroundTruth::onActivation over the recorded ACTs (window boundaries
 *  replayed where the tracker saw them). */
ReplayCost replayGroundTruth(const dapper::SysConfig &cfg,
                             const TraceLog &log);

/** A fresh registry tracker over the recorded hook sequence; cost per
 *  recorded ACT, counting every hook. */
ReplayCost replayTracker(const dapper::TrackerInfo &info,
                         const dapper::SysConfig &cfg, const TraceLog &log);

/** Llc::access and MemController::enqueue/tick over the recorded access
 *  stream, paced by its ticks. */
struct MemoryReplay
{
    Span llcAccess;
    Span controller; ///< enqueue (bypass reads) + tick.
    std::uint64_t requests = 0; ///< Reads + writes the controllers served.
    std::string error;
};
MemoryReplay replayMemory(const dapper::SysConfig &cfg, bool reserveLlc,
                          const TraceLog &log);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
