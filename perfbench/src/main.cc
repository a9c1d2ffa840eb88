/**
 * @file
 * simbench: host-throughput benchmark of the DAPPER simulator.
 *
 *   simbench --workload W --seed N --seconds S --trace 0|1
 *            --pinned FILE [--smoke] [--git-sha SHA]
 *   simbench --pin                           print pinned fingerprints
 *   simbench --self-check --workload W --seed N [--smoke]
 *
 * A run times the construction of every cell (--trace 0 only), runs
 * every cell once at the default seed (warm-up, and the check against
 * the pinned stats fingerprints), then repeats identical passes over
 * all cells at --seed until --seconds have been measured. With
 * --trace 0 a cell's host time is the sum over slices of its fastest
 * pass; with --trace 1 each pass runs every cell untraced and traced,
 * and the per-layer metrics come from the decorators and from replays
 * of the recorded streams. The last line of stdout is the result
 * object; earlier lines carry the run stamp and per-cell detail.
 * README.md documents every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/cells.hh"
#include "perfbench/src/traced.hh"
#include "src/sim/experiment.hh"

using namespace dapper;
using namespace perfbench;

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

const char *const kUsage =
    "usage: simbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                --pinned FILE [--smoke] [--git-sha SHA]\n"
    "       simbench --pin\n"
    "       simbench --self-check --workload NAME --seed N [--smoke]\n";

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    double seconds = 0.0;
    int trace = -1;
    bool smoke = false;
    bool pin = false;
    bool selfCheck = false;
    std::string pinned;
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "simbench: %s\n%s", why.c_str(), kUsage);
    std::exit(2);
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && *end == '\0';
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.haveSeed = parseU64(value(), o.seed);
            if (!o.haveSeed)
                usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            std::uint64_t s = 0;
            if (!parseU64(value(), s) || s < 1 || s > 3600)
                usage("--seconds takes an integer in [1, 3600]");
            o.seconds = static_cast<double>(s);
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1" ? 1 : 0;
        } else if (a == "--pinned") {
            o.pinned = value();
        } else if (a == "--git-sha") {
            o.gitSha = value();
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--pin") {
            o.pin = true;
        } else if (a == "--self-check") {
            o.selfCheck = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (o.pin)
        return o;
    if (perfbench::findWorkload(o.workload) == nullptr)
        usage("unknown workload '" + o.workload + "'");
    if (!o.haveSeed)
        usage("--seed is required");
    if (o.selfCheck)
        return o;
    if (o.seconds <= 0.0 || o.trace < 0 || o.pinned.empty())
        usage("--seconds, --trace and --pinned are required");
    return o;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
pinKey(const std::string &workload, const std::string &label, Tick horizon)
{
    return workload + '\t' + label + '\t' + std::to_string(horizon);
}

std::map<std::string, std::string>
loadPins(const std::string &path)
{
    std::map<std::string, std::string> pins;
    std::ifstream in(path);
    if (!in)
        usage("cannot read pinned fingerprints '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t cut = line.rfind('\t');
        if (cut == std::string::npos)
            usage("malformed pinned line '" + line + "'");
        pins[line.substr(0, cut)] = line.substr(cut + 1);
    }
    return pins;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/**
 * System::run is timed in this many equal slices of the horizon. Host
 * interference on a shared machine comes in bursts shorter than a pass;
 * slices let the end-to-end metrics keep, for each stretch of simulated
 * time, the fastest of the run's identical passes.
 */
constexpr int kSlices = 50;
/** Rounds of constructing every cell; setup_s is their median. */
constexpr int kSetupRounds = 31;

/** One cell run through the hand-built path. */
struct CellRun
{
    StatDict dict;
    std::string fp;
    double setupS = 0.0;
    std::vector<double> sliceS; ///< kSlices host times of System::run.
    double runS = 0.0;          ///< Sum of sliceS.
    Tick ticks = 0;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

CellRun
runCell(const Workload &w, const Cell &cell, std::uint64_t seed, bool smoke,
        TraceLog *log = nullptr)
{
    const SysConfig cfg = cellConfig(cell, seed);
    const Tick horizon = cellHorizon(w, cell, smoke);
    TrackerInfo timed;
    const TrackerInfo *tracker = nullptr;
    if (log != nullptr) {
        timed = timedTrackerInfo(TrackerRegistry::instance().at(cell.tracker),
                                 *log);
        tracker = &timed;
    }
    CellRun r;
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Built> built =
        build(cfg, cell, tracker, log ? timedGenWrap(*log) : GenWrap());
    r.setupS = secondsSince(t0);
    if (log != nullptr)
        log->sys = built->sys.get();
    for (int s = 1; s <= kSlices; ++s) {
        const Clock::time_point t0 = Clock::now();
        built->sys->run(horizon * s / kSlices);
        r.sliceS.push_back(secondsSince(t0));
        r.runS += r.sliceS.back();
    }
    r.ticks = built->sys->now();
    r.dict = exportDict(*built);
    r.fp = fingerprint(r.dict);
    if (log != nullptr)
        log->sys = nullptr;
    return r;
}

/** Attempt/failure ledger; each failure keeps its reason. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &cell, const std::string &why)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(cell + ": " + why);
    }
};

/**
 * Warm-up pass at the default seed: fills the host caches and allocator
 * and checks every cell against its pinned fingerprint.
 */
void
pinnedPass(const Workload &w, const Options &o,
           const std::map<std::string, std::string> &pins, Ledger &ledger)
{
    for (const Cell &cell : w.cells) {
        ++ledger.attempted;
        try {
            const CellRun r = runCell(w, cell, defaultSeed(), o.smoke);
            const std::string ident = checkIdentities(cell, r.dict);
            const auto pin =
                pins.find(pinKey(w.name, cell.label,
                                 cellHorizon(w, cell, o.smoke)));
            if (!ident.empty())
                ledger.fail(cell.label, ident);
            else if (pin == pins.end())
                ledger.fail(cell.label, "no pinned fingerprint");
            else if (pin->second != r.fp)
                ledger.fail(cell.label, "fingerprint " + r.fp +
                                            " != pinned " + pin->second);
        } catch (const std::exception &e) {
            ledger.fail(cell.label, e.what());
        }
    }
}

/**
 * Checks on one timed cell run: the identities, and that a repeat of the
 * same seed reproduced the first pass's fingerprint exactly.
 */
bool
checkRun(const Cell &cell, const CellRun &r, std::string &firstFp,
         Ledger &ledger)
{
    const std::string ident = checkIdentities(cell, r.dict);
    if (!ident.empty()) {
        ledger.fail(cell.label, ident);
        return false;
    }
    if (firstFp.empty())
        firstFp = r.fp;
    if (r.fp != firstFp) {
        ledger.fail(cell.label, "repeat fingerprint " + r.fp + " != " +
                                    firstFp);
        return false;
    }
    return true;
}

void
printStamp(const Options &o)
{
    std::printf(
        "{\"stamp\": {\"git_sha\": %s, \"nproc\": %u, \"cpu\": %s, "
        "\"compiler\": %s, \"build_type\": %s, \"workload\": %s, "
        "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"smoke\": %s}}\n",
        jsonString(o.gitSha).c_str(), std::thread::hardware_concurrency(),
        jsonString(cpuModel()).c_str(), jsonString(PERFBENCH_COMPILER).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(o.workload).c_str(),
        static_cast<unsigned long long>(o.seed),
        jsonNumber(o.seconds).c_str(), o.trace, o.smoke ? "true" : "false");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};
using Metrics = std::vector<Metric>;

void
printResult(const Ledger &ledger, bool correct, const Metrics &metrics)
{
    const double failedShare = ratio(static_cast<double>(ledger.failed),
                                     static_cast<double>(ledger.attempted));
    std::string detail = "{\"failed_share\": " + jsonNumber(failedShare) +
                         ", \"errors\": [";
    for (std::size_t i = 0; i < ledger.errors.size(); ++i)
        detail += (i ? ", " : "") + jsonString(ledger.errors[i]);
    std::printf("%s]}\n", detail.c_str());

    std::string out = "{\"correct\": ";
    out += correct && ledger.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(ledger.attempted);
    out += ", \"failed\": " + std::to_string(ledger.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    std::printf("%s}}\n", out.c_str());
    std::fflush(stdout);
}

/**
 * setup_s: the median over rounds of constructing every cell's
 * generators and System at --seed, summed over cells. The rounds run
 * first in the process, so the allocator state they see does not depend
 * on what the workload simulated; after the first round it is as warm
 * as in a sweep, which builds one System after another.
 */
double
measureSetup(const Workload &w, const Options &o)
{
    std::vector<double> rounds;
    for (int k = 0; k < kSetupRounds; ++k) {
        double sum = 0.0;
        for (const Cell &cell : w.cells) {
            const Clock::time_point t0 = Clock::now();
            const std::unique_ptr<Built> built =
                build(cellConfig(cell, o.seed), cell);
            sum += secondsSince(t0);
        }
        rounds.push_back(sum);
    }
    return median(rounds);
}

/**
 * --trace 0: end-to-end metrics over identical passes at --seed. Host
 * run time of a cell is the sum over its slices of the fastest pass.
 */
int
runEndToEnd(const Workload &w, const Options &o,
            const std::map<std::string, std::string> &pins)
{
    Ledger ledger;
    double setupS = 0.0;
    try {
        setupS = measureSetup(w, o);
    } catch (const std::exception &e) {
        ledger.fail("setup", e.what());
    }
    pinnedPass(w, o, pins, ledger);

    const std::size_t nCells = w.cells.size();
    std::vector<std::string> firstFp(nCells);
    std::vector<std::vector<double>> best(nCells); // per cell, per slice
    std::vector<std::vector<double>> passRunS(nCells);
    double ticks = 0.0, reqs = 0.0, measured = 0.0;
    int passes = 0;
    bool ok = true;
    while (ok && (measured < o.seconds || passes == 0)) {
        ticks = reqs = 0.0;
        for (std::size_t c = 0; c < nCells && ok; ++c) {
            const Cell &cell = w.cells[c];
            ++ledger.attempted;
            try {
                const CellRun r = runCell(w, cell, o.seed, o.smoke);
                ok = checkRun(cell, r, firstFp[c], ledger);
                if (best[c].empty())
                    best[c] = r.sliceS;
                for (int s = 0; s < kSlices; ++s)
                    best[c][s] = std::min(best[c][s], r.sliceS[s]);
                passRunS[c].push_back(r.runS);
                ticks += static_cast<double>(r.ticks);
                reqs += static_cast<double>(dramRequests(
                    r.dict, static_cast<int>(r.dict.u64("sys.channels"))));
                measured += r.setupS + r.runS;
            } catch (const std::exception &e) {
                ledger.fail(cell.label, e.what());
                ok = false; // A failed pass measures nothing; report.
            }
        }
        if (ok)
            ++passes;
    }

    double runS = 0.0, slowest = 0.0;
    std::string cells = "{\"passes\": " + std::to_string(passes) +
                        ", \"cells\": [";
    for (std::size_t c = 0; c < nCells; ++c) {
        double cellS = 0.0;
        for (const double t : best[c])
            cellS += t;
        runS += cellS;
        slowest = std::max(slowest, cellS);
        cells += std::string(c ? ", " : "") + "{\"cell\": " +
                 jsonString(w.cells[c].label) + ", \"best_slices_s\": " +
                 jsonNumber(cellS) + ", \"median_pass_s\": " +
                 jsonNumber(median(passRunS[c])) + ", \"fingerprint\": " +
                 jsonString(firstFp[c]) + "}";
    }
    std::printf("%s]}\n", cells.c_str());

    printResult(ledger, ok && passes > 0,
                {
                    {"sim_ticks_per_s", ratio(ticks, runS), "1/s"},
                    {"dram_req_per_s", ratio(reqs, runS), "1/s"},
                    {"slowest_cell_s", slowest, "s"},
                    {"setup_s", setupS, "s"},
                    {"peak_rss_mb", peakRssMb(), "MB"},
                });
    return 0;
}

/** Tracker names whose replay cost the traced run reports. */
const std::vector<std::string> kReplayTrackers = {
    "hydra", "start", "comet", "abacus", "dapper-h", "blockhammer"};

/** Simulated counts summed over the cells' untraced stats dicts. */
struct Totals
{
    double requests = 0, acts = 0, rowHits = 0, rowMisses = 0;
    double latencySum = 0, latencyCount = 0, blockedTicks = 0;
    double gtActs = 0, llcHits = 0, llcMisses = 0, counterAccesses = 0;
    double retired = 0, mitigations = 0;
};

Totals
sumTotals(const std::vector<StatDict> &dicts)
{
    Totals t;
    for (const StatDict &d : dicts) {
        if (d.empty())
            continue; // The cell failed before its first pass finished.
        const int channels = static_cast<int>(d.u64("sys.channels"));
        const auto mem = [&](const char *stat) {
            return static_cast<double>(sumChannels(d, channels, stat));
        };
        t.requests += static_cast<double>(dramRequests(d, channels));
        t.acts += mem("activations");
        t.rowHits += mem("rowHits");
        t.rowMisses += mem("rowMisses");
        t.blockedTicks += mem("busyBlockedTicks");
        for (int ch = 0; ch < channels; ++ch) {
            const std::string m = "mem." + std::to_string(ch) + ".";
            const double n = static_cast<double>(d.u64(m + "readLatencyCount"));
            t.latencySum += d.f64(m + "avgReadLatency") * n;
            t.latencyCount += n;
        }
        t.gtActs += static_cast<double>(d.u64("gt.activations"));
        t.llcHits += static_cast<double>(d.u64("llc.hits"));
        t.llcMisses += static_cast<double>(d.u64("llc.misses"));
        t.counterAccesses += static_cast<double>(d.u64("llc.counterHits") +
                                                 d.u64("llc.counterMisses"));
        for (int i = 0; i < static_cast<int>(d.u64("sys.numCores")); ++i)
            t.retired += static_cast<double>(
                d.u64("core." + std::to_string(i) + ".retired"));
        if (d.has("tracker.mitigations"))
            t.mitigations += static_cast<double>(d.u64("tracker.mitigations"));
    }
    return t;
}

/** Replay costs summed over the cells' recorded streams. */
struct Replays
{
    ReplayCost groundTruth;
    std::map<std::string, ReplayCost> trackers;
    Span llcAccess;
    Span controller;
    std::uint64_t requests = 0;
};

/** Replay every cell's log; a stuck memory replay fails its cell. */
bool
replayAll(const Workload &w, const Options &o,
          const std::vector<std::unique_ptr<TraceLog>> &logs, Replays &out,
          Ledger &ledger)
{
    bool ok = true;
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
        const Cell &cell = w.cells[c];
        const TrackerInfo &info = TrackerRegistry::instance().at(cell.tracker);
        SysConfig cfg = cellConfig(cell, o.seed);
        info.adjustConfig(cfg);
        const MemoryReplay mem = replayMemory(cfg, info.reservesLlc, *logs[c]);
        if (!mem.error.empty()) {
            ledger.fail(cell.label, mem.error);
            ok = false;
        }
        out.llcAccess.merge(mem.llcAccess);
        out.controller.merge(mem.controller);
        out.requests += mem.requests;
        if (logs[c]->actsRecorded == 0)
            continue; // Untracked cell: no ACT stream was seen.
        out.groundTruth.merge(replayGroundTruth(cfg, *logs[c]));
        for (const std::string &name : kReplayTrackers)
            out.trackers[name].merge(
                replayTracker(TrackerRegistry::instance().at(name),
                              cellConfig(cell, o.seed), *logs[c]));
    }
    return ok;
}

/** One pass of the traced run: every cell untraced, then traced. */
struct Pair
{
    double untracedNs = 0.0;
    double tracedNs = 0.0;
    Tick ticks = 0;
    Span act, throttle, periodic, window, next;
};

/** --trace 1: per-layer metrics from decorated and replayed runs. */
int
runTraced(const Workload &w, const Options &o,
          const std::map<std::string, std::string> &pins)
{
    Ledger ledger;
    pinnedPass(w, o, pins, ledger);
    const double overhead = spanOverheadNs();

    // The first pass keeps its logs and stats dicts for the replays and
    // counts; later passes only add timing samples.
    std::vector<Pair> pairs;
    std::vector<std::string> firstFp(w.cells.size());
    std::vector<std::unique_ptr<TraceLog>> logs(w.cells.size());
    std::vector<StatDict> dicts(w.cells.size());
    std::map<std::string, Span> perTracker; // live onActivation by name
    bool correct = true;
    double measured = 0.0;
    while (correct && (measured < o.seconds || pairs.empty())) {
        Pair p;
        for (std::size_t c = 0; c < w.cells.size() && correct; ++c) {
            const Cell &cell = w.cells[c];
            ledger.attempted += 2;
            try {
                const CellRun u = runCell(w, cell, o.seed, o.smoke);
                auto log = std::make_unique<TraceLog>();
                const CellRun t = runCell(w, cell, o.seed, o.smoke, log.get());
                correct = checkRun(cell, u, firstFp[c], ledger);
                if (correct && t.fp != u.fp) {
                    ledger.fail(cell.label, "traced fingerprint " + t.fp +
                                                " != untraced " + u.fp);
                    correct = false;
                }
                p.untracedNs += u.runS * 1e9;
                p.tracedNs += t.runS * 1e9;
                p.ticks += u.ticks;
                p.act.merge(log->onActivation);
                p.throttle.merge(log->throttleUntil);
                p.periodic.merge(log->onPeriodic);
                p.window.merge(log->onRefreshWindow);
                p.next.merge(log->next);
                measured += u.runS + t.runS;
                if (pairs.empty()) {
                    perTracker[cell.tracker].merge(log->onActivation);
                    logs[c] = std::move(log);
                    dicts[c] = u.dict;
                }
            } catch (const std::exception &e) {
                ledger.fail(cell.label, e.what());
                correct = false;
            }
        }
        if (correct)
            pairs.push_back(p);
    }
    const Totals tot = sumTotals(dicts);
    Replays rep;
    if (correct)
        correct = replayAll(w, o, logs, rep, ledger);

    std::vector<double> actNs, actShare, throttleNs, periodicNs, nextNs,
        nextShare, selfShare, runS, traceOverhead, nsPerTick;
    for (const Pair &p : pairs) {
        const double seams = p.act.netNs(overhead) +
                             p.throttle.netNs(overhead) +
                             p.periodic.netNs(overhead) +
                             p.window.netNs(overhead) + p.next.netNs(overhead);
        actNs.push_back(p.act.netPerCall(overhead));
        actShare.push_back(ratio(p.act.netNs(overhead), p.untracedNs));
        throttleNs.push_back(p.throttle.netPerCall(overhead));
        periodicNs.push_back(p.periodic.netPerCall(overhead));
        nextNs.push_back(p.next.netPerCall(overhead));
        nextShare.push_back(ratio(p.next.netNs(overhead), p.untracedNs));
        selfShare.push_back(ratio(p.untracedNs - seams, p.untracedNs));
        runS.push_back(p.untracedNs * 1e-9);
        traceOverhead.push_back(ratio(p.tracedNs, p.untracedNs) - 1.0);
        nsPerTick.push_back(ratio(p.untracedNs, static_cast<double>(p.ticks)));
    }
    const Pair first = pairs.empty() ? Pair{} : pairs.front();

    std::string detail = "{\"passes\": " + std::to_string(pairs.size()) +
                         ", \"span_overhead_ns\": " + jsonNumber(overhead) +
                         ", \"live_on_activation_ns\": {";
    bool firstName = true;
    for (const auto &[name, span] : perTracker) {
        if (span.calls == 0)
            continue;
        detail += std::string(firstName ? "" : ", ") + jsonString(name) +
                  ": " + jsonNumber(span.netPerCall(overhead));
        firstName = false;
    }
    std::printf("%s}}\n", detail.c_str());

    const double llcAccesses = tot.llcHits + tot.llcMisses;
    Metrics m = {
        {"rh.tracker.on_activation_ns", median(actNs), "ns"},
        {"rh.tracker.on_activation_share", median(actShare), "ratio"},
        {"rh.tracker.throttle_until_ns", median(throttleNs), "ns"},
        {"rh.tracker.on_periodic_ns", median(periodicNs), "ns"},
        {"rh.tracker.mitigations_per_kact",
         1000.0 * ratio(tot.mitigations, static_cast<double>(first.act.calls)),
         "1/kACT"},
    };
    for (const std::string &name : kReplayTrackers)
        m.push_back({"rh.tracker." + name + ".replay_ns",
                     rep.trackers[name].perCall(), "ns"});
    const Metrics rest = {
        {"mem.ns_per_request",
         ratio(rep.controller.netNs(overhead),
               static_cast<double>(rep.requests)),
         "ns"},
        {"mem.requests", tot.requests, "count"},
        {"mem.activations", tot.acts, "count"},
        {"mem.row_hit_ratio", ratio(tot.rowHits, tot.rowHits + tot.rowMisses),
         "ratio"},
        {"mem.avg_read_latency_ticks",
         ratio(tot.latencySum, tot.latencyCount), "ticks"},
        {"mem.blocked_bank_ticks", tot.blockedTicks, "bank-ticks"},
        {"rh.gt.on_activation_ns", rep.groundTruth.perCall(), "ns"},
        {"rh.gt.activations", tot.gtActs, "count"},
        {"cache.llc.access_ns", rep.llcAccess.netPerCall(overhead), "ns"},
        {"cache.llc.accesses", llcAccesses, "count"},
        {"cache.llc.hit_ratio", ratio(tot.llcHits, llcAccesses), "ratio"},
        {"cache.llc.counter_accesses", tot.counterAccesses, "count"},
        {"workload.next_ns", median(nextNs), "ns"},
        {"workload.next_calls", static_cast<double>(first.next.calls),
         "count"},
        {"workload.next_share", median(nextShare), "ratio"},
        {"sim.host_ns_per_tick", median(nsPerTick), "ns"},
        {"sim.self_share", median(selfShare), "ratio"},
        {"cpu.retired", tot.retired, "count"},
        {"sim.run_s", median(runS), "s"},
        {"sim.trace_overhead", median(traceOverhead), "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    printResult(ledger, correct, m);
    return 0;
}

/** --pin: fingerprints from runOnce at the default seed, both horizons. */
int
writePins()
{
    std::printf("# workload\tcell\thorizon\tfingerprint (runOnce, seed %llu)\n",
                static_cast<unsigned long long>(defaultSeed()));
    for (const Workload &w : workloads())
        for (const bool smoke : {false, true})
            for (const Cell &cell : w.cells) {
                const Tick horizon = cellHorizon(w, cell, smoke);
                const RunResult r = runOnce(
                    cellConfig(cell, defaultSeed()), cell.workloads,
                    AttackRegistry::instance().at(cell.attack),
                    TrackerRegistry::instance().at(cell.tracker), horizon);
                std::printf("%s\t%s\n",
                            pinKey(w.name, cell.label, horizon).c_str(),
                            fingerprint(r.stats).c_str());
                std::fflush(stdout);
            }
    return 0;
}

/**
 * --self-check: for every cell, runOnce, the hand-built path and the
 * traced hand-built path must export the same stats dict exactly.
 */
int
selfCheck(const Workload &w, const Options &o)
{
    int bad = 0;
    for (const Cell &cell : w.cells) {
        const Tick horizon = cellHorizon(w, cell, o.smoke);
        const RunResult ref =
            runOnce(cellConfig(cell, o.seed), cell.workloads,
                    AttackRegistry::instance().at(cell.attack),
                    TrackerRegistry::instance().at(cell.tracker), horizon);
        const CellRun plain = runCell(w, cell, o.seed, o.smoke);
        TraceLog log;
        const CellRun traced = runCell(w, cell, o.seed, o.smoke, &log);
        std::string diff = firstDifference(ref.stats, plain.dict);
        if (diff.empty() && !(traced.dict == ref.stats))
            diff = "traced: " + firstDifference(ref.stats, traced.dict);
        const bool ok = diff.empty();
        const std::string at = diff.empty() ? "" : " at " + diff;
        std::printf("%-24s %s runOnce=%s hand-built=%s traced=%s%s\n",
                    cell.label.c_str(), ok ? "ok  " : "DIFF",
                    fingerprint(ref.stats).c_str(), plain.fp.c_str(),
                    traced.fp.c_str(), at.c_str());
        bad += ok ? 0 : 1;
    }
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    try {
        if (o.pin)
            return writePins();
        const Workload &w = *perfbench::findWorkload(o.workload);
        if (o.selfCheck)
            return selfCheck(w, o);
        if (!kOptimizedBuild) {
            std::fprintf(stderr, "simbench: refusing to time a build without "
                                 "optimisation and NDEBUG\n");
            return 3;
        }
        const auto pins = loadPins(o.pinned);
        printStamp(o);
        return o.trace == 1 ? runTraced(w, o, pins) : runEndToEnd(w, o, pins);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 1;
    }
}
