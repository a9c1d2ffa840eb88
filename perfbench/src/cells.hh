/**
 * @file
 * The benchmark's workloads and the hand-built System path.
 *
 * A workload is a fixed list of cells (benign workload list, tracker,
 * attack, nRH) run for a fixed number of tREFW windows. The benchmark
 * builds each cell's System itself, the way runOnce does, so that it can
 * time construction and System::run from outside and, in the traced run,
 * swap in decorated trackers and trace generators. checkAgainstRunOnce
 * proves the two paths produce the same stats dict.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/config.hh"
#include "src/common/stats.hh"
#include "src/rh/registry.hh"
#include "src/sim/probe.hh"
#include "src/sim/system.hh"
#include "src/workload/attack_registry.hh"

namespace perfbench {

struct Cell
{
    std::string label;
    /// Benign per-core workload list (core i runs workloads[i % n]).
    std::vector<std::string> workloads;
    std::string tracker;
    std::string attack;
    int nRH;
};

struct Workload
{
    std::string name;
    double windows; ///< Horizon in (scaled) tREFW windows.
    std::vector<Cell> cells;
};

const std::vector<Workload> &workloads();
/** nullptr when @p name is not a benchmark workload. */
const Workload *findWorkload(const std::string &name);

/** Seed of the pinned fingerprints: SysConfig's default seed. */
std::uint64_t defaultSeed();

dapper::SysConfig cellConfig(const Cell &cell, std::uint64_t seed);

/** Simulated horizon; @p smoke shrinks it to 1/16 of one window. */
dapper::Tick cellHorizon(const Workload &workload, const Cell &cell,
                         bool smoke);

using GenWrap = std::function<std::unique_ptr<dapper::TraceGen>(
    std::unique_ptr<dapper::TraceGen>)>;

/** One cell's System, built exactly as runOnce builds it. */
struct Built
{
    /// Attack generators keep a reference to the mapper they were made
    /// with, so it lives as long as the System.
    std::unique_ptr<dapper::AddressMapper> mapper;
    std::unique_ptr<dapper::System> sys;
    dapper::TrefiSeriesProbe probe;
    int attackerCore = -1;
};

/**
 * Resolve the cell's generators and tracker through the registries and
 * construct its System. @p tracker defaults to the registry entry named
 * by the cell; @p wrap, when set, decorates each core's generator.
 */
std::unique_ptr<Built> build(const dapper::SysConfig &cfg, const Cell &cell,
                             const dapper::TrackerInfo *tracker = nullptr,
                             const GenWrap &wrap = nullptr);

/** The full stats dict in runOnce's order: component tree, then probe. */
dapper::StatDict exportDict(const Built &built);

/** Name of the first entry or series where @p a and @p b differ; empty
 *  when the dicts are equal. */
std::string firstDifference(const dapper::StatDict &a,
                            const dapper::StatDict &b);

/** FNV-1a over every entry and series (names, types and value bits). */
std::string fingerprint(const dapper::StatDict &dict);

/**
 * Identities every run must satisfy: energy reads balance controller
 * reads plus counter reads, and a defended cell shows no RowHammer
 * violation. Returns an empty string when they hold.
 */
std::string checkIdentities(const Cell &cell, const dapper::StatDict &dict);

/** Sum of one per-channel controller stat over every channel. */
std::uint64_t sumChannels(const dapper::StatDict &dict, int channels,
                          const char *stat);

/** Reads, writes and counter reads/writes over every channel. */
std::uint64_t dramRequests(const dapper::StatDict &dict, int channels);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
