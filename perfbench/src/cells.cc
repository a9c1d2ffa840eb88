#include "perfbench/src/cells.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/workload/workload_registry.hh"

namespace perfbench {

using namespace dapper;

const std::vector<Workload> &
workloads()
{
    // Why each workload exists, and which layer it loads: README.md.
    static const std::vector<Workload> list = {
        {"perf-attack",
         0.5,
         {
             {"hydra/hydra-rcc", {"429.mcf"}, "hydra", "hydra-rcc", 500},
             {"start/start-stream", {"429.mcf"}, "start", "start-stream",
              500},
             {"comet/comet-rat", {"429.mcf"}, "comet", "comet-rat", 500},
             {"abacus/abacus-spill", {"429.mcf"}, "abacus", "abacus-spill",
              500},
             {"none/cache-thrash", {"429.mcf"}, "none", "cache-thrash",
              500},
             {"dapper-h/refresh", {"429.mcf"}, "dapper-h", "refresh", 500},
             {"dapper-h/streaming", {"429.mcf"}, "dapper-h", "streaming",
              500},
         }},
        {"dapper-h-lowthreshold",
         0.5,
         {
             {"dapper-h/429.mcf", {"429.mcf"}, "dapper-h", "none", 125},
             {"dapper-h/510.parest", {"510.parest"}, "dapper-h", "none",
              125},
             {"dapper-h/ycsb-a", {"ycsb-a"}, "dapper-h", "none", 125},
         }},
        {"sparse-events",
         8,
         {
             {"none/456.hmmer", {"456.hmmer"}, "none", "none", 500},
             {"none/403.gcc", {"403.gcc"}, "none", "none", 500},
             {"none/444.namd", {"444.namd"}, "none", "none", 500},
             {"blockhammer/429.mcf", {"429.mcf"}, "blockhammer", "none",
              125},
             {"blockhammer/ycsb-a", {"ycsb-a"}, "blockhammer", "none", 125},
         }},
    };
    return list;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::uint64_t
defaultSeed()
{
    return SysConfig{}.seed;
}

SysConfig
cellConfig(const Cell &cell, std::uint64_t seed)
{
    SysConfig cfg;
    cfg.nRH = cell.nRH;
    cfg.seed = seed;
    return cfg;
}

Tick
cellHorizon(const Workload &workload, const Cell &cell, bool smoke)
{
    const SysConfig cfg = cellConfig(cell, defaultSeed());
    if (smoke)
        return cfg.tREFW() / 16;
    return static_cast<Tick>(workload.windows *
                             static_cast<double>(cfg.tREFW()));
}

std::unique_ptr<Built>
build(const SysConfig &cfg, const Cell &cell, const TrackerInfo *tracker,
      const GenWrap &wrap)
{
    // Mirrors runOnce (src/sim/experiment.cc): benign cores first, the
    // attacker on the last core, generator seeds offset from cfg.seed.
    const AttackInfo &attack = AttackRegistry::instance().at(cell.attack);
    if (tracker == nullptr)
        tracker = &TrackerRegistry::instance().at(cell.tracker);
    WorkloadRegistry &registry = WorkloadRegistry::instance();
    std::vector<const WorkloadInfo *> infos;
    for (const std::string &name : cell.workloads)
        infos.push_back(&registry.at(name));

    auto built = std::make_unique<Built>();
    built->mapper = std::make_unique<AddressMapper>(cfg);
    std::vector<std::unique_ptr<TraceGen>> gens;
    for (int i = 0; i < cfg.numCores; ++i) {
        std::unique_ptr<TraceGen> gen;
        if (!attack.isNone() && i == cfg.numCores - 1) {
            built->attackerCore = i;
            gen = attack.make(cfg, *built->mapper, cfg.seed + 777);
        } else {
            gen = infos[static_cast<std::size_t>(i) % infos.size()]->make(
                cfg, i, cfg.seed + 13);
        }
        gens.push_back(wrap ? wrap(std::move(gen)) : std::move(gen));
    }
    built->sys = std::make_unique<System>(cfg, *tracker, std::move(gens),
                                          built->attackerCore);
    built->sys->attachProbe(&built->probe);
    return built;
}

StatDict
exportDict(const Built &built)
{
    StatDict dict;
    StatWriter writer(dict);
    built.sys->exportStats(writer);
    built.probe.exportStats(writer);
    return dict;
}

namespace {

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ull;
        }
    }
    void str(const std::string &s) { bytes(s.c_str(), s.size() + 1); }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }
};

} // namespace

std::string
fingerprint(const StatDict &dict)
{
    Fnv f;
    for (const StatEntry &e : dict.entries()) {
        f.str(e.name);
        if (e.type == StatEntry::Type::U64) {
            f.bytes("u", 1);
            f.bytes(&e.u64, sizeof e.u64);
        } else {
            f.bytes("f", 1);
            f.f64(e.f64);
        }
    }
    for (const StatSeries &s : dict.series()) {
        f.str(s.name);
        const std::uint64_t n = s.values.size();
        f.bytes(&n, sizeof n);
        for (const double v : s.values)
            f.f64(v);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(f.h));
    return buf;
}

std::string
firstDifference(const StatDict &a, const StatDict &b)
{
    const std::size_t n = std::min(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < n; ++i)
        if (!(a.entries()[i] == b.entries()[i]))
            return a.entries()[i].name;
    if (a.entries().size() != b.entries().size())
        return "<entry count>";
    const std::size_t m = std::min(a.series().size(), b.series().size());
    for (std::size_t i = 0; i < m; ++i)
        if (!(a.series()[i] == b.series()[i]))
            return a.series()[i].name;
    if (a.series().size() != b.series().size())
        return "<series count>";
    return {};
}

std::uint64_t
sumChannels(const StatDict &dict, int channels, const char *stat)
{
    std::uint64_t sum = 0;
    for (int c = 0; c < channels; ++c)
        sum += dict.u64("mem." + std::to_string(c) + "." + stat);
    return sum;
}

std::uint64_t
dramRequests(const StatDict &dict, int channels)
{
    return sumChannels(dict, channels, "reads") +
           sumChannels(dict, channels, "writes") +
           sumChannels(dict, channels, "counterReads") +
           sumChannels(dict, channels, "counterWrites");
}

std::string
checkIdentities(const Cell &cell, const StatDict &dict)
{
    const int channels = static_cast<int>(dict.u64("sys.channels"));
    const std::uint64_t reads = sumChannels(dict, channels, "reads") +
                                sumChannels(dict, channels, "counterReads");
    if (dict.u64("energy.read") != reads)
        return "energy.read " + std::to_string(dict.u64("energy.read")) +
               " != mem reads + counter reads " + std::to_string(reads);
    if (cell.tracker != "none" && dict.u64("gt.violations") != 0)
        return "gt.violations " + std::to_string(dict.u64("gt.violations")) +
               " under tracker " + cell.tracker;
    return {};
}

} // namespace perfbench
