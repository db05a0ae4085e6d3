#ifndef MCHECK_BENCH_BENCH_UTIL_H
#define MCHECK_BENCH_BENCH_UTIL_H

#include "cfg/cfg.h"
#include "checkers/metal_sources.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "support/text.h"
#include "support/witness.h"
#include "tests/metal/reference_sm.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mc::bench {

/** One protocol, generated, parsed, checked, and reconciled. */
struct CheckedProtocol
{
    corpus::LoadedProtocol loaded;
    checkers::CheckerSet set;
    support::DiagnosticSink sink;
    std::vector<checkers::CheckerRunStats> stats;
    double check_millis = 0.0;

    explicit CheckedProtocol(const corpus::ProtocolProfile& profile,
                             checkers::CheckerSetOptions options =
                                 checkers::CheckerSetOptions())
        : loaded(corpus::loadProtocol(profile)),
          set(checkers::makeAllCheckers(options))
    {
        auto begin = std::chrono::steady_clock::now();
        stats = checkers::runCheckers(*loaded.program, loaded.gen.spec,
                                      set.pointers(), sink);
        auto end = std::chrono::steady_clock::now();
        check_millis =
            std::chrono::duration<double, std::milli>(end - begin).count();
    }

    corpus::Reconciliation
    reconcile(const std::string& checker) const
    {
        return corpus::reconcile(loaded.gen.ledger, sink.diagnostics(),
                                 loaded.file_function, checker);
    }

    int
    applied(const std::string& checker) const
    {
        for (const auto& s : stats)
            if (s.checker == checker)
                return s.applied;
        return 0;
    }

    const std::string& name() const { return loaded.gen.name; }
};

/** All six paper protocols, checked once and cached for the process. */
inline const std::vector<std::unique_ptr<CheckedProtocol>>&
allCheckedProtocols()
{
    static std::vector<std::unique_ptr<CheckedProtocol>> cache = [] {
        std::vector<std::unique_ptr<CheckedProtocol>> out;
        for (const corpus::ProtocolProfile& profile :
             corpus::paperProfiles())
            out.push_back(std::make_unique<CheckedProtocol>(profile));
        return out;
    }();
    return cache;
}

/**
 * The engine benchmark's input: every function of the five buggy paper
 * protocols, built into CFGs, and both paper state machines
 * (wait_for_db and msglen_check).
 */
struct EngineCorpus
{
    std::vector<corpus::LoadedProtocol> protocols;
    metal::MetalProgram wait = metal::parseMetal(checkers::kWaitForDbMetal);
    metal::MetalProgram msg = metal::parseMetal(checkers::kMsgLenCheckMetal);
    const std::array<const metal::StateMachine*, 2> machines{wait.sm.get(),
                                                             msg.sm.get()};
    std::vector<cfg::Cfg> cfgs;

    EngineCorpus()
    {
        for (const char* name :
             {"bitvector", "dyn_ptr", "sci", "coma", "rac"})
            protocols.push_back(
                corpus::loadProtocol(corpus::profileByName(name)));
        for (const corpus::LoadedProtocol& loaded : protocols)
            for (const lang::FunctionDecl* fn : loaded.program->functions())
                cfgs.push_back(cfg::CfgBuilder::build(*fn));
    }
};

using Clock = std::chrono::steady_clock;

inline double
millisSince(Clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - begin)
        .count();
}

/**
 * Steady-state engine throughput: every CFG of the corpus walked by both
 * state machines, repeated `repeats` times after one warmup pass. The
 * counters are the engine's own semantic counters, so the numbers double
 * as an invariant check (they must not change with the thread count,
 * cache temperature or witness capture).
 */
struct EngineThroughput
{
    std::uint64_t cfgs = 0;
    std::uint64_t blocks = 0;
    std::uint64_t stmts = 0;
    /** Per repeat-pass semantic counters (identical every pass). */
    std::uint64_t visits = 0;
    std::uint64_t sm_transitions = 0;
    std::uint64_t rule_firings = 0;
    std::uint64_t peak_frontier = 0;
    /** Witness steps recorded per pass (0 unless capture is enabled). */
    std::uint64_t witness_steps = 0;
    double ns_per_visit = 0.0;
    double visits_per_sec = 0.0;
    double transitions_per_sec = 0.0;
};

inline std::uint64_t
firingCount(const std::map<std::string, int>& firings)
{
    std::uint64_t n = 0;
    for (const auto& [rule, count] : firings)
        n += static_cast<std::uint64_t>(count);
    return n;
}

inline EngineThroughput
measureEngineThroughput(const EngineCorpus& corpus, int repeats = 5)
{
    EngineThroughput out;
    out.cfgs = corpus.cfgs.size();
    for (const cfg::Cfg& cfg : corpus.cfgs) {
        out.blocks += cfg.blocks().size();
        for (const cfg::BasicBlock& bb : cfg.blocks())
            out.stmts += bb.stmts.size();
    }

    auto pass = [&](bool record) {
        std::uint64_t visits = 0, transitions = 0, firings = 0;
        std::uint64_t wsteps = 0;
        for (const cfg::Cfg& cfg : corpus.cfgs) {
            support::DiagnosticSink sink;
            for (const metal::StateMachine* sm : corpus.machines) {
                metal::SmRunResult r = metal::runStateMachine(*sm, cfg, sink);
                visits += r.visits;
                transitions += r.transitions;
                wsteps += r.witness_steps;
                firings += firingCount(r.firings);
                if (record && r.peak_frontier > out.peak_frontier)
                    out.peak_frontier = r.peak_frontier;
            }
        }
        if (record) {
            out.visits = visits;
            out.sm_transitions = transitions;
            out.rule_firings = firings;
            out.witness_steps = wsteps;
        }
    };

    pass(/*record=*/false); // warmup: lazy SM compilation, allocator state
    const Clock::time_point begin = Clock::now();
    for (int r = 0; r < repeats; ++r)
        pass(/*record=*/true);
    double ns = millisSince(begin) * 1e6;
    double total_visits =
        static_cast<double>(out.visits) * static_cast<double>(repeats);
    double total_transitions = static_cast<double>(out.sm_transitions) *
                               static_cast<double>(repeats);
    if (total_visits > 0) {
        out.ns_per_visit = ns / total_visits;
        out.visits_per_sec = total_visits / (ns * 1e-9);
        out.transitions_per_sec = total_transitions / (ns * 1e-9);
    }
    return out;
}

/**
 * The memo-free path enumerator (tests/metal/reference_sm.h) against the
 * table engine over the same (function, SM) runs: those whose function
 * has at most reference::kPathCap paths. Both sides run in this process
 * on the same inputs, so enumerator_ms / table_ms is a same-run ratio.
 */
struct ReferenceThroughput
{
    /** (function, SM) runs under the path cap, of cfgs x 2. */
    std::uint64_t runs = 0;
    /** Entry-to-exit paths the enumerator runs per pass. */
    std::uint64_t paths = 0;
    /** Firings per pass: the enumerator's, then the table engine's. */
    std::uint64_t rule_firings = 0;
    std::uint64_t table_rule_firings = 0;
    /** Wall ms per pass over the covered runs. */
    double enumerator_ms = 0.0;
    double table_ms = 0.0;
};

inline ReferenceThroughput
measureReference(const EngineCorpus& corpus, int repeats = 5)
{
    ReferenceThroughput out;
    std::vector<std::pair<const cfg::Cfg*, const metal::StateMachine*>>
        covered;
    for (const cfg::Cfg& cfg : corpus.cfgs)
        for (const metal::StateMachine* sm : corpus.machines) {
            support::DiagnosticSink sink;
            metal::reference::Result r =
                metal::reference::runEnumerated(*sm, cfg, sink);
            if (!r.covered)
                continue;
            covered.emplace_back(&cfg, sm);
            out.paths += r.paths;
            out.rule_firings += firingCount(r.firings);
        }
    out.runs = covered.size();
    // The first pass, which also sorted out the covered runs, is the
    // enumerator's warmup; the timed passes run only the covered ones.
    Clock::time_point begin = Clock::now();
    for (int r = 0; r < repeats; ++r)
        for (const auto& [cfg, sm] : covered) {
            support::DiagnosticSink sink;
            metal::reference::runEnumerated(*sm, *cfg, sink);
        }
    out.enumerator_ms = millisSince(begin) / repeats;

    auto table_pass = [&] {
        std::uint64_t firings = 0;
        for (const auto& [cfg, sm] : covered) {
            support::DiagnosticSink sink;
            firings +=
                firingCount(metal::runStateMachine(*sm, *cfg, sink).firings);
        }
        return firings;
    };
    out.table_rule_firings = table_pass(); // warmup
    begin = Clock::now();
    for (int r = 0; r < repeats; ++r)
        table_pass();
    out.table_ms = millisSince(begin) / repeats;
    return out;
}

/**
 * The machine the numbers were taken on. Absolute ns/visit figures are
 * meaningless without it — CI compares ratios, humans compare hosts.
 * Every field degrades to "unknown" off Linux or in stripped-down
 * containers rather than failing the bench.
 */
struct HostInfo
{
    std::string cpu_model = "unknown";
    unsigned cores = 0;
    std::string governor = "unknown";
    /**
     * Fixed spin work on one thread vs the same work split over `cores`
     * threads: ~cores on an idle host, ~1 when the lanes share one core.
     */
    double effective_parallelism = 1.0;
};

/** An xorshift loop the optimizer cannot fold away. */
inline std::uint64_t
spinWork(std::uint64_t iterations)
{
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/** Wall ms to run `chunks` spin chunks round-robin on `threads` threads. */
inline double
spinMillis(unsigned threads, unsigned chunks, std::uint64_t chunk_iters)
{
    std::vector<std::uint64_t> sink(threads, 0);
    auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (unsigned c = t; c < chunks; c += threads)
                sink[t] ^= spinWork(chunk_iters);
        });
    for (std::thread& thread : pool)
        thread.join();
    auto end = std::chrono::steady_clock::now();
    volatile std::uint64_t keep = 0;
    for (std::uint64_t v : sink)
        keep = keep ^ v;
    (void)keep;
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

inline HostInfo
hostInfo()
{
    HostInfo info;
    info.cores = std::thread::hardware_concurrency();
    const unsigned lanes = std::max(1u, info.cores);
    const std::uint64_t chunk_iters = 48'000'000ull / lanes;
    const double serial_ms = spinMillis(1, lanes, chunk_iters);
    const double parallel_ms = spinMillis(lanes, lanes, chunk_iters);
    if (serial_ms > 0.0 && parallel_ms > 0.0)
        info.effective_parallelism = serial_ms / parallel_ms;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const std::string key = "model name";
        if (line.compare(0, key.size(), key) != 0)
            continue;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos)
            info.cpu_model = line.substr(start);
        break;
    }
    std::ifstream gov(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    std::string g;
    if (gov && std::getline(gov, g) && !g.empty())
        info.governor = g;
    return info;
}

inline void
writeEngineThroughputJson(std::ostream& os, const EngineThroughput& table,
                          const ReferenceThroughput& reference,
                          const EngineThroughput& witness)
{
    const HostInfo host = hostInfo();
    auto section = [&](const char* name, const EngineThroughput& t,
                       bool last) {
        os << "  \"" << name << "\": {\n"
           << "    \"ns_per_visit\": " << t.ns_per_visit << ",\n"
           << "    \"visits_per_sec\": " << t.visits_per_sec << ",\n"
           << "    \"transitions_per_sec\": " << t.transitions_per_sec
           << ",\n"
           << "    \"peak_frontier\": " << t.peak_frontier << ",\n"
           << "    \"visits\": " << t.visits << ",\n"
           << "    \"sm_transitions\": " << t.sm_transitions << ",\n"
           << "    \"rule_firings\": " << t.rule_firings << ",\n"
           << "    \"witness_steps\": " << t.witness_steps << "\n"
           << "  }" << (last ? "\n" : ",\n");
    };
    os << "{\n"
       << "  \"bench\": \"engine_throughput\",\n"
       << "  \"host\": {\n"
       << "    \"cpu_model\": \""
       << support::jsonEscape(host.cpu_model) << "\",\n"
       << "    \"cores\": " << host.cores << ",\n"
       << "    \"governor\": \"" << support::jsonEscape(host.governor)
       << "\",\n"
       << "    \"effective_parallelism\": " << host.effective_parallelism
       << "\n"
       << "  },\n"
       << "  \"corpus\": {\n"
       << "    \"protocols\": 5,\n"
       << "    \"cfgs\": " << table.cfgs << ",\n"
       << "    \"blocks\": " << table.blocks << ",\n"
       << "    \"stmts\": " << table.stmts << "\n"
       << "  },\n";
    section("engine", table, /*last=*/false);
    os << "  \"reference\": {\n"
       << "    \"runs\": " << reference.runs << ",\n"
       << "    \"paths\": " << reference.paths << ",\n"
       << "    \"rule_firings\": " << reference.rule_firings << ",\n"
       << "    \"table_rule_firings\": " << reference.table_rule_firings
       << ",\n"
       << "    \"enumerator_ms\": " << reference.enumerator_ms << ",\n"
       << "    \"table_ms\": " << reference.table_ms << "\n"
       << "  },\n";
    section("witness", witness, /*last=*/true);
    os << "}\n";
}

/**
 * Measure the engine, the path enumerator against it, and the engine
 * with witness capture on (quantifying the --witness overhead), and
 * write BENCH_engine.json-style output to `path`. Returns false (after
 * reporting to stderr) if the file cannot be opened.
 */
inline bool
writeEngineThroughputReport(const std::string& path, int repeats = 5)
{
    const EngineCorpus corpus;
    EngineThroughput table = measureEngineThroughput(corpus, repeats);
    ReferenceThroughput reference = measureReference(corpus, repeats);
    support::setWitnessConfig(true, support::kDefaultWitnessLimit);
    EngineThroughput witness = measureEngineThroughput(corpus, repeats);
    support::setWitnessConfig(false, 0);
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << '\n';
        return false;
    }
    writeEngineThroughputJson(os, table, reference, witness);
    return os.good();
}

/** Print a bench header naming the reproduced table. */
inline void
banner(const std::string& title, const std::string& paper_ref)
{
    std::cout << "=== " << title << " ===\n"
              << "(reproduces " << paper_ref
              << " of 'Using Meta-level Compilation to Check FLASH "
                 "Protocol Code', ASPLOS 2000)\n\n";
}

inline void
printTable(const std::vector<std::string>& header,
           const std::vector<std::vector<std::string>>& rows)
{
    std::cout << support::formatTable(header, rows) << '\n';
}

} // namespace mc::bench

#endif // MCHECK_BENCH_BENCH_UTIL_H
