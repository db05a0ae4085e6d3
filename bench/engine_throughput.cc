/**
 * @file
 * Google-benchmark microbenchmarks for the framework itself: frontend
 * parse speed, CFG construction, pattern matching, the path-sensitive SM
 * engine (showing the (block, state) cache keeps exponential-path
 * functions linear-time), and whole-protocol checking throughput.
 */
#include "bench/bench_util.h"
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "lang/lexer.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "support/metrics.h"
#include "support/thread_pool.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <vector>

namespace {

using namespace mc;

const corpus::LoadedProtocol&
bitvector()
{
    static corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    return loaded;
}

/**
 * The six paper protocols' generated sources: the files a batch_cold
 * pass over the corpus parses.
 */
const std::vector<corpus::GeneratedProtocol>&
paperCorpus()
{
    static const std::vector<corpus::GeneratedProtocol> corpus = [] {
        std::vector<corpus::GeneratedProtocol> out;
        for (const corpus::ProtocolProfile& profile : corpus::paperProfiles())
            out.push_back(corpus::generateProtocol(profile));
        return out;
    }();
    return corpus;
}

std::int64_t
paperCorpusBytes()
{
    std::int64_t bytes = 0;
    for (const corpus::GeneratedProtocol& gen : paperCorpus())
        for (const corpus::GeneratedFile& file : gen.files)
            bytes += static_cast<std::int64_t>(file.source.size());
    return bytes;
}

/** Lex, parse and Sema of the six protocols, one fresh Program each. */
void
BM_ParseProtocol(benchmark::State& state)
{
    for (auto _ : state) {
        for (const corpus::GeneratedProtocol& gen : paperCorpus()) {
            lang::Program program;
            for (const corpus::GeneratedFile& file : gen.files)
                program.addSource(file.name, file.source);
            benchmark::DoNotOptimize(program.functions().size());
        }
    }
    state.SetBytesProcessed(state.iterations() * paperCorpusBytes());
}
BENCHMARK(BM_ParseProtocol)->Unit(benchmark::kMillisecond);

/**
 * The lexing part of BM_ParseProtocol: the same files registered and
 * lexed the way a Program does, through one SpellingTable per protocol.
 */
void
BM_LexProtocol(benchmark::State& state)
{
    for (auto _ : state) {
        for (const corpus::GeneratedProtocol& gen : paperCorpus()) {
            support::SourceManager sm;
            support::SpellingTable spellings;
            for (const corpus::GeneratedFile& file : gen.files) {
                std::int32_t id = sm.addFile(file.name, file.source);
                lang::Lexer lexer(sm, id, &spellings);
                benchmark::DoNotOptimize(lexer.lexAll().size());
            }
        }
    }
    state.SetBytesProcessed(state.iterations() * paperCorpusBytes());
}
BENCHMARK(BM_LexProtocol)->Unit(benchmark::kMillisecond);

/**
 * Corpus generation: the six protocols' sources, ledgers and specs, as
 * every `mccheck --protocol` run and every batch request rebuilds them.
 */
void
BM_GenerateProtocol(benchmark::State& state)
{
    for (auto _ : state) {
        for (const corpus::ProtocolProfile& profile : corpus::paperProfiles())
            benchmark::DoNotOptimize(
                corpus::generateProtocol(profile).files.size());
    }
    state.SetBytesProcessed(state.iterations() * paperCorpusBytes());
}
BENCHMARK(BM_GenerateProtocol)->Unit(benchmark::kMillisecond);

void
BM_BuildAllCfgs(benchmark::State& state)
{
    const corpus::LoadedProtocol& loaded = bitvector();
    for (auto _ : state) {
        int blocks = 0;
        for (const lang::FunctionDecl* fn : loaded.program->functions()) {
            cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
            blocks += cfg.blockCount();
        }
        benchmark::DoNotOptimize(blocks);
    }
}
BENCHMARK(BM_BuildAllCfgs)->Unit(benchmark::kMillisecond);

void
BM_RunAllCheckers(benchmark::State& state)
{
    const corpus::LoadedProtocol& loaded = bitvector();
    for (auto _ : state) {
        auto set = checkers::makeAllCheckers();
        support::DiagnosticSink sink;
        auto stats = checkers::runCheckers(*loaded.program,
                                           loaded.gen.spec,
                                           set.pointers(), sink);
        benchmark::DoNotOptimize(stats.size());
    }
    state.counters["loc"] =
        static_cast<double>(bitvector().gen.totalLoc());
}
BENCHMARK(BM_RunAllCheckers)->Unit(benchmark::kMillisecond);

/**
 * Path-cache scaling: a function with N sequential if/else blocks has
 * 2^N paths, but the engine's (block, state) cache visits each block a
 * bounded number of times. Time must grow linearly in N, not in 2^N.
 */
void
BM_EngineExponentialPaths(benchmark::State& state)
{
    int n = static_cast<int>(state.range(0));
    std::string body;
    for (int i = 0; i < n; ++i)
        body += "if (c" + std::to_string(i) + ") { x = 1; } else "
                "{ x = 2; }\n";
    body += "MISCBUS_READ_DB(a, b);";

    lang::Program program;
    program.addSource("t.c", "void f(void) {" + body + "}");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    metal::MetalProgram checker = metal::parseMetal(
        "sm wait_for_db {\n"
        "  decl { scalar } addr, buf;\n"
        "  start:\n"
        "    { WAIT_FOR_DB_FULL(addr); } ==> stop\n"
        "  | { MISCBUS_READ_DB(addr, buf); } ==> { err(\"race\"); }\n"
        "  ;\n"
        "}\n");

    for (auto _ : state) {
        support::DiagnosticSink sink;
        auto result = metal::runStateMachine(*checker.sm, cfg, sink);
        benchmark::DoNotOptimize(result.visits);
    }
    state.counters["paths"] = std::pow(2.0, n);
}
BENCHMARK(BM_EngineExponentialPaths)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/**
 * Cost of the observability layer when it is actually collecting: the
 * same whole-protocol run as BM_RunAllCheckers but with the metrics
 * registry enabled. Compare against BM_RunAllCheckers to see the
 * enabled-mode overhead; the disabled-mode overhead is what the plain
 * benchmarks above measure (and must stay within noise of the
 * pre-instrumentation engine).
 */
void
BM_RunAllCheckersMetricsEnabled(benchmark::State& state)
{
    const corpus::LoadedProtocol& loaded = bitvector();
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    metrics.setEnabled(true);
    for (auto _ : state) {
        auto set = checkers::makeAllCheckers();
        support::DiagnosticSink sink;
        auto stats = checkers::runCheckers(*loaded.program,
                                           loaded.gen.spec,
                                           set.pointers(), sink);
        benchmark::DoNotOptimize(stats.size());
    }
    state.counters["visits"] =
        static_cast<double>(metrics.counterValue("engine.visits")) /
        static_cast<double>(state.iterations());
    metrics.setEnabled(false);
    metrics.clear();
}
BENCHMARK(BM_RunAllCheckersMetricsEnabled)->Unit(benchmark::kMillisecond);

/** The five buggy paper protocols, loaded once. */
const std::vector<corpus::LoadedProtocol>&
fullCorpus()
{
    static const std::vector<corpus::LoadedProtocol>* corpus = [] {
        auto* loaded = new std::vector<corpus::LoadedProtocol>();
        for (const char* name :
             {"bitvector", "dyn_ptr", "sci", "coma", "rac"})
            loaded->push_back(
                corpus::loadProtocol(corpus::profileByName(name)));
        return loaded;
    }();
    return *corpus;
}

/**
 * Whole-corpus checking throughput at a given --jobs level, fanning
 * (function x checker) units out within each protocol. Arg(1) is the
 * sequential baseline the ISSUE's speedup target compares against; on a
 * single-core host all arms measure the same work (the pool still
 * exercises its queues, so this doubles as a contention check).
 */
void
BM_CheckCorpusParallel(benchmark::State& state)
{
    unsigned jobs = static_cast<unsigned>(state.range(0));
    std::int64_t loc = 0;
    for (const corpus::LoadedProtocol& loaded : fullCorpus())
        loc += loaded.gen.totalLoc();
    for (auto _ : state) {
        int diags = 0;
        for (const corpus::LoadedProtocol& loaded : fullCorpus()) {
            auto set = checkers::makeAllCheckers();
            support::DiagnosticSink sink;
            checkers::ParallelRunOptions options;
            options.jobs = jobs;
            auto stats = checkers::runCheckersParallel(
                *loaded.program, loaded.gen.spec, set.pointers(), sink,
                options);
            diags += static_cast<int>(sink.diagnostics().size());
            benchmark::DoNotOptimize(stats.size());
        }
        benchmark::DoNotOptimize(diags);
    }
    state.counters["jobs"] = static_cast<double>(jobs);
    state.counters["corpus_loc"] = static_cast<double>(loc);
}
BENCHMARK(BM_CheckCorpusParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The coarser fan-out: whole protocols across the corpus, one pool lane
 * per protocol, each checked sequentially inside its lane.
 */
void
BM_CheckCorpusProtocolFanout(benchmark::State& state)
{
    unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const auto& corpus = fullCorpus();
        support::ThreadPool pool(jobs);
        std::vector<int> diags(corpus.size(), 0);
        pool.parallelFor(corpus.size(), [&](std::size_t p) {
            auto set = checkers::makeAllCheckers();
            support::DiagnosticSink sink;
            auto stats =
                checkers::runCheckers(*corpus[p].program,
                                      corpus[p].gen.spec,
                                      set.pointers(), sink);
            benchmark::DoNotOptimize(stats.size());
            diags[p] = static_cast<int>(sink.diagnostics().size());
        });
        benchmark::DoNotOptimize(diags.data());
    }
    state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_CheckCorpusProtocolFanout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Whole-corpus checking against a pre-filled analysis cache: every
 * (function, checker) unit replays its stored outcome instead of walking
 * paths, so this measures the warm-run floor — fingerprinting, entry
 * decode, state replay, and the merge. Compare against
 * BM_CheckCorpusParallel at the same Arg for the cold/warm speedup the
 * EXPERIMENTS table reports.
 */
void
BM_CheckCorpusWarmCache(benchmark::State& state)
{
    namespace fs = std::filesystem;
    unsigned jobs = static_cast<unsigned>(state.range(0));
    fs::path dir =
        fs::temp_directory_path() / "mccheck_bench_warm_cache";
    fs::remove_all(dir);
    {
        // Cold fill, outside the timed loop.
        cache::AnalysisCache cache(dir.string());
        for (const corpus::LoadedProtocol& loaded : fullCorpus()) {
            auto set = checkers::makeAllCheckers();
            support::DiagnosticSink sink;
            checkers::ParallelRunOptions options;
            options.jobs = jobs;
            options.cache = &cache;
            checkers::runCheckersParallel(*loaded.program,
                                          loaded.gen.spec,
                                          set.pointers(), sink, options);
        }
    }
    std::uint64_t hits = 0;
    for (auto _ : state) {
        cache::AnalysisCache cache(dir.string());
        int diags = 0;
        for (const corpus::LoadedProtocol& loaded : fullCorpus()) {
            auto set = checkers::makeAllCheckers();
            support::DiagnosticSink sink;
            checkers::ParallelRunOptions options;
            options.jobs = jobs;
            options.cache = &cache;
            auto stats = checkers::runCheckersParallel(
                *loaded.program, loaded.gen.spec, set.pointers(), sink,
                options);
            diags += static_cast<int>(sink.diagnostics().size());
            benchmark::DoNotOptimize(stats.size());
        }
        hits = cache.stats().hits;
        benchmark::DoNotOptimize(diags);
    }
    state.counters["jobs"] = static_cast<double>(jobs);
    state.counters["cache_hits"] = static_cast<double>(hits);
    fs::remove_all(dir);
}
BENCHMARK(BM_CheckCorpusWarmCache)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_PatternMatch(benchmark::State& state)
{
    match::PatternContext pc;
    match::Pattern pattern = match::Pattern::compile(
        pc, "{ NI_SEND(type, F_DATA, keep, wait, dec, null) }",
        {{"type", match::WildcardKind::Scalar},
         {"keep", match::WildcardKind::Scalar},
         {"wait", match::WildcardKind::Scalar},
         {"dec", match::WildcardKind::Scalar},
         {"null", match::WildcardKind::Scalar}});

    lang::Program program;
    program.addSource(
        "t.c", "void f(void) { NI_SEND(MSG_PUT, F_DATA, a, b, c, d); }");
    const lang::Stmt* hit = program.findFunction("f")->body->stmts[0];
    program.addSource("u.c",
                      "void g(void) { OTHER(MSG_PUT, F_DATA, a, b, c); }");
    const lang::Stmt* miss = program.findFunction("g")->body->stmts[0];

    for (auto _ : state) {
        benchmark::DoNotOptimize(pattern.matchInStmt(*hit).has_value());
        benchmark::DoNotOptimize(pattern.matchInStmt(*miss).has_value());
    }
}
BENCHMARK(BM_PatternMatch);

} // namespace

/**
 * Custom main: `--json <path>` (or `--json=<path>`) additionally runs the
 * steady-state engine-throughput measurement for both matching strategies
 * and writes the machine-readable BENCH_engine.json report. The flag is
 * stripped before google-benchmark sees the argument vector; everything
 * else behaves like BENCHMARK_MAIN().
 */
int
main(int argc, char** argv)
{
    std::string json_path;
    std::vector<char*> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else {
            args.push_back(argv[i]);
        }
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!json_path.empty() &&
        !mc::bench::writeEngineThroughputReport(json_path))
        return 1;
    return 0;
}
