/**
 * @file
 * End-to-end benchmark harness for mccheck.
 *
 * Three closed-loop workloads, one client, --jobs 1, all in this process:
 *
 *   batch_cold   every paper program checked in protocol mode, no cache;
 *   batch_warm   the same requests against a disk analysis cache filled
 *                during set-up;
 *   daemon_edit  one resident server::Daemon holding dyn_ptr's files as
 *                overlay documents; each step edits one file and re-checks.
 *
 * Requests go through the public entry points (server::runCheckRequest,
 * server::Daemon::handleRequestLine). Every answer is checked against a
 * result that does not come from the engine: batch findings reconcile with
 * the generator's seeding ledger (34 errors and 69 false positives per
 * corpus pass), and daemon re-checks must reproduce the pre-edit output.
 *
 * With --trace 1 rounds alternate between untraced ones and traced ones,
 * which replay each request as the sequence of public layer calls
 * runCheckRequest makes, timing each call from here (no span lives inside
 * src/), and the run reports per-layer metrics. The last line of stdout is one JSON object; see README.md.
 */
#include "cfg/cfg.h"
#include "cfg/flat_cfg.h"
#include "checkers/metal_sources.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "lang/fingerprint.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "server/check_request.h"
#include "server/check_units.h"
#include "server/daemon.h"
#include "server/json.h"
#include "server/protocol.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "support/witness.h"

#include "span_log.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace mcbench {
namespace {

using Clock = std::chrono::steady_clock;
using mc::server::JsonValue;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** The paper's evaluation programs, the batch workloads' requests. */
const std::vector<std::string> kProtocols = {"bitvector", "dyn_ptr", "sci",
                                             "coma",      "rac",     "common"};
/** Table 7 totals every corpus pass must reconcile to. */
constexpr int kPaperErrors = 34;
constexpr int kPaperFalsePositives = 69;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;
/**
 * peak_rss_mb is read after this many timed requests: the daemon's
 * resident state grows with every edit, so a reading at the end of a
 * timed loop would depend on how fast the loop ran.
 */
constexpr std::size_t kRssRequests = 100;
/** The program the daemon workload keeps resident. */
const char* const kDaemonProgram = "dyn_ptr";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stop after this many requests per phase (0 = run for --seconds). */
    std::size_t max_requests = 0;
    /** Result files and Chrome traces go here. */
    std::string out_dir = ".";
    /** Scratch space (the warm workload's disk cache). */
    std::string work_dir = ".";
};

bool
parseOptions(int argc, char** argv, Options& o, std::string& error)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + arg;
            return false;
        }
        std::string value = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = value;
            else if (arg == "--seed")
                o.seed = std::stoull(value);
            else if (arg == "--seconds")
                o.seconds = std::stod(value);
            else if (arg == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (arg == "--max-requests")
                o.max_requests = std::stoull(value);
            else if (arg == "--out-dir")
                o.out_dir = value;
            else if (arg == "--work-dir")
                o.work_dir = value;
            else {
                error = "unknown option " + arg;
                return false;
            }
        } catch (const std::exception&) {
            error = "bad value for " + arg + ": " + value;
            return false;
        }
    }
    if (o.workload != "batch_cold" && o.workload != "batch_warm" &&
        o.workload != "daemon_edit") {
        error = "--workload must be batch_cold, batch_warm or daemon_edit";
        return false;
    }
    if (!(o.seconds > 0.0)) {
        error = "--seconds must be positive";
        return false;
    }
    return true;
}

// ---- host block ----------------------------------------------------------

struct Host
{
    std::string cpu_model = "unknown";
    unsigned nproc = 1;
    std::string build_type = MCBENCH_BUILD_TYPE;
    double spin_1_ms = 0.0;
    double spin_n_ms = 0.0;
    /** Fixed work on 1 thread vs split over nproc threads (1 = serial). */
    double effective_parallelism = 1.0;
};

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        if (!s.empty())
            return s;
    }
#endif
    return "unknown";
}

std::uint64_t
spin(std::uint64_t iterations)
{
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/** Wall ms to run `chunks` spin chunks on `threads` threads. */
double
timeSpin(unsigned threads, unsigned chunks, std::uint64_t chunk_iters)
{
    std::vector<std::uint64_t> sink(threads, 0);
    Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (unsigned c = t; c < chunks; c += threads)
                sink[t] ^= spin(chunk_iters);
        });
    for (std::thread& th : pool)
        th.join();
    double ms = msSince(t0);
    volatile std::uint64_t keep = 0;
    for (std::uint64_t v : sink)
        keep = keep ^ v;
    (void)keep;
    return ms;
}

Host
probeHost()
{
    Host host;
    host.cpu_model = cpuModel();
    cpu_set_t set;
    CPU_ZERO(&set);
    host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                     ? static_cast<unsigned>(CPU_COUNT(&set))
                     : std::max(1u, std::thread::hardware_concurrency());
    const std::uint64_t chunk_iters = 48'000'000ull / host.nproc;
    host.spin_1_ms = timeSpin(1, host.nproc, chunk_iters);
    host.spin_n_ms = timeSpin(host.nproc, host.nproc, chunk_iters);
    host.effective_parallelism =
        host.spin_n_ms > 0.0 ? host.spin_1_ms / host.spin_n_ms : 1.0;
    return host;
}

// ---- host speed ----------------------------------------------------------

/**
 * Every reported time is scaled to the speed at which the speed probe
 * takes this long. The host's speed moves by 2x and more, between runs and
 * for seconds within one, because other tenants share its cores and
 * caches; the ratio of a request's wall time to the probe's time right
 * before it moves far less.
 */
constexpr double kRefProbeMs = 1.5;
/**
 * The program slows more than the probe when the host is busy: over ten
 * runs per workload on a shared 4-vCPU Intel Xeon, log(request ms) rose
 * 1.2-1.5 times as fast as log(probe ms). Scaling by
 * (kRefProbeMs / probe)^kProbeExponent takes out that share too; at 1.0,
 * a scaled time still rose with the host's load.
 */
constexpr double kProbeExponent = 1.4;

/**
 * Wall ms of a fixed piece of the kind of work the checker does most:
 * hashing identifier strings into a node-based map, then looking each one
 * up. The map's memory comes from a buffer of the probe's own, so the heap
 * the program leaves behind does not move it, and it is harness code, so
 * no change to src/ moves it. Sorting, pointer chasing and a lexer-like
 * scan tracked request times less well; the same map on the global heap
 * tracked them well but moved with the heap the program leaves behind.
 */
double
speedProbeMs()
{
    static const std::vector<std::string> keys = [] {
        std::mt19937_64 g(7);
        std::vector<std::string> k;
        for (int i = 0; i < 4096; ++i)
            k.push_back("ident_" + std::to_string(g() % 1000000007ull));
        return k;
    }();
    static std::vector<std::byte> buffer(2u << 20);
    Clock::time_point t0 = Clock::now();
    std::uint64_t acc = 0;
    for (int rep = 0; rep < 4; ++rep) {
        std::pmr::monotonic_buffer_resource pool(buffer.data(),
                                                 buffer.size());
        std::pmr::unordered_map<std::string, std::size_t> map(&pool);
        for (std::size_t i = 0; i < keys.size(); ++i)
            map[keys[i]] = i;
        for (const std::string& k : keys)
            acc += map.find(k)->second;
    }
    double ms = msSince(t0);
    volatile std::uint64_t keep = acc;
    (void)keep;
    return ms;
}

/** `ms` of wall time read at the reference speed of kRefProbeMs. */
double
scaled(double ms, double probe_ms)
{
    return probe_ms > 0.0
               ? ms * std::pow(kRefProbeMs / probe_ms, kProbeExponent)
               : ms;
}

// ---- statistics ------------------------------------------------------------

/** Linear-interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- answer key ----------------------------------------------------------

/** Seeded errors and false positives (Table 7's two columns). */
struct Tally
{
    int errors = 0;
    int fps = 0;

    bool operator==(const Tally& o) const
    {
        return errors == o.errors && fps == o.fps;
    }
    Tally& operator+=(const Tally& o)
    {
        errors += o.errors;
        fps += o.fps;
        return *this;
    }
};

/**
 * Reconcile one JSON findings document with the generator's seeding
 * ledger: each diagnostic matches a seeded site by (checker, rule,
 * handler), the handler being the function of the file it names.
 * Table 7 folds useless annotations into the false positives. Fails
 * unless every seeded error and false positive was found.
 */
bool
reconcile(const std::string& bytes, const mc::corpus::GeneratedProtocol& gen,
          Tally& found, std::string& why)
{
    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(bytes, doc, error)) {
        why = "output is not JSON: " + error;
        return false;
    }
    const JsonValue* diags = doc.get("diagnostics");
    if (!diags || !diags->isArray()) {
        why = "output has no diagnostics array";
        return false;
    }
    std::map<std::string, std::string> handler_of;
    for (const mc::corpus::GeneratedFile& file : gen.files)
        handler_of[file.name] = file.function;

    using mc::corpus::SeedClass;
    std::map<std::tuple<std::string, std::string, std::string>,
             std::vector<SeedClass>>
        seeded;
    Tally want;
    int useless = 0;
    for (const mc::corpus::SeededItem& item : gen.ledger.items()) {
        if (item.cls == SeedClass::UselessAnnotation)
            ++useless;
        if (item.cls == SeedClass::UsefulAnnotation ||
            item.cls == SeedClass::UselessAnnotation)
            continue;
        want.errors += item.cls == SeedClass::Error ? 1 : 0;
        want.fps += item.cls == SeedClass::FalsePositive ? 1 : 0;
        seeded[{item.checker, item.handler, item.rule}].push_back(item.cls);
    }
    want.fps += useless;

    found = Tally{};
    for (const JsonValue& d : diags->items()) {
        auto field = [&](const char* key) {
            const JsonValue* v = d.get(key);
            return v && v->isString() ? v->asString() : std::string();
        };
        auto it = seeded.find({field("checker"), handler_of[field("file")],
                               field("rule")});
        if (it == seeded.end() || it->second.empty())
            continue;
        found.errors += it->second.back() == SeedClass::Error ? 1 : 0;
        found.fps += it->second.back() == SeedClass::FalsePositive ? 1 : 0;
        it->second.pop_back();
    }
    found.fps += useless;
    if (!(found == want)) {
        why = gen.name + ": found " + std::to_string(found.errors) +
              " errors / " + std::to_string(found.fps) +
              " false positives, ledger seeds " +
              std::to_string(want.errors) + " / " +
              std::to_string(want.fps);
        return false;
    }
    return true;
}

// ---- traced run ----------------------------------------------------------

/** Registry values one traced request reads deltas of. */
struct RegistrySnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::uint64_t> timer_ns;
    /** Units that ran live (cache hits are not observed). */
    std::uint64_t units_executed = 0;

    std::uint64_t counter(const std::string& name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
    std::uint64_t timer(const std::string& name) const
    {
        auto it = timer_ns.find(name);
        return it == timer_ns.end() ? 0 : it->second;
    }
};

RegistrySnapshot
snapshotRegistry()
{
    const mc::support::MetricsRegistry& m =
        mc::support::MetricsRegistry::global();
    RegistrySnapshot s;
    for (const auto& [name, c] : m.counters())
        s.counters[name] = c.value();
    for (const auto& [name, t] : m.timers())
        s.timer_ns[name] = t.totalNanos();
    auto h = m.histograms().find("unit.wall_ns");
    if (h != m.histograms().end())
        s.units_executed = h->second.count();
    return s;
}

/**
 * Costs of work hidden inside runCheckersParallel, measured by repeating
 * the same public call outside any request.
 */
struct Probes
{
    /** One makeChecker clone of each of the nine checkers, summed. */
    double clone_set_ms = 0.0;
    /** One parseMetal of a shipped .metal checker, mean of the two. */
    double metal_parse_us = 0.0;

    static Probes measure()
    {
        constexpr int kReps = 50;
        Probes p;
        for (const std::string& name : mc::checkers::allCheckerNames()) {
            Clock::time_point t0 = Clock::now();
            for (int r = 0; r < kReps; ++r)
                mc::checkers::makeChecker(name);
            p.clone_set_ms += msSince(t0) / kReps;
        }
        Clock::time_point t0 = Clock::now();
        for (int r = 0; r < kReps; ++r) {
            mc::metal::parseMetal(mc::checkers::kWaitForDbMetal,
                                  "wait_for_db.metal");
            mc::metal::parseMetal(mc::checkers::kMsgLenCheckMetal,
                                  "msglen_check.metal");
        }
        p.metal_parse_us = msSince(t0) * 1000.0 / (2 * kReps);
        return p;
    }
};

/**
 * The traced run's state: spans, per-layer sums over traced requests,
 * and the bookkeeping of the request in flight.
 */
class Tracer
{
  public:
    Tracer() : probes_(Probes::measure()) {}

    SpanLog& log() { return log_; }

    /** Add `v` to the per-request sum of metric `name`. */
    void add(const std::string& name, double v) { sums_[name] += v; }
    double sum(const std::string& name) const
    {
        auto it = sums_.find(name);
        return it == sums_.end() ? 0.0 : it->second;
    }
    std::uint64_t requests() const { return requests_; }

    /** Open the request's root span and snapshot the counters. */
    void begin(const std::string& what, mc::cache::AnalysisCache* cache)
    {
        ++requests_;
        cache_ = cache;
        before_ = snapshotRegistry();
        cache_before_ = cache ? cache->stats() : mc::cache::CacheStats{};
        mc::support::TraceRecorder::global().clear();
        root_ = log_.open(what, "bench", requests_);
    }

    /**
     * Run `f` inside a span named `name` of layer `layer`; returns the
     * span's duration in ms and, through `id`, its index.
     */
    template <typename F>
    double timed(const std::string& name, const std::string& layer, F&& f,
                 int* id = nullptr)
    {
        const int span_id = log_.open(name, layer, requests_);
        f();
        log_.close(span_id);
        if (id)
            *id = span_id;
        return static_cast<double>(log_.durationNs(span_id)) / 1e6;
    }

    /** Close the request's root span; probes may run after this. */
    void endRequest() { log_.close(root_); }

    /** The span of runCheckersParallel, parent of the program timers. */
    void setRunSpan(int id) { run_ = id; }

    /**
     * After endRequest: add the program-timed children of the run span,
     * accumulate this request's layer metrics and check the unit
     * conservation laws. `fingerprint_ms` is the probe cost of the
     * cache-key fingerprints (0 without a cache). False (with a reason)
     * when a law does not hold.
     */
    bool end(const std::vector<mc::checkers::CheckerRunStats>& stats,
             std::size_t functions, double fingerprint_ms, std::string& why);

    /** Mean-per-request layer metrics plus the trace's own checks. */
    std::map<std::string, double> layerMetrics(double untraced_p50,
                                               double traced_p50) const;

    /** Per-layer self time, ms per request. */
    std::map<std::string, double> layerSelfMs() const;

    /** Sum over requests of covered (non-root) time / request wall. */
    double coverage() const;

  private:
    SpanLog log_;
    Probes probes_;
    std::map<std::string, double> sums_;
    std::uint64_t requests_ = 0;
    int root_ = -1;
    int run_ = -1;
    mc::cache::AnalysisCache* cache_ = nullptr;
    RegistrySnapshot before_;
    mc::cache::CacheStats cache_before_;
};

bool
Tracer::end(const std::vector<mc::checkers::CheckerRunStats>& stats,
            std::size_t functions, double fingerprint_ms, std::string& why)
{
    const RegistrySnapshot after = snapshotRegistry();
    const mc::cache::CacheStats cs =
        cache_ ? cache_->stats() : mc::cache::CacheStats{};
    auto counter = [&](const std::string& name) {
        return static_cast<double>(after.counter(name) -
                                   before_.counter(name));
    };
    auto timerMs = [&](const std::string& name) {
        return static_cast<double>(after.timer(name) - before_.timer(name)) /
               1e6;
    };

    // Children of the run span, from the program's own timers: phase 0
    // (cache lookup, with the fingerprint probe inside it), phase 1 (CFGs
    // of cache misses), then each checker with its metal walk inside.
    double replay_ms = 0.0;
    for (const mc::support::TraceEvent& e :
         mc::support::TraceRecorder::global().events())
        if (e.name == "cache.lookup")
            replay_ms += static_cast<double>(e.dur_us) / 1000.0;
    if (replay_ms > 0.0) {
        int lookup = log_.addTimed(run_, "cache.lookup", "cache",
                                   static_cast<std::int64_t>(replay_ms * 1e6));
        log_.addTimed(lookup, "lang.fingerprintFunctions", "lang",
                      static_cast<std::int64_t>(fingerprint_ms * 1e6));
    }
    const double cfg_in_run_ms = timerMs("parallel.cfg_build");
    log_.addTimed(run_, "cfg.CfgBuilder.build (in run)", "cfg",
                  static_cast<std::int64_t>(cfg_in_run_ms * 1e6));
    double metal_ns = 0.0;
    for (const mc::checkers::CheckerRunStats& s : stats) {
        int c = log_.addTimed(run_, "checkers." + s.checker, "checkers",
                              static_cast<std::int64_t>(s.wall_ms * 1e6));
        add("checkers." + s.checker + ".ms", s.wall_ms);
        const double sm_ms = timerMs("engine.sm." + s.checker);
        if (sm_ms > 0.0)
            log_.addTimed(c, "metal." + s.checker, "metal",
                          static_cast<std::int64_t>(sm_ms * 1e6));
        metal_ns += sm_ms * 1e6;
    }

    const double units = static_cast<double>(functions * stats.size());
    const double executed =
        static_cast<double>(after.units_executed - before_.units_executed);
    const double replayed = static_cast<double>(cs.hits - cache_before_.hits);
    const double misses =
        static_cast<double>(cs.misses - cache_before_.misses);
    const double work_units = counter("parallel.work_units");

    add("cfg.build_ms", cfg_in_run_ms);
    add("checkers.run_ms", static_cast<double>(log_.durationNs(run_)) / 1e6);
    add("checkers.units_executed", executed);
    add("checkers.units_replayed", replayed);
    // Every unit clones its checker once (hit or miss), plus one
    // clonability probe per checker.
    add("checkers.make_ms",
        static_cast<double>(functions + 1) * probes_.clone_set_ms);
    add("metal.visits", counter("engine.visits"));
    add("metal.sm_transitions", counter("engine.sm_transitions"));
    add("metal.rule_firings", counter("engine.rule_firings"));
    add("metal.visited_folds", counter("engine.cache_hits"));
    add("metal.ns", metal_ns);
    add("cache.replay_ms", replay_ms);
    add("cache.hits", replayed);
    add("cache.misses", misses);
    add("cache.bytes_read",
        static_cast<double>(cs.bytes_read - cache_before_.bytes_read));
    add("lang.fingerprint_ms", fingerprint_ms);
    add("request_ms", static_cast<double>(log_.durationNs(root_)) / 1e6);

    if (executed + replayed != units || work_units != units) {
        why = "unit conservation: executed " + std::to_string(executed) +
              " + replayed " + std::to_string(replayed) + " != " +
              std::to_string(units) + " units (parallel.work_units " +
              std::to_string(work_units) + ")";
        return false;
    }
    if (cache_ && replayed + misses != units) {
        why = "cache conservation: hits + misses != " +
              std::to_string(units) + " units";
        return false;
    }
    return true;
}

std::map<std::string, double>
Tracer::layerSelfMs() const
{
    std::map<std::string, double> by_layer;
    const std::vector<std::int64_t> self = log_.selfTimes();
    for (std::size_t i = 0; i < self.size(); ++i)
        by_layer[log_.spans()[i].layer] += static_cast<double>(self[i]) / 1e6;
    for (auto& [layer, ms] : by_layer)
        ms /= static_cast<double>(std::max<std::uint64_t>(requests_, 1));
    return by_layer;
}

double
Tracer::coverage() const
{
    const std::vector<std::int64_t> self = log_.selfTimes();
    double wall = 0.0;
    double uncovered = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i) {
        if (log_.spans()[i].parent != -1)
            continue;
        wall += static_cast<double>(log_.durationNs(static_cast<int>(i)));
        uncovered += static_cast<double>(self[i]);
    }
    return wall > 0.0 ? (wall - uncovered) / wall : 0.0;
}

std::map<std::string, double>
Tracer::layerMetrics(double untraced_p50, double traced_p50) const
{
    const double n = static_cast<double>(std::max<std::uint64_t>(requests_, 1));
    std::map<std::string, double> m;
    auto mean = [&](const std::string& name) { m[name] = sum(name) / n; };
    for (const char* name :
         {"corpus.generate_ms", "lang.parse_ms", "lang.files_parsed",
          "lang.fingerprint_ms", "cfg.build_ms", "cfg.flat_lower_ms",
          "cfg.blocks", "cfg.stmts", "cfg.reused", "checkers.run_ms",
          "checkers.units_executed", "checkers.units_replayed",
          "checkers.make_ms", "metal.visits", "metal.sm_transitions",
          "metal.rule_firings", "metal.visited_folds", "cache.replay_ms",
          "cache.hits", "cache.misses", "cache.bytes_read",
          "server.prepare_ms", "server.files_reparsed",
          "server.units_reused", "server.program_reused", "server.wire_ms",
          "server.response_bytes", "support.emit_ms", "support.diagnostics"})
        mean(name);
    for (const std::string& checker : mc::checkers::allCheckerNames())
        mean("checkers." + checker + ".ms");
    const double parse_ms = sum("lang.parse_ms");
    m["lang.parse_mb_per_s"] =
        parse_ms > 0.0 ? sum("lang.bytes") / 1e6 / (parse_ms / 1e3) : 0.0;
    const double visits = sum("metal.visits");
    m["metal.ns_per_visit"] = visits > 0.0 ? sum("metal.ns") / visits : 0.0;
    m["metal.parse_us"] = probes_.metal_parse_us;
    const double lookups = sum("cache.hits") + sum("cache.misses");
    m["cache.hit_ratio"] = lookups > 0.0 ? sum("cache.hits") / lookups : 0.0;
    m["trace.coverage"] = coverage();
    m["trace.overhead_frac"] =
        untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0;
    return m;
}

/** What the traced checking half of a request produced. */
struct TracedCheck
{
    std::string output;
    int exit_code = 3;
    int errors = 0;
    int warnings = 0;
    std::vector<mc::checkers::CheckerRunStats> stats;
};

/**
 * The checking half of runCheckRequest as separate public calls: CFG
 * build and FlatCfg lowering for functions not yet in `cfgs` (when
 * `prebuild`), the checker set, frontend issues, the unit run and the
 * JSON emission.
 */
TracedCheck
checkTraced(Tracer& t, const mc::lang::Program& program,
            const mc::flash::ProtocolSpec& spec,
            mc::cache::AnalysisCache* cache, mc::checkers::CfgCache& cfgs,
            bool prebuild)
{
    const std::vector<const mc::lang::FunctionDecl*>& fns =
        program.functions();
    std::vector<const mc::lang::FunctionDecl*> missing;
    {
        std::lock_guard<std::mutex> lock(cfgs.mu);
        for (const mc::lang::FunctionDecl* fn : fns)
            if (!cfgs.cfgs.count(fn))
                missing.push_back(fn);
    }
    t.add("cfg.reused", static_cast<double>(fns.size() - missing.size()));
    if (prebuild) {
        std::vector<const mc::cfg::Cfg*> built;
        t.add("cfg.build_ms", t.timed("cfg.CfgBuilder.build", "cfg", [&] {
            std::lock_guard<std::mutex> lock(cfgs.mu);
            for (const mc::lang::FunctionDecl* fn : missing) {
                mc::cfg::Cfg cfg = mc::cfg::CfgBuilder::build(*fn);
                cfg.backEdges();
                built.push_back(
                    &cfgs.cfgs.emplace(fn, std::move(cfg)).first->second);
            }
        }));
        t.add("cfg.flat_lower_ms", t.timed("cfg.flatCfg", "cfg", [&] {
            for (const mc::cfg::Cfg* cfg : built) {
                const mc::cfg::FlatCfg& flat = mc::cfg::flatCfg(*cfg);
                t.add("cfg.blocks", flat.blockCount());
                t.add("cfg.stmts", flat.stmtCount());
            }
        }));
    }

    mc::checkers::CheckerSetOptions copts;
    mc::checkers::CheckerSet set;
    t.timed("checkers.makeAllCheckers", "checkers",
            [&] { set = mc::checkers::makeAllCheckers(copts); });
    mc::support::DiagnosticSink sink;
    t.timed("lang.frontendIssues", "lang", [&] {
        for (const mc::lang::TranslationUnit& unit : program.units())
            for (const mc::lang::ParseIssue& issue : unit.issues)
                sink.error(issue.loc, "frontend", issue.rule,
                           issue.message);
    });
    mc::checkers::RunHealth health;
    mc::checkers::ParallelRunOptions prun;
    prun.jobs = 1;
    prun.cache = cache;
    prun.health = &health;
    prun.checker_options = copts;
    prun.cfg_cache = &cfgs;
    TracedCheck result;
    int run = -1;
    t.timed(
        "checkers.runCheckersParallel", "checkers",
        [&] {
            result.stats = mc::checkers::runCheckersParallel(
                program, spec, set.pointers(), sink, prun);
        },
        &run);
    t.setRunSpan(run);

    std::ostringstream out;
    t.add("support.emit_ms",
          t.timed("support.DiagnosticSink.write", "support", [&] {
              sink.write(out, mc::support::OutputFormat::Json,
                         &program.sourceManager());
          }));
    t.add("support.diagnostics",
          static_cast<double>(sink.diagnostics().size()));
    result.output = out.str();
    result.errors = sink.count(mc::support::Severity::Error);
    result.warnings = sink.count(mc::support::Severity::Warning);
    const bool degraded = program.degraded() || health.unit_failures > 0 ||
                          health.budget_truncations > 0;
    result.exit_code = degraded ? 2 : result.errors > 0 ? 1 : 0;
    return result;
}

// ---- workloads -------------------------------------------------------------

/** One timed request's outcome. */
struct Result
{
    /** What was asked (the protocol, or "check"). */
    std::string label;
    double ms = 0.0;
    bool ok = false;
    /** KLOC whose full-program verdict the request delivered. */
    double kloc = 0.0;
    std::string why;
};

/**
 * A closed-loop workload: rounds of requests (a corpus pass, or one
 * edit followed by one re-check), each request checked for correctness.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Drop the previous set-up's state (not timed). */
    virtual void discard() = 0;
    /** One full set-up; false (with a reason) on a wrong answer. */
    virtual bool setup(std::string& why) = 0;
    /** Start a round; returns its request count. */
    virtual std::size_t beginRound(std::mt19937_64& rng) = 0;
    /** Request `i` of the round, untraced or traced. */
    virtual Result request(std::size_t i) = 0;
    virtual Result tracedRequest(std::size_t i, Tracer& t) = 0;
    /** Whole-round checks; false (with a reason) on a mismatch. */
    virtual bool endRound(std::string& why) = 0;
    /** The traced run needs the program's cache-lookup span. */
    virtual bool usesCache() const = 0;
};

/** batch_cold and batch_warm: one protocol-mode request per program. */
class BatchWorkload : public Workload
{
  public:
    BatchWorkload(bool warm, std::string cache_root)
        : warm_(warm), cache_root_(std::move(cache_root))
    {
        for (const std::string& name : kProtocols) {
            Program p;
            p.gen = mc::corpus::generateProtocol(
                mc::corpus::profileByName(name));
            p.kloc = p.gen.totalLoc() / 1000.0;
            programs_.push_back(std::move(p));
        }
    }

    ~BatchWorkload() override
    {
        cache_.reset();
        std::error_code ec;
        std::filesystem::remove_all(cache_root_, ec);
    }

    /**
     * Earlier fills stay on disk until the run ends: deleting ~10K entry
     * files makes the file system slow the next fill by seconds.
     */
    void discard() override { cache_.reset(); }

    bool setup(std::string& why) override
    {
        // Warm: fill a fresh disk cache; every unit misses and is stored.
        if (warm_)
            cache_ = std::make_unique<mc::cache::AnalysisCache>(
                (std::filesystem::path(cache_root_) /
                 ("fill-" + std::to_string(fills_++)))
                    .string());
        Tally pass;
        for (Program& p : programs_) {
            std::ostringstream out;
            std::ostringstream err;
            mc::server::CheckOutcome outcome = mc::server::runCheckRequest(
                makeRequest(p.gen.name), cache_.get(), nullptr, out, err);
            if (outcome.exit_code != 1) {
                why = p.gen.name + ": exit code " +
                      std::to_string(outcome.exit_code) + " " + err.str();
                return false;
            }
            if (p.reference.empty()) {
                if (!reconcile(out.str(), p.gen, p.tally, why))
                    return false;
                p.reference = out.str();
            } else if (out.str() != p.reference) {
                why = p.gen.name + ": set-up output differs from the first";
                return false;
            }
            pass += p.tally;
        }
        if (!(pass == Tally{kPaperErrors, kPaperFalsePositives})) {
            why = "corpus pass reconciles to " + std::to_string(pass.errors) +
                  " errors / " + std::to_string(pass.fps) +
                  " false positives, not 34 / 69";
            return false;
        }
        return true;
    }

    std::size_t beginRound(std::mt19937_64& rng) override
    {
        order_.resize(programs_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        std::shuffle(order_.begin(), order_.end(), rng);
        pass_ = Tally{};
        return order_.size();
    }

    Result request(std::size_t i) override
    {
        Program& p = programs_[order_[i]];
        std::ostringstream out;
        std::ostringstream err;
        Clock::time_point t0 = Clock::now();
        mc::server::CheckOutcome outcome = mc::server::runCheckRequest(
            makeRequest(p.gen.name), cache_.get(), nullptr, out, err);
        Result r;
        r.ms = msSince(t0);
        r.ok = outcome.exit_code == 1;
        if (!r.ok)
            r.why = p.gen.name + ": exit code " +
                    std::to_string(outcome.exit_code);
        if (r.ok && warm_ && outcome.units_reused != outcome.units_total) {
            r.ok = false;
            r.why = p.gen.name + ": warm request re-walked units";
        }
        return verify(p, out.str(), r);
    }

    Result tracedRequest(std::size_t i, Tracer& t) override
    {
        Program& p = programs_[order_[i]];
        const double fingerprint_ms =
            warm_ ? fingerprintProbeMs(p) : 0.0;
        t.begin("request " + p.gen.name, cache_.get());
        Clock::time_point t0 = Clock::now();
        mc::support::setWitnessConfig(false, 0);
        mc::metal::setDefaultMatchStrategy(mc::metal::MatchStrategy::Table);

        mc::corpus::GeneratedProtocol gen;
        t.add("corpus.generate_ms",
              t.timed("corpus.generateProtocol", "corpus", [&] {
                  gen = mc::corpus::generateProtocol(
                      mc::corpus::profileByName(p.gen.name));
              }));
        auto program = std::make_unique<mc::lang::Program>(/*recover=*/true);
        t.add("lang.parse_ms", t.timed("lang.Program.addSource", "lang", [&] {
            for (const mc::corpus::GeneratedFile& file : gen.files)
                program->addSource(file.name, file.source);
        }));
        for (const mc::corpus::GeneratedFile& file : gen.files)
            t.add("lang.bytes", static_cast<double>(file.source.size()));
        t.add("lang.files_parsed", static_cast<double>(gen.files.size()));
        // A warm request re-walks nothing, so runCheckRequest builds no
        // CFGs for it; the cold one builds (and lowers) every function's.
        auto cfgs = std::make_unique<mc::checkers::CfgCache>();
        TracedCheck check =
            checkTraced(t, *program, gen.spec, cache_.get(), *cfgs, !warm_);
        const std::size_t functions = program->functions().size();
        t.timed("cfg.teardown", "cfg", [&] { cfgs.reset(); });
        t.timed("lang.teardown", "lang", [&] { program.reset(); });
        t.timed("corpus.teardown", "corpus",
                [&] { gen = mc::corpus::GeneratedProtocol(); });
        t.endRequest();
        Result r;
        r.ms = msSince(t0);
        r.ok = check.exit_code == 1;
        if (!r.ok)
            r.why =
                p.gen.name + ": exit code " + std::to_string(check.exit_code);
        std::string why;
        if (!t.end(check.stats, functions, fingerprint_ms, why) && r.ok) {
            r.ok = false;
            r.why = p.gen.name + ": " + why;
        }
        return verify(p, check.output, r);
    }

    bool endRound(std::string& why) override
    {
        if (pass_ == Tally{kPaperErrors, kPaperFalsePositives})
            return true;
        why = "corpus pass reconciles to " + std::to_string(pass_.errors) +
              " errors / " + std::to_string(pass_.fps) +
              " false positives, not 34 / 69";
        return false;
    }

    bool usesCache() const override { return warm_; }

  private:
    struct Program
    {
        mc::corpus::GeneratedProtocol gen;
        double kloc = 0.0;
        /** First set-up's output, reconciled with the ledger. */
        std::string reference;
        Tally tally;
        /** Probe cost of the cache-key fingerprints (-1 = not yet). */
        double fingerprint_ms = -1.0;
    };

    static mc::server::CheckRequest makeRequest(const std::string& name)
    {
        mc::server::CheckRequest req;
        req.mode = mc::server::CheckRequest::Mode::Protocol;
        req.protocol = name;
        req.format = mc::support::OutputFormat::Json;
        req.jobs = 1;
        return req;
    }

    /**
     * A request passes when its bytes are the reconciled reference; any
     * other bytes are reconciled afresh so the pass total stays honest.
     */
    Result verify(Program& p, const std::string& output, Result r)
    {
        Tally tally = p.tally;
        if (output != p.reference) {
            std::string why;
            if (!reconcile(output, p.gen, tally, why))
                tally = Tally{};
            if (r.ok) {
                r.ok = false;
                r.why = p.gen.name + ": output differs from the reference" +
                        (why.empty() ? "" : " (" + why + ")");
            }
        }
        pass_ += tally;
        r.label = p.gen.name;
        r.kloc = r.ok ? p.kloc : 0.0;
        return r;
    }

    double fingerprintProbeMs(Program& p)
    {
        if (p.fingerprint_ms < 0.0) {
            mc::corpus::LoadedProtocol loaded =
                mc::corpus::loadProtocol(mc::corpus::profileByName(p.gen.name));
            constexpr int kReps = 3;
            Clock::time_point t0 = Clock::now();
            for (int r = 0; r < kReps; ++r)
                mc::lang::fingerprintFunctions(*loaded.program);
            p.fingerprint_ms = msSince(t0) / kReps;
        }
        return p.fingerprint_ms;
    }

    bool warm_;
    /** Holds one directory per fill. */
    std::string cache_root_;
    int fills_ = 0;
    std::unique_ptr<mc::cache::AnalysisCache> cache_;
    std::vector<Program> programs_;
    std::vector<std::size_t> order_;
    Tally pass_;
};

/** Field `key` of a daemon response's result object, or nullptr. */
const JsonValue*
resultField(const JsonValue& response, const char* key)
{
    const JsonValue* result = response.get("result");
    return result ? result->get(key) : nullptr;
}

/**
 * daemon_edit: a resident daemon holding one program's files as overlay
 * documents. A round is a `change` of one seeded file followed by the
 * timed `check` of the whole file set.
 */
class DaemonWorkload : public Workload
{
  public:
    DaemonWorkload()
        : gen_(mc::corpus::generateProtocol(
              mc::corpus::profileByName(kDaemonProgram)))
    {
        JsonValue files = JsonValue::array();
        for (const mc::corpus::GeneratedFile& file : gen_.files) {
            open_lines_.push_back(line("open", file.name, file.source));
            files.push(JsonValue::string(file.name));
        }
        JsonValue params = JsonValue::object();
        params.set("files", std::move(files));
        params.set("format", JsonValue::string("json"));
        params.set("jobs", JsonValue::number(std::int64_t{1}));
        JsonValue request = JsonValue::object();
        request.set("method", JsonValue::string("check"));
        request.set("params", std::move(params));
        check_line_ = request.dump();
        kloc_ = gen_.totalLoc() / 1000.0;
    }

    void discard() override { daemon_.reset(); }

    bool setup(std::string& why) override
    {
        mc::server::DaemonOptions options;
        options.default_jobs = 1;
        daemon_ = std::make_unique<mc::server::Daemon>(options);
        for (const std::string& l : open_lines_) {
            JsonValue response;
            if (!parseResponse(daemon_->handleRequestLine(l), response,
                               why))
                return false;
        }
        JsonValue response;
        if (!parseResponse(daemon_->handleRequestLine(check_line_), response,
                           why))
            return false;
        const JsonValue* output = resultField(response, "output");
        const JsonValue* exit_code = resultField(response, "exit_code");
        if (!output || !exit_code || exit_code->asInt() != 1) {
            why = "first check did not report findings";
            return false;
        }
        if (reference_.empty())
            reference_ = output->asString();
        else if (output->asString() != reference_) {
            why = "set-up check output differs from the first";
            return false;
        }
        return true;
    }

    std::size_t beginRound(std::mt19937_64& rng) override
    {
        // Each edit appends a fresh extern declaration to one file: new
        // tokens, so the file's units re-walk, but no finding moves.
        edited_ = rng() % gen_.files.size();
        const mc::corpus::GeneratedFile& file = gen_.files[edited_];
        edited_text_ = file.source + "\nextern int mcbench_edit_" +
                       std::to_string(++edits_) + ";\n";
        JsonValue response;
        change_ok_ = parseResponse(daemon_->handleRequestLine(line(
                                       "change", file.name, edited_text_)),
                                   response, change_why_);
        return 1;
    }

    Result request(std::size_t) override
    {
        Clock::time_point t0 = Clock::now();
        std::string response = daemon_->handleRequestLine(check_line_);
        Result r;
        r.ms = msSince(t0);
        JsonValue parsed;
        r.ok = parseResponse(response, parsed, r.why);
        if (r.ok) {
            const JsonValue* output = resultField(parsed, "output");
            const JsonValue* exit_code = resultField(parsed, "exit_code");
            r.ok = output && exit_code && exit_code->asInt() == 1;
            if (!r.ok)
                r.why = "check response lacks findings";
            else if (output->asString() != reference_) {
                r.ok = false;
                r.why = "re-check output differs from the pre-edit output";
            }
        }
        return finish(r);
    }

    Result tracedRequest(std::size_t, Tracer& t) override
    {
        t.begin("request check", &daemon_->cache());
        const std::uint64_t hits_before = daemon_->cache().stats().hits;
        Clock::time_point t0 = Clock::now();
        JsonValue request_json;
        mc::server::CheckRequest request;
        std::string error;
        bool decoded = false;
        double wire_ms = t.timed("server.decodeRequest", "server", [&] {
            decoded = JsonValue::parse(check_line_, request_json, error) &&
                      mc::server::parseCheckParams(
                          request_json.get("params"), 1, request, error);
        });
        mc::support::setWitnessConfig(request.witness, request.witness_limit);
        mc::metal::setDefaultMatchStrategy(request.match_strategy);
        mc::server::ResidentState& resident = daemon_->resident();
        mc::server::PreparedProgram prepared;
        t.add("server.prepare_ms",
              t.timed("server.ResidentState.prepareFiles", "server", [&] {
                  prepared = resident.prepareFiles(
                      request.files,
                      [&resident](const std::string& path,
                                  std::string& contents, std::string& err) {
                          return resident.readFile(path, contents, err);
                      });
              }));
        TracedCheck check;
        if (decoded && prepared.ok && prepared.cfg_cache) {
            mc::flash::ProtocolSpec spec;
            t.timed("server.cliFilesSpec", "server", [&] {
                spec = mc::server::cliFilesSpec(*prepared.program);
            });
            check = checkTraced(t, *prepared.program, spec, &daemon_->cache(),
                                *prepared.cfg_cache, true);
        }
        std::string response;
        wire_ms += t.timed("server.encodeResponse", "server", [&] {
            response = encodeResponse(
                static_cast<std::int64_t>(t.requests()), check, prepared,
                daemon_->cache().stats().hits - hits_before, msSince(t0));
        });
        t.endRequest();
        Result r;
        r.ms = msSince(t0);
        const std::size_t functions =
            prepared.program ? prepared.program->functions().size() : 0;
        const double fingerprint_ms =
            prepared.program ? fingerprintProbeMs(*prepared.program) : 0.0;
        t.add("server.wire_ms", wire_ms);
        t.add("server.response_bytes", static_cast<double>(response.size()));
        t.add("server.files_reparsed",
              static_cast<double>(prepared.files_reparsed));
        t.add("server.program_reused", prepared.reused ? 1.0 : 0.0);
        t.add("lang.files_parsed",
              static_cast<double>(prepared.files_reparsed));
        t.add("lang.parse_ms", parseProbeMs(t));

        r.ok = decoded && prepared.ok && check.exit_code == 1;
        r.why = decoded ? prepared.error : error;
        if (r.ok && check.output != reference_) {
            r.ok = false;
            r.why = "traced re-check output differs from the pre-edit output";
        }
        t.add("server.units_reused",
              static_cast<double>(daemon_->cache().stats().hits -
                                  hits_before));
        std::string why;
        if (!t.end(check.stats, functions, fingerprint_ms, why) && r.ok) {
            r.ok = false;
            r.why = why;
        }
        return finish(r);
    }

    bool endRound(std::string&) override { return true; }
    bool usesCache() const override { return true; }

  private:
    /** The response line Daemon::handleCheck builds for `check`. */
    static std::string encodeResponse(std::int64_t id,
                                      const TracedCheck& check,
                                      const mc::server::PreparedProgram& prep,
                                      std::uint64_t units_reused,
                                      double wall_ms)
    {
        JsonValue stats = JsonValue::object();
        stats.set("units_total",
                  JsonValue::number(static_cast<std::uint64_t>(
                      prep.program ? prep.program->functions().size() *
                                         check.stats.size()
                                   : 0)));
        stats.set("units_reused", JsonValue::number(units_reused));
        stats.set("files_reparsed", JsonValue::number(prep.files_reparsed));
        stats.set("program_reused", JsonValue::boolean(prep.reused));
        stats.set("wall_ms", JsonValue::number(wall_ms));
        JsonValue result = JsonValue::object();
        result.set("exit_code",
                   JsonValue::number(std::int64_t{check.exit_code}));
        result.set("errors", JsonValue::number(std::int64_t{check.errors}));
        result.set("warnings",
                   JsonValue::number(std::int64_t{check.warnings}));
        result.set("output", JsonValue::string(check.output));
        result.set("stderr", JsonValue::string(""));
        result.set("stats", std::move(stats));
        return mc::server::makeResultResponse(id, std::move(result)).dump();
    }

    static std::string line(const char* method, const std::string& path,
                            const std::string& text)
    {
        JsonValue params = JsonValue::object();
        params.set("path", JsonValue::string(path));
        params.set("text", JsonValue::string(text));
        JsonValue request = JsonValue::object();
        request.set("method", JsonValue::string(method));
        request.set("params", std::move(params));
        return request.dump();
    }

    static bool parseResponse(const std::string& text, JsonValue& out,
                              std::string& why)
    {
        std::string error;
        if (!JsonValue::parse(text, out, error)) {
            why = "response is not JSON: " + error;
            return false;
        }
        if (out.get("error") || !out.get("result")) {
            why = "error response: " + text.substr(0, 200);
            return false;
        }
        return true;
    }

    /** The change that opened this round must have succeeded too. */
    Result finish(Result r)
    {
        if (!change_ok_ && r.ok) {
            r.ok = false;
            r.why = change_why_;
        }
        r.label = "check";
        r.kloc = r.ok ? kloc_ : 0.0;
        return r;
    }

    /** Cost of re-parsing the edited file alone (the lang share inside
     *  prepareFiles), from a fresh Program outside the request. */
    double parseProbeMs(Tracer& t)
    {
        mc::lang::Program program(/*recover=*/true);
        Clock::time_point t0 = Clock::now();
        program.addSource(gen_.files[edited_].name, edited_text_);
        t.add("lang.bytes", static_cast<double>(edited_text_.size()));
        return msSince(t0);
    }

    static double fingerprintProbeMs(const mc::lang::Program& program)
    {
        Clock::time_point t0 = Clock::now();
        mc::lang::fingerprintFunctions(program);
        return msSince(t0);
    }

    mc::corpus::GeneratedProtocol gen_;
    std::vector<std::string> open_lines_;
    std::string check_line_;
    double kloc_ = 0.0;
    std::unique_ptr<mc::server::Daemon> daemon_;
    /** Output of the first check after set-up, before any edit. */
    std::string reference_;
    std::size_t edited_ = 0;
    std::string edited_text_;
    std::uint64_t edits_ = 0;
    bool change_ok_ = true;
    std::string change_why_;
};

// ---- the closed loop -----------------------------------------------------

struct LoopResult
{
    /** Wall ms of each request. */
    std::vector<double> ms;
    /** The speed probe's ms right before each request. */
    std::vector<double> probe_ms;
    /** Each request's ms at the reference speed. */
    std::vector<double> scaled_ms;
    /** When each request's round began, ms since the loop began. */
    std::vector<double> round_at_ms;
    std::map<std::string, std::vector<double>> ms_by_label;
    std::uint64_t failed = 0;
    double kloc = 0.0;
    double wall_s = 0.0;
    /** Sum of scaled_ms, in seconds. */
    double scaled_s = 0.0;
    /** Peak RSS after kRssRequests requests (or at the end, if fewer). */
    double rss_mb = 0.0;
    std::vector<std::string> failures;
};

/** Switch the program's own registry (and cache-lookup spans) on or off. */
void
setProgramTracing(bool on, bool cache_spans)
{
    mc::support::MetricsRegistry::global().setEnabled(on);
    mc::support::TraceRecorder::global().setEnabled(on && cache_spans);
}

/**
 * Run rounds until `seconds` pass (or, when `max_requests` is set, until
 * each kind of round has that many requests). With a tracer, rounds
 * alternate untraced/traced so both halves see the same host conditions.
 * The speed probe runs right before every request.
 */
void
runLoop(Workload& w, std::mt19937_64& rng, double seconds,
        std::size_t max_requests, Tracer* tracer, LoopResult& plain,
        LoopResult& traced)
{
    auto done = [&](Clock::time_point t0) {
        if (msSince(t0) >= seconds * 1000.0)
            return true;
        return max_requests != 0 && plain.ms.size() >= max_requests &&
               (!tracer || traced.ms.size() >= max_requests);
    };
    const Clock::time_point t0 = Clock::now();
    for (std::size_t round = 0; !done(t0); ++round) {
        Tracer* t = tracer && round % 2 == 1 ? tracer : nullptr;
        LoopResult& res = t ? traced : plain;
        auto note = [&](const std::string& why) {
            if (res.failures.size() < 5)
                res.failures.push_back(why);
        };
        setProgramTracing(t != nullptr, w.usesCache());
        const Clock::time_point r0 = Clock::now();
        const double round_at_ms = msSince(t0);
        const std::size_t n = w.beginRound(rng);
        std::uint64_t round_failed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double probe_ms = speedProbeMs();
            Result r = t ? w.tracedRequest(i, *t) : w.request(i);
            res.ms.push_back(r.ms);
            res.probe_ms.push_back(probe_ms);
            res.scaled_ms.push_back(scaled(r.ms, probe_ms));
            res.scaled_s += res.scaled_ms.back() / 1000.0;
            res.round_at_ms.push_back(round_at_ms);
            res.ms_by_label[r.label].push_back(r.ms);
            if (res.ms.size() == kRssRequests)
                res.rss_mb = peakRssMb();
            res.kloc += r.kloc;
            if (!r.ok) {
                ++round_failed;
                note(r.why);
            }
        }
        std::string why;
        if (!w.endRound(why)) {
            note(why);
            round_failed = n;
        }
        res.failed += round_failed;
        res.wall_s += msSince(r0) / 1000.0;
    }
    setProgramTracing(false, false);
    for (LoopResult* res : {&plain, &traced})
        if (res->rss_mb == 0.0)
            res->rss_mb = peakRssMb();
}

// ---- reporting -------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

std::string
number(double v)
{
    std::ostringstream os;
    os << std::setprecision(15) << v;
    return os.str();
}

void
writeMetricsJson(std::ostream& os, const std::vector<Metric>& metrics)
{
    os << '{';
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << number(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << '}';
}

/** Per-layer metric units; everything else named *_ms is in ms. */
std::string
layerUnit(const std::string& name)
{
    static const std::map<std::string, std::string> units = {
        {"lang.parse_mb_per_s", "MB/s"}, {"metal.ns_per_visit", "ns"},
        {"metal.parse_us", "us"},        {"cache.hit_ratio", "ratio"},
        {"cache.bytes_read", "bytes"},   {"server.response_bytes", "bytes"},
        {"server.program_reused", "ratio"},
        {"trace.coverage", "ratio"},     {"trace.overhead_frac", "ratio"},
    };
    auto it = units.find(name);
    if (it != units.end())
        return it->second;
    const bool ms = name.size() > 3 &&
                    (name.compare(name.size() - 3, 3, "_ms") == 0 ||
                     name.compare(name.size() - 3, 3, ".ms") == 0);
    return ms ? "ms" : "count";
}

int
run(const Options& opt)
{
    const Host host = probeHost();
    std::filesystem::create_directories(opt.out_dir);
    std::filesystem::create_directories(opt.work_dir);

    std::unique_ptr<Workload> workload;
    if (opt.workload == "daemon_edit")
        workload = std::make_unique<DaemonWorkload>();
    else
        workload = std::make_unique<BatchWorkload>(
            opt.workload == "batch_warm",
            (std::filesystem::path(opt.work_dir) /
             ("warm-cache-" + std::to_string(getpid())))
                .string());

    bool correct = true;
    std::vector<std::string> problems;
    std::vector<double> setup_s;
    std::vector<double> setup_scaled_s;
    for (int i = 0; i < kSetups; ++i) {
        std::string why;
        workload->discard();
        const double probe_before = speedProbeMs();
        Clock::time_point t0 = Clock::now();
        const bool ok = workload->setup(why);
        setup_s.push_back(msSince(t0) / 1000.0);
        setup_scaled_s.push_back(scaled(
            setup_s.back(), (probe_before + speedProbeMs()) / 2.0));
        if (!ok) {
            correct = false;
            problems.push_back("set-up: " + why);
            break;
        }
    }

    std::mt19937_64 rng(opt.seed);
    LoopResult plain;
    LoopResult traced;
    std::unique_ptr<Tracer> tracer;
    if (opt.trace)
        tracer = std::make_unique<Tracer>();
    if (correct)
        runLoop(*workload, rng, opt.seconds, opt.max_requests, tracer.get(),
                plain, traced);
    std::uint64_t attempted = plain.ms.size() + traced.ms.size();
    std::uint64_t failed = plain.failed + traced.failed;
    if (!correct) {
        // A set-up with wrong answers counts as one failed request.
        attempted = std::max<std::uint64_t>(attempted, 1);
        failed = attempted;
    }
    for (const LoopResult* l : {&plain, &traced})
        for (const std::string& why : l->failures)
            problems.push_back(why);
    if (failed > 0)
        correct = false;

    const double p50 = percentile(plain.scaled_ms, 50.0);
    const double p90 = percentile(plain.scaled_ms, 90.0);
    const std::size_t beyond_p90 = static_cast<std::size_t>(
        std::count_if(plain.scaled_ms.begin(), plain.scaled_ms.end(),
                      [&](double v) { return v > p90; }));
    const double failed_frac =
        attempted ? static_cast<double>(failed) / attempted : 1.0;

    std::vector<Metric> e2e = {
        {"setup_s", percentile(setup_scaled_s, 50.0), "s",
         "median of " + std::to_string(setup_s.size()) +
             " set-ups; wall median " + number(percentile(setup_s, 50.0))},
        {"request_ms.p50", p50, "ms",
         std::to_string(plain.ms.size()) + " samples; wall median " +
             number(percentile(plain.ms, 50.0))},
        {"request_ms.p90", p90, "ms",
         std::to_string(beyond_p90) + " samples beyond; wall p90 " +
             number(percentile(plain.ms, 90.0))},
        {"kloc_per_s",
         plain.scaled_s > 0.0 ? plain.kloc / plain.scaled_s : 0.0, "KLOC/s",
         "over " + number(plain.scaled_s) + " s of requests; " +
             number(plain.wall_s) + " s of loop wall"},
        {"peak_rss_mb", plain.rss_mb, "MiB",
         "getrusage ru_maxrss after " +
             std::to_string(std::min(kRssRequests, plain.ms.size())) +
             " requests"},
    };
    std::vector<Metric> layers;
    if (tracer) {
        for (const auto& [name, value] : tracer->layerMetrics(
                 percentile(plain.ms, 50.0), percentile(traced.ms, 50.0)))
            layers.push_back({name, value, layerUnit(name), ""});
    }

    std::ostringstream summary;
    summary << "workload " << opt.workload << " seed " << opt.seed
            << " trace " << (opt.trace ? 1 : 0) << ": " << attempted
            << " requests, " << failed << " failed\n";
    for (const Metric& m : e2e)
        summary << "  " << std::left << std::setw(18) << m.name
                << std::right << std::setw(14) << number(m.value) << ' '
                << std::left << std::setw(7) << m.unit << m.note << '\n';
    summary << "  " << std::left << std::setw(18) << "failed_frac"
            << std::right << std::setw(14) << number(failed_frac) << ' '
            << std::left << std::setw(7) << "ratio" << failed << " of "
            << attempted << " requests\n";
    summary << "  speed probe: median "
            << number(percentile(plain.probe_ms, 50.0))
            << " ms; the times above are read at " << number(kRefProbeMs)
            << " ms\n";
    summary << "  host: " << host.cpu_model << ", nproc " << host.nproc
            << ", build " << host.build_type << ", effective_parallelism "
            << number(host.effective_parallelism) << '\n';
    if (tracer) {
        summary << "  traced: " << traced.ms.size() << " requests\n";
        summary << "  layer self time, ms per request:\n";
        const double wall = tracer->sum("request_ms") /
                            std::max<double>(1.0, tracer->requests());
        for (const auto& [layer, ms] : tracer->layerSelfMs())
            summary << "    " << std::left << std::setw(10) << layer
                    << std::right << std::setw(10) << number(ms) << "  ("
                    << number(wall > 0 ? 100.0 * ms / wall : 0.0)
                    << "% of request wall)\n";
        for (const Metric& m : layers)
            summary << "  " << std::left << std::setw(28) << m.name
                    << std::right << std::setw(14) << number(m.value) << ' '
                    << m.unit << '\n';
    }
    for (const std::string& p : problems)
        summary << "  FAILED: " << p << '\n';
    std::cout << summary.str();

    const std::string stem = opt.workload + "-s" + std::to_string(opt.seed) +
                             "-t" + (opt.trace ? "1" : "0");
    std::string trace_path;
    if (tracer) {
        trace_path = (std::filesystem::path(opt.out_dir) /
                      ("trace-" + stem + ".json"))
                         .string();
        std::ofstream tf(trace_path);
        tracer->log().writeChromeJson(tf);
    }
    {
        std::ofstream rf(std::filesystem::path(opt.out_dir) /
                         ("result-" + stem + ".json"));
        rf << "{\"workload\": \"" << opt.workload
           << "\", \"seed\": " << opt.seed
           << ", \"trace\": " << (opt.trace ? 1 : 0)
           << ",\n \"host\": {\"cpu_model\": \"" << host.cpu_model
           << "\", \"nproc\": " << host.nproc << ", \"build_type\": \""
           << host.build_type << "\", \"spin_1_ms\": "
           << number(host.spin_1_ms)
           << ", \"spin_nproc_ms\": " << number(host.spin_n_ms)
           << ", \"effective_parallelism\": "
           << number(host.effective_parallelism) << "},\n \"samples\": "
           << plain.ms.size() << ", \"beyond_p90\": " << beyond_p90
           << ", \"traced_samples\": " << traced.ms.size()
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"failed_frac\": " << number(failed_frac)
           << ",\n \"p50_ms_by_request\": {";
        const char* sep = "";
        for (const auto& [label, ms] : plain.ms_by_label) {
            rf << sep << '"' << label << "\": " << number(percentile(ms, 50.0));
            sep = ", ";
        }
        rf << "},\n \"request_ms_samples\": [";
        for (std::size_t i = 0; i < plain.ms.size(); ++i)
            rf << (i ? ", " : "") << "[" << number(plain.round_at_ms[i]) << ", "
               << number(plain.ms[i]) << ", " << number(plain.probe_ms[i])
               << "]";
        rf << "],\n \"setup_s_samples\": [";
        for (std::size_t i = 0; i < setup_s.size(); ++i)
            rf << (i ? ", " : "") << "[" << number(setup_s[i]) << ", "
               << number(setup_scaled_s[i]) << "]";
        rf << "],\n \"end_to_end\": ";
        writeMetricsJson(rf, e2e);
        rf << ",\n \"per_layer\": ";
        writeMetricsJson(rf, layers);
        rf << ",\n \"chrome_trace\": \"" << trace_path << "\"}\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": ";
    writeMetricsJson(std::cout, opt.trace ? layers : e2e);
    std::cout << "}" << std::endl;
    return 0;
}

} // namespace
} // namespace mcbench

int
main(int argc, char** argv)
{
    mcbench::Options options;
    std::string error;
    if (!mcbench::parseOptions(argc, argv, options, error)) {
        std::cerr << "mcbench: " << error << '\n';
        return 2;
    }
    try {
        return mcbench::run(options);
    } catch (const std::exception& e) {
        std::cerr << "mcbench: " << e.what() << '\n';
        return 1;
    }
}
