#ifndef MCHECK_SUPPORT_METRICS_H
#define MCHECK_SUPPORT_METRICS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace mc::support {

/**
 * A monotonically increasing counter. Handles returned by
 * MetricsRegistry::counter are stable for the registry's lifetime, so hot
 * loops can hold one and increment without a map lookup.
 *
 * Thread-safe: `add` is a relaxed atomic fetch-add, so worker threads of
 * the parallel checking engine publish into one shared instrument without
 * locks; the merged total is exact regardless of interleaving.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * A high-water-mark gauge: `observe` keeps the maximum value seen since
 * the last reset (peak frontier size, worst-case path counts).
 *
 * Thread-safe via an atomic max-merge: concurrent observers race only to
 * raise the value, so the final reading is the true maximum across all
 * threads — max is commutative, making the merge order irrelevant.
 */
class Gauge
{
  public:
    void
    observe(std::uint64_t v)
    {
        std::uint64_t cur = value_.load(std::memory_order_relaxed);
        while (v > cur &&
               !value_.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed)) {
        }
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Accumulated wall time plus an invocation count. Fed by ScopedTimer or
 * directly via `add`.
 *
 * Thread-safe: both fields are relaxed atomics. The two increments of one
 * `add` are not a single transaction, so a concurrent reader can observe
 * a count/total pair mid-update; totals are exact once writers quiesce
 * (reports are written after the pool joins).
 */
class Timer
{
  public:
    void
    add(std::chrono::nanoseconds elapsed)
    {
        std::uint64_t ns = static_cast<std::uint64_t>(elapsed.count());
        total_ns_.fetch_add(ns, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        // min/max via CAS max-merge (commutative; order irrelevant).
        std::uint64_t cur = min_ns_.load(std::memory_order_relaxed);
        while (ns < cur && !min_ns_.compare_exchange_weak(
                               cur, ns, std::memory_order_relaxed)) {
        }
        cur = max_ns_.load(std::memory_order_relaxed);
        while (ns > cur && !max_ns_.compare_exchange_weak(
                               cur, ns, std::memory_order_relaxed)) {
        }
    }

    std::uint64_t totalNanos() const
    {
        return total_ns_.load(std::memory_order_relaxed);
    }

    double totalMillis() const
    {
        return static_cast<double>(totalNanos()) / 1e6;
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Shortest recorded interval in ns (0 before any add). */
    std::uint64_t
    minNanos() const
    {
        std::uint64_t v = min_ns_.load(std::memory_order_relaxed);
        return v == kNoMin ? 0 : v;
    }

    /** Longest recorded interval in ns (0 before any add). */
    std::uint64_t maxNanos() const
    {
        return max_ns_.load(std::memory_order_relaxed);
    }

    /** Mean interval in ns (0 before any add). */
    double
    meanNanos() const
    {
        std::uint64_t n = count();
        return n == 0 ? 0.0
                      : static_cast<double>(totalNanos()) /
                            static_cast<double>(n);
    }

    void
    reset()
    {
        total_ns_.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        min_ns_.store(kNoMin, std::memory_order_relaxed);
        max_ns_.store(0, std::memory_order_relaxed);
    }

  private:
    static constexpr std::uint64_t kNoMin = ~std::uint64_t{0};

    std::atomic<std::uint64_t> total_ns_{0};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> min_ns_{kNoMin};
    std::atomic<std::uint64_t> max_ns_{0};
};

/**
 * Fixed-bucket distribution: power-of-two buckets (bucket i holds values
 * whose bit width is i, so bucket bounds never drift), an exact count,
 * and an exact maximum. `percentile` answers with the upper bound of the
 * bucket containing the requested rank, clamped to the true max — a
 * deterministic, allocation-free approximation that is exact enough for
 * p50/p95 trend lines over unit wall times and visit counts.
 *
 * Thread-safe the same way Counter is: every field is a relaxed atomic,
 * readers expect a quiesced registry for consistent snapshots.
 */
class Histogram
{
  public:
    void
    observe(std::uint64_t v)
    {
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t cur = max_.load(std::memory_order_relaxed);
        while (v > cur && !max_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    /**
     * Upper bound of the bucket holding the `p`-th percentile value
     * (p in [0, 100]), clamped to the exact max. 0 when empty.
     */
    std::uint64_t
    percentile(double p) const
    {
        std::uint64_t n = count();
        if (n == 0)
            return 0;
        if (p < 0.0)
            p = 0.0;
        if (p > 100.0)
            p = 100.0;
        // Rank of the requested value, 1-based, ceil'd so p100 == max.
        std::uint64_t rank = static_cast<std::uint64_t>(
            (p / 100.0) * static_cast<double>(n) + 0.9999999);
        if (rank < 1)
            rank = 1;
        std::uint64_t seen = 0;
        for (int b = 0; b < kBuckets; ++b) {
            seen += buckets_[b].load(std::memory_order_relaxed);
            if (seen >= rank) {
                std::uint64_t upper =
                    b == 0 ? 0
                           : (b >= 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << b) - 1);
                std::uint64_t mx = max();
                return upper < mx ? upper : mx;
            }
        }
        return max();
    }

    void
    reset()
    {
        for (auto& b : buckets_)
            b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    /** 0 -> bucket 0; otherwise the value's bit width (1..64). */
    static int
    bucketOf(std::uint64_t v)
    {
        int w = 0;
        while (v != 0) {
            ++w;
            v >>= 1;
        }
        return w;
    }

    static constexpr int kBuckets = 65;

    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> max_{0};
};

/**
 * Process-wide registry of named counters, gauges, and timers.
 *
 * Metric names are dotted stable keys ("engine.visits",
 * "checker.lanes.wall_ms") intended for BENCH_*.json trend tracking: once
 * published, a key's meaning never changes. Instruments are created on
 * first use and persist (zeroed, not dropped) across `reset`, so a report
 * always lists every metric the process has touched.
 *
 * The registry is disabled by default. Instrumentation sites are expected
 * to keep cheap local tallies unconditionally and only publish into the
 * registry behind `enabled()`, which makes the disabled configuration
 * cost one inlined boolean load per engine run — nothing per statement.
 *
 * Concurrency: get-or-create takes a mutex, but the returned references
 * are stable (std::map nodes never move), so hot paths look up once and
 * then touch only the lock-free instruments. The map accessors
 * (`counters()` et al.) and `writeJson` expect a quiesced registry — the
 * engine joins its pool before reporting.
 */
class MetricsRegistry
{
  public:
    /** The process-wide instance used by all instrumentation sites. */
    static MetricsRegistry& global();

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /**
     * Get-or-create; the returned reference is stable. Thread-safe. A
     * lookup of an existing name allocates nothing.
     */
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Timer& timer(std::string_view name);
    Histogram& histogram(std::string_view name);

    /** Value of a counter, or 0 if it was never touched. Thread-safe. */
    std::uint64_t counterValue(const std::string& name) const;
    std::uint64_t gaugeValue(const std::string& name) const;

    template <typename Instrument>
    using Instruments = std::map<std::string, Instrument, std::less<>>;

    const Instruments<Counter>& counters() const { return counters_; }
    const Instruments<Gauge>& gauges() const { return gauges_; }
    const Instruments<Timer>& timers() const { return timers_; }
    const Instruments<Histogram>& histograms() const { return histograms_; }

    /** Zero every instrument, keeping registrations. */
    void reset();

    /** Drop every instrument (invalidates outstanding handles). */
    void clear();

    /**
     * Write the report as JSON with stable keys:
     * {"counters": {name: n}, "gauges": {name: n},
     *  "timers": {name: {"count", "total_ms", "mean_ms", "min_ms",
     *                    "max_ms"}},
     *  "histograms": {name: {"count", "p50", "p95", "max"}}}
     */
    void writeJson(std::ostream& os) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    Instruments<Counter> counters_;
    Instruments<Gauge> gauges_;
    Instruments<Timer> timers_;
    Instruments<Histogram> histograms_;
};

/**
 * RAII wall timer. Constructed against a Timer (or nullptr for the
 * disabled case, making the whole object a no-op — the clock is never
 * read). Typical use:
 *
 *     auto& m = MetricsRegistry::global();
 *     ScopedTimer t(m.enabled() ? &m.timer("engine.run") : nullptr);
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer* timer) : timer_(timer)
    {
        if (timer_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer() { stop(); }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    /** Record now instead of at destruction (idempotent). */
    void
    stop()
    {
        if (!timer_)
            return;
        timer_->add(std::chrono::steady_clock::now() - start_);
        timer_ = nullptr;
    }

  private:
    Timer* timer_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace mc::support

#endif // MCHECK_SUPPORT_METRICS_H
