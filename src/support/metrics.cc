#include "support/metrics.h"

#include "support/text.h"

#include <ostream>

namespace mc::support {

namespace {

/** The instrument named `name`, created on first use. */
template <typename Map>
typename Map::mapped_type&
getOrCreate(Map& map, std::string_view name)
{
    auto it = map.find(name);
    if (it == map.end())
        it = map.try_emplace(std::string(name)).first;
    return it->second;
}

} // namespace

MetricsRegistry&
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

Counter&
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return getOrCreate(counters_, name);
}

Gauge&
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return getOrCreate(gauges_, name);
}

Timer&
MetricsRegistry::timer(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return getOrCreate(timers_, name);
}

Histogram&
MetricsRegistry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return getOrCreate(histograms_, name);
}

std::uint64_t
MetricsRegistry::counterValue(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

std::uint64_t
MetricsRegistry::gaugeValue(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second.value();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_)
        c.reset();
    for (auto& [name, g] : gauges_)
        g.reset();
    for (auto& [name, t] : timers_)
        t.reset();
    for (auto& [name, h] : histograms_)
        h.reset();
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
    gauges_.clear();
    timers_.clear();
    histograms_.clear();
}

void
MetricsRegistry::writeJson(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // std::map iteration gives sorted, deterministic key order.
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << c.value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << g.value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"timers\": {";
    first = true;
    for (const auto& [name, t] : timers_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << t.count()
           << ", \"total_ms\": " << t.totalMillis()
           << ", \"mean_ms\": " << t.meanNanos() / 1e6
           << ", \"min_ms\": " << static_cast<double>(t.minNanos()) / 1e6
           << ", \"max_ms\": " << static_cast<double>(t.maxNanos()) / 1e6
           << '}';
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << h.count()
           << ", \"p50\": " << h.percentile(50.0)
           << ", \"p95\": " << h.percentile(95.0)
           << ", \"max\": " << h.max() << '}';
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

} // namespace mc::support
