#include "support/fault_injection.h"

#if defined(MCHECK_FAULT_INJECTION)

#include "support/hash.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace mc::support::fault {

namespace {

struct Arming
{
    std::string site;
    unsigned long n = 0; // 0 = disarmed
};

std::mutex g_mutex;
/** Guarded by g_mutex; detail::g_armed mirrors `n != 0`. */
Arming g_arming;
std::atomic<unsigned long> g_calls{0};     // counted-probe calls at the site
std::atomic<unsigned long> g_triggered{0}; // probes that fired

Arming
snapshot()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_arming;
}

} // namespace

std::atomic<bool> detail::g_armed{false};

bool
arm(std::string_view spec)
{
    std::size_t colon = spec.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == spec.size())
        return false;
    unsigned long n = 0;
    for (char c : spec.substr(colon + 1)) {
        if (c < '0' || c > '9')
            return false;
        n = n * 10 + static_cast<unsigned long>(c - '0');
        if (n > 1000000000UL)
            return false;
    }
    if (n == 0)
        return false;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_arming.site = std::string(spec.substr(0, colon));
    g_arming.n = n;
    g_calls.store(0, std::memory_order_relaxed);
    g_triggered.store(0, std::memory_order_relaxed);
    detail::g_armed.store(true, std::memory_order_relaxed);
    return true;
}

bool
armFromEnv()
{
    const char* spec = std::getenv("MCCHECK_FAULT_INJECT");
    if (spec == nullptr || *spec == '\0')
        return false;
    return arm(spec);
}

void
disarm()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_arming = Arming{};
    detail::g_armed.store(false, std::memory_order_relaxed);
    g_calls.store(0, std::memory_order_relaxed);
    g_triggered.store(0, std::memory_order_relaxed);
}

unsigned long
triggered()
{
    return g_triggered.load(std::memory_order_relaxed);
}

void
detail::probeArmed(const char* site, std::string_view key)
{
    Arming a = snapshot();
    if (a.n == 0 || a.site != site)
        return;
    // Pure function of the unit's identity: the same keys fail no matter
    // how units are scheduled across threads.
    if (fnv1a(key) % a.n != 0)
        return;
    g_triggered.fetch_add(1, std::memory_order_relaxed);
    throw InjectedFault(site, std::string(key));
}

void
detail::probeArmed(const char* site)
{
    Arming a = snapshot();
    if (a.n == 0 || a.site != site)
        return;
    unsigned long call = g_calls.fetch_add(1, std::memory_order_relaxed) + 1;
    if (call % a.n != 0)
        return;
    g_triggered.fetch_add(1, std::memory_order_relaxed);
    throw InjectedFault(site, std::string());
}

} // namespace mc::support::fault

#endif // MCHECK_FAULT_INJECTION
