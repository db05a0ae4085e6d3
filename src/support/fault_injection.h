#ifndef MCHECK_SUPPORT_FAULT_INJECTION_H
#define MCHECK_SUPPORT_FAULT_INJECTION_H

#include <atomic>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mc::support {

/**
 * Thrown by an armed fault-injection probe. Always defined (even when
 * probes are compiled out) so catch sites need no #ifdef.
 */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(std::string site, std::string key)
        : std::runtime_error("injected fault at " + site +
                             (key.empty() ? std::string() : " [" + key + "]")),
          site_(std::move(site)), key_(std::move(key))
    {
    }

    const std::string& site() const { return site_; }
    const std::string& key() const { return key_; }

  private:
    std::string site_;
    std::string key_;
};

/**
 * Fault-injection hooks for robustness testing.
 *
 * Probes are inert until armed with a spec of the form `site:n`
 * (via --inject-fault or the MCCHECK_FAULT_INJECT env var):
 *
 *   - Keyed probes — `probe(site, key)` — fire when the armed site
 *     matches and `fnv1a(key) % n == 0`. The decision is a pure function
 *     of the unit's identity, NOT of scheduling order, so the same set
 *     of units fails at --jobs 1 and --jobs 4 and containment output
 *     stays byte-identical. Used at per-unit sites (checker.unit,
 *     cache.lookup, cache.store, pool.task).
 *
 *   - Counted probes — `probe(site)` — fire on every Nth call at the
 *     armed site (a process-wide counter). Only used at sequential
 *     sites (parser.top_level), where call order is deterministic.
 *
 * Armed sites (grep for fault::probe to confirm the current set):
 *   parser.top_level  — keyed+counted, before each top-level decl parse
 *   checker.unit      — keyed by "function/checker", start of each unit
 *   walker.walk       — keyed by walk label, start of each path walk
 *   cache.lookup      — keyed by entry filename, inside lookup I/O
 *   cache.store       — keyed by entry filename, inside store I/O
 *   pool.task         — keyed, inside parallelFor bodies (tests only)
 *   server.request    — keyed by method name, after a daemon request is
 *                       decoded but before it executes (containment:
 *                       the client gets a structured error and the
 *                       daemon's resident state stays untouched)
 *   worker.spawn      — keyed by "worker:<slot>:spawn:<attempt>", in the
 *                       shard supervisor before forking a worker; the
 *                       spawn fails and retries under backoff, the slot
 *                       is abandoned after max_spawn_attempts
 *   worker.request    — keyed by "function/checker", in a shard worker
 *                       at the start of each requested unit; the worker
 *                       process _Exit(9)s mid-batch (as a segfault or
 *                       OOM kill would look from the coordinator)
 *   worker.hang       — keyed by "function/checker", same site; the
 *                       worker stalls forever under a live heartbeat,
 *                       so only the per-batch deadline can catch it
 *   shard.merge       — keyed by "function/checker", in the coordinator
 *                       as it merges that unit's result (containment:
 *                       the unit degrades to an "analysis incomplete"
 *                       warning, byte-identical at any shard count)
 *
 * Probes compile to nothing unless MCHECK_FAULT_INJECTION is defined
 * (CMake option of the same name, default ON; turn OFF for release
 * builds that must not carry the hooks). When compiled in but disarmed,
 * a probe costs one relaxed atomic load; hot call sites test `armed()`
 * first so they build their key only when a probe could fire.
 */
namespace fault {

#if defined(MCHECK_FAULT_INJECTION)

namespace detail {
/** Set while a site is armed; the slow path re-checks under a lock. */
extern std::atomic<bool> g_armed;
void probeArmed(const char* site, std::string_view key);
void probeArmed(const char* site);
} // namespace detail

/** Arm from a `site:n` spec; n >= 1. Returns false on a malformed spec. */
bool arm(std::string_view spec);

/** Arm from $MCCHECK_FAULT_INJECT if set. False if unset or malformed. */
bool armFromEnv();

/** Disarm and reset counters (tests). */
void disarm();

/** True if any site is armed: one relaxed load. */
inline bool
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/** Number of probes that have fired since arming. */
unsigned long triggered();

/** Keyed probe: throws InjectedFault iff armed for `site` and the key
 * hashes into the armed 1-in-n bucket. */
inline void
probe(const char* site, std::string_view key)
{
    if (armed())
        detail::probeArmed(site, key);
}

/** Counted probe: throws InjectedFault on every Nth call at `site`. */
inline void
probe(const char* site)
{
    if (armed())
        detail::probeArmed(site);
}

#else

inline bool arm(std::string_view) { return false; }
inline bool armFromEnv() { return false; }
inline void disarm() {}
inline bool armed() { return false; }
inline unsigned long triggered() { return 0; }
inline void probe(const char*, std::string_view) {}
inline void probe(const char*) {}

#endif

} // namespace fault

} // namespace mc::support

#endif // MCHECK_SUPPORT_FAULT_INJECTION_H
