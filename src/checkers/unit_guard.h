#ifndef MCHECK_CHECKERS_UNIT_GUARD_H
#define MCHECK_CHECKERS_UNIT_GUARD_H

#include "support/budget.h"
#include "support/diagnostics.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace mc::checkers {

/** What happened to one guarded (function, checker) work unit. */
struct UnitOutcome
{
    /** True when the unit threw and its results must be discarded. */
    bool failed = false;
    /** Failure description (exception what()) when failed. */
    std::string error;
    /**
     * Resource-budget limit that truncated the unit's analysis, or
     * None. Truncation is graceful — the unit "succeeded" with partial
     * coverage — so failed stays false.
     */
    support::BudgetStop budget_stop = support::BudgetStop::None;
    /** Budget steps the unit charged (walker visits, mostly). */
    std::uint64_t steps = 0;
    /** Unit wall time. */
    std::chrono::milliseconds elapsed{0};
};

/**
 * Fault containment for one (function, checker) work unit.
 *
 * `run` installs a per-unit resource Budget (thread-local, consulted by
 * PathWalker deep inside the checker) and executes the body under a
 * catch-everything barrier: any exception — a checker bug, an injected
 * fault, bad_alloc — is captured into the outcome instead of escaping
 * to the thread pool, so one crashing unit cannot take down the run or
 * perturb the deterministic merge. In rethrow mode (--fail-fast) the
 * exception is recorded and then propagated, aborting the run.
 *
 * The guard is deliberately containment-only: it does not log, count
 * metrics, or emit diagnostics. The caller decides how a failure
 * surfaces (engine.unit_failures metric + "analysis incomplete"
 * diagnostic in the parallel runner).
 */
class UnitGuard
{
  public:
    /**
     * @param function, checker Unit identity, joined as
     *   "function/checker" in error messages only when one is written;
     *   both must outlive the guard.
     * @param limits Per-unit resource budget (default: unlimited).
     * @param rethrow Propagate the failure after recording it
     *   (--fail-fast).
     */
    UnitGuard(std::string_view function, std::string_view checker,
              support::BudgetLimits limits = {}, bool rethrow = false)
        : function_(function), checker_(checker), limits_(limits),
          rethrow_(rethrow)
    {
    }

    /** Execute `body` contained; never throws unless rethrow is set. */
    UnitOutcome run(const std::function<void()>& body) const;

  private:
    std::string_view function_;
    std::string_view checker_;
    support::BudgetLimits limits_;
    bool rethrow_ = false;
};

/**
 * The degraded-unit markers, built in one place so every execution
 * substrate (threads, shard workers, the shard coordinator, metal mode)
 * emits byte-identical text. Both are warnings from checker "engine" at
 * the function's location; `checker` is the unit's checker label.
 */

/** "unit-failure": stands in for a failed unit's discarded findings. */
void warnUnitFailed(support::DiagnosticSink& sink,
                    const support::SourceLoc& loc,
                    const std::string& checker,
                    const std::string& function, const std::string& error);

/** "budget-exhausted": marks a truncated unit's partial findings. */
void warnUnitTruncated(support::DiagnosticSink& sink,
                       const support::SourceLoc& loc,
                       const std::string& checker,
                       const std::string& function, support::BudgetStop stop);

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_UNIT_GUARD_H
