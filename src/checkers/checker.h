#ifndef MCHECK_CHECKERS_CHECKER_H
#define MCHECK_CHECKERS_CHECKER_H

#include "cfg/cfg.h"
#include "flash/protocol_spec.h"
#include "lang/program.h"
#include "support/diagnostics.h"

#include <chrono>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace mc::checkers {

/** Everything a checker may consult during a run. */
struct CheckContext
{
    const lang::Program& program;
    const flash::ProtocolSpec& spec;
    support::DiagnosticSink& sink;
};

/**
 * Base class for the paper's checkers.
 *
 * The runner calls checkFunction once per function definition (with the
 * CFG prebuilt and shared between checkers) and checkProgram once at the
 * end — the inter-procedural checkers do their global pass there.
 *
 * `applied()` is the checker's own count of how many times its core check
 * fired (the "Applied" columns of Tables 2, 3, and 6).
 */
class Checker
{
  public:
    virtual ~Checker() = default;

    /** Stable name; matches the Table 7 row. */
    virtual std::string name() const = 0;

    virtual void
    checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                  CheckContext& ctx)
    {
        (void)fn;
        (void)cfg;
        (void)ctx;
    }

    virtual void
    checkProgram(CheckContext& ctx)
    {
        (void)ctx;
    }

    /** Times the core check was applied (site count, not per path). */
    int applied() const { return applied_; }

    /** Reset per-run statistics (the runner calls this before a run). */
    virtual void reset() { applied_ = 0; }

    /**
     * Merge the per-run state another instance of the *same* checker
     * accumulated during its function passes into this one. The parallel
     * runner gives every (function, checker) work unit a private
     * instance, then absorbs them back — in program function order — into
     * one instance before the program-level pass, so inter-procedural
     * state (e.g. the lanes checker's summaries) ends up exactly as a
     * sequential run would have left it. `other` is only read: a daemon
     * keeps finished units resident and absorbs the same instance again
     * on every re-check that leaves its function unchanged.
     */
    virtual void absorb(const Checker& other) { applied_ += other.applied_; }

    /**
     * Whether absorbing this instance merges more than its applied
     * count: state an absorb override adds (lanes summaries, tallies).
     * A daemon asks once when it keeps a finished unit, so re-checks
     * merge a unit without it by its applied count alone, without
     * reading the instance.
     */
    virtual bool hasRunState() const { return false; }

    /** absorb() of an instance without run state that applied `n`. */
    void absorbApplied(int n) { applied_ += n; }

    /**
     * The instances this one absorbed may now go away: keep nothing that
     * points into them. The unit pipeline calls this on every master
     * when its run ends, however it ends.
     */
    virtual void releaseAbsorbed() {}

    /**
     * Serialize the per-run state the function passes accumulated — the
     * exact state `absorb` would merge. The analysis cache stores this
     * blob per (function, checker) work unit and replays it through
     * `loadState` + `absorb` on a hit, so a warm run leaves every master
     * checker bit-identical to a cold one. Overrides must call the base
     * first and append their own fields in a self-delimiting form.
     */
    virtual void saveState(std::ostream& os) const;

    /**
     * Inverse of saveState. Returns false (leaving the checker unusable
     * for replay) on malformed input; the cache then treats the entry as
     * corrupt and falls back to cold analysis.
     */
    virtual bool loadState(std::istream& is);

  protected:
    int applied_ = 0;
};

/** Per-checker summary of one run. */
struct CheckerRunStats
{
    std::string checker;
    int errors = 0;
    int warnings = 0;
    int applied = 0;
    /** Wall time this checker spent (function passes + program pass). */
    double wall_ms = 0.0;
};

/**
 * Register, at zero, every metric a checking run reports — unit
 * containment (engine.unit_failures, budget.truncations), the engine and
 * walker tallies, witness and ledger counters, resident-store reuse
 * (resident.reused, resident.lookup), and the unit.*
 * histograms — so a report's key set does not depend on which runner or
 * substrate ran, and so the registry's map nodes exist before any unit
 * fans out onto worker threads.
 */
void registerRunMetrics();

/** The per-checker finding counts a run's stats are measured from. */
struct RunBaseline
{
    std::vector<int> errors;
    std::vector<int> warnings;
};

/**
 * Start a run of `checkers` into `sink`: reset every checker, record
 * the findings `sink` already holds for each, and register the run's
 * metrics.
 */
RunBaseline beginRun(const std::vector<Checker*>& checkers,
                     const support::DiagnosticSink& sink);

/**
 * Per-checker stats of a finished run: findings added since `base`,
 * applied counts, and `elapsed` wall time, each also published as
 * checker.<name>.* metrics.
 */
std::vector<CheckerRunStats>
finishRun(const std::vector<Checker*>& checkers,
          const support::DiagnosticSink& sink, const RunBaseline& base,
          const std::vector<std::chrono::steady_clock::duration>& elapsed);

/**
 * Run `checkers` over every function of `program`: build each function's
 * CFG once, invoke every checker on it, then run the program-level passes.
 * Returns per-checker statistics; diagnostics accumulate in `sink`.
 * The sequential reference the unit pipeline is compared against.
 */
std::vector<CheckerRunStats>
runCheckers(const lang::Program& program, const flash::ProtocolSpec& spec,
            const std::vector<Checker*>& checkers,
            support::DiagnosticSink& sink);

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_CHECKER_H
