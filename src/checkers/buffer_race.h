#ifndef MCHECK_CHECKERS_BUFFER_RACE_H
#define MCHECK_CHECKERS_BUFFER_RACE_H

#include "checkers/checker.h"
#include "metal/feasibility.h"
#include "metal/state_machine.h"

namespace mc::checkers {

class CheckerDef;

/**
 * Buffer fill race-condition checker (paper Section 4, Figure 2).
 *
 * Runs the shipped `wait_for_db` metal state machine down every path of
 * every function: a MISCBUS_READ_DB (or the deprecated old-style read)
 * that is not preceded by WAIT_FOR_DB_FULL on some path is an error.
 *
 * `applied()` counts data-buffer read sites, matching Table 2's "Applied"
 * column ("the number of reads performed").
 */
class BufferRaceChecker : public Checker
{
  public:
    explicit BufferRaceChecker(
        metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off);

    /**
     * Run `def`'s shared, already-compiled state machine. The
     * constructor above binds to checkerDef() under its prune strategy.
     */
    explicit BufferRaceChecker(const CheckerDef& def);

    std::string name() const override { return "wait_for_db"; }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

    /** The metal source this checker executes. */
    static const char* metalSource();

    /** The state machine this checker runs, shared by every instance
     *  of its definition. */
    const metal::StateMachine& stateMachine() const { return sm_; }

  private:
    const metal::StateMachine& sm_;
    metal::PruneStrategy prune_strategy_ = metal::PruneStrategy::Off;
};

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_BUFFER_RACE_H
