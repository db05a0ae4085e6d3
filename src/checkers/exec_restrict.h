#ifndef MCHECK_CHECKERS_EXEC_RESTRICT_H
#define MCHECK_CHECKERS_EXEC_RESTRICT_H

#include "checkers/checker.h"

#include <istream>
#include <ostream>

namespace mc::checkers {

/**
 * Handler execution-restriction checker (paper Section 8).
 *
 * Enforces the FLASH environment's restrictions on handler code:
 *  - handlers take no parameters and return no results;
 *  - deprecated macros are flagged;
 *  - no-stack handlers must not take the address of locals, must not
 *    declare "too many" locals, and must not declare arrays or structures
 *    larger than 64 bits (anything bigger cannot live in registers);
 *  - exactly one NO_STACK() annotation at the beginning of a no-stack
 *    handler; every call from one must be immediately preceded by
 *    SET_STACKPTR(), and every SET_STACKPTR() must be followed by a call;
 *  - simulation hooks: a hardware handler's first two statements must be
 *    HANDLER_DEFS(); HANDLER_PROLOGUE(); (software handlers use the
 *    SWHANDLER_* forms), and every normal routine must begin with
 *    PROC_HOOK(). Omitted hooks silently corrupt simulation results,
 *    which is why Table 5's violations are all hook omissions.
 *
 * Table 5 reports violations plus the number of handlers and variables
 * checked; the latter two are exposed via handlersChecked()/varsChecked().
 */
class ExecRestrictChecker : public Checker
{
  public:
    /** Locals allowed in a no-stack handler before it trips the rule. */
    static constexpr int kMaxNoStackLocals = 16;

    std::string name() const override { return "exec_restrict"; }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

    void
    reset() override
    {
        Checker::reset();
        handlers_checked_ = 0;
        vars_checked_ = 0;
    }

    void
    absorb(const Checker& other) override
    {
        Checker::absorb(other);
        const auto& o = static_cast<const ExecRestrictChecker&>(other);
        handlers_checked_ += o.handlers_checked_;
        vars_checked_ += o.vars_checked_;
    }

    bool
    hasRunState() const override
    {
        return handlers_checked_ != 0 || vars_checked_ != 0;
    }

    void
    saveState(std::ostream& os) const override
    {
        Checker::saveState(os);
        os << "restrict " << handlers_checked_ << ' ' << vars_checked_
           << '\n';
    }

    bool
    loadState(std::istream& is) override
    {
        if (!Checker::loadState(is))
            return false;
        std::string tag;
        int handlers = 0;
        int vars = 0;
        if (!(is >> tag >> handlers >> vars) || tag != "restrict" ||
            handlers < 0 || vars < 0)
            return false;
        handlers_checked_ = handlers;
        vars_checked_ = vars;
        return true;
    }

    int handlersChecked() const { return handlers_checked_; }
    int varsChecked() const { return vars_checked_; }

  private:
    void checkSignature(const lang::FunctionDecl& fn, CheckContext& ctx);
    void checkHooks(const lang::FunctionDecl& fn, CheckContext& ctx);
    void checkNoStack(const lang::FunctionDecl& fn, CheckContext& ctx);
    void checkDeprecated(const cfg::Cfg& cfg, CheckContext& ctx);

    int handlers_checked_ = 0;
    int vars_checked_ = 0;
};

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_EXEC_RESTRICT_H
