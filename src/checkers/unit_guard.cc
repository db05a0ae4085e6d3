#include "checkers/unit_guard.h"

namespace mc::checkers {

UnitOutcome
UnitGuard::run(const std::function<void()>& body) const
{
    UnitOutcome outcome;
    support::Budget budget(limits_);
    support::BudgetScope scope(&budget);
    try {
        body();
    } catch (const std::exception& e) {
        outcome.failed = true;
        outcome.error = e.what();
        if (rethrow_)
            throw;
    } catch (...) {
        outcome.failed = true;
        outcome.error = "non-standard exception in unit " + label_;
        if (rethrow_)
            throw;
    }
    outcome.budget_stop = budget.stop();
    outcome.steps = budget.steps();
    outcome.elapsed = budget.elapsed();
    return outcome;
}

void
warnUnitFailed(support::DiagnosticSink& sink, const support::SourceLoc& loc,
               const std::string& checker, const std::string& function,
               const std::string& error)
{
    sink.warning(loc, "engine", "unit-failure",
                 "analysis incomplete: " + checker + " failed on '" +
                     function + "': " + error);
}

void
warnUnitTruncated(support::DiagnosticSink& sink,
                  const support::SourceLoc& loc, const std::string& checker,
                  const std::string& function, support::BudgetStop stop)
{
    sink.warning(loc, "engine", "budget-exhausted",
                 "analysis truncated: " + checker + " on '" + function +
                     "' exhausted its " + support::budgetStopName(stop) +
                     " budget");
}

} // namespace mc::checkers
