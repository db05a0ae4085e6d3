/**
 * @file
 * Writing your own checker, two ways.
 *
 * The paper's thesis is that implementors can encode system rules as
 * small compiler extensions. This example writes a brand-new rule —
 * "interrupts must be re-enabled before a handler returns" — first as a
 * textual metal state machine, then as an embedded C++ checker using the
 * PathWalker, which is the route for rules that need richer state.
 */
#include "cfg/cfg.h"
#include "checkers/checker.h"
#include "lang/program.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "metal/path_walker.h"

#include <iostream>

namespace {

using namespace mc;

/** The same rule, embedded: tracks nesting depth, which metal's flat
 *  states cannot express. */
class IrqDepthChecker : public checkers::Checker
{
  public:
    std::string name() const override { return "irq_depth"; }

    void
    checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                  checkers::CheckContext& ctx) override
    {
        struct State
        {
            int depth = 0;
            std::string key() const { return std::to_string(depth); }
            bool dead() const { return false; }
        };

        metal::PathWalker<State>::Hooks hooks;
        hooks.on_stmt = [&](State& st, const lang::Stmt& stmt) {
            const lang::CallExpr* call = lang::stmtAsCall(stmt);
            if (!call)
                return;
            std::string_view callee = call->calleeName();
            if (callee == "DISABLE_IRQ") {
                ++st.depth;
            } else if (callee == "ENABLE_IRQ") {
                if (st.depth == 0)
                    ctx.sink.error(stmt.loc, name(), "unbalanced-enable",
                                   "ENABLE_IRQ with no matching "
                                   "DISABLE_IRQ");
                else
                    --st.depth;
            }
        };
        hooks.on_exit = [&](State& st) {
            if (st.depth > 0)
                ctx.sink.error(fn.loc, name(), "irq-left-disabled",
                               "'" + std::string(fn.name) +
                                   "' can return with interrupts "
                                   "disabled");
        };
        metal::PathWalker<State> walker(std::move(hooks));
        walker.walk(cfg, State{});
    }
};

} // namespace

int
main()
{
    using namespace mc;

    lang::Program program;
    program.addSource("irq.c", R"(
void TimerHandler(void) {
    DISABLE_IRQ();
    if (fast_path) {
        quick_work();
        ENABLE_IRQ();
        return;
    }
    slow_work();
    return;
}
void NestedHandler(void) {
    DISABLE_IRQ();
    DISABLE_IRQ();
    ENABLE_IRQ();
    ENABLE_IRQ();
}
)");

    // Route 1: a metal one-state machine — fine for the simple
    // "disabled at return" half of the rule.
    metal::MetalProgram textual = metal::parseMetal(R"(
sm irq_pairing {
    start:
        { DISABLE_IRQ(); } ==> disabled ;
    disabled:
        { ENABLE_IRQ(); } ==> start
      | { return; } ==> { err("returns with interrupts disabled"); }
      ;
}
)");
    support::DiagnosticSink metal_sink;
    for (const lang::FunctionDecl* fn : program.functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        metal::runStateMachine(*textual.sm, cfg, metal_sink);
    }
    std::cout << "--- textual metal checker ---\n";
    metal_sink.print(std::cout, &program.sourceManager());

    // Route 2: the embedded checker, which also handles nesting (and
    // does NOT flag NestedHandler).
    flash::ProtocolSpec spec;
    support::DiagnosticSink sink;
    IrqDepthChecker checker;
    checkers::runCheckers(program, spec, {&checker}, sink);
    std::cout << "\n--- embedded C++ checker ---\n";
    sink.print(std::cout, &program.sourceManager());

    std::cout << "\nthe embedded checker reports "
              << sink.count(support::Severity::Error)
              << " error(s): the slow path of TimerHandler leaves "
                 "interrupts off; the nested pair is fine.\n";
    return 0;
}
