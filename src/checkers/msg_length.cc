#include "checkers/msg_length.h"

#include "cfg/flat_cfg.h"
#include "checkers/metal_sources.h"
#include "checkers/registry.h"
#include "flash/macros.h"
#include "metal/engine.h"

namespace mc::checkers {

namespace {

const CheckerDef&
sharedDef(metal::PruneStrategy prune_strategy)
{
    CheckerSetOptions options;
    options.prune_strategy = prune_strategy;
    return *checkerDef("msglen_check", options);
}

} // namespace

MsgLengthChecker::MsgLengthChecker(metal::PruneStrategy prune_strategy)
    : MsgLengthChecker(sharedDef(prune_strategy))
{}

MsgLengthChecker::MsgLengthChecker(const CheckerDef& def)
    : sm_(*def.metal()->sm), prune_strategy_(def.options().prune_strategy)
{}

const char*
MsgLengthChecker::metalSource()
{
    return kMsgLenCheckMetal;
}

void
MsgLengthChecker::checkFunction(const lang::FunctionDecl& fn,
                                const cfg::Cfg& cfg, CheckContext& ctx)
{
    (void)fn;
    mc::metal::SmRunOptions options;
    options.prune_strategy = prune_strategy_;
    mc::metal::runStateMachine(sm_, cfg, ctx.sink, options);

    // "Applied" = sends plus length assignments the checker examined.
    for (const cfg::CallRow& c : cfg::flatCfg(cfg).calls()) {
        const flash::MacroKind kind = flash::macroKind(c.callee);
        // Length assignments: HANDLER_GLOBALS(...) = LEN_*.
        if (flash::isSend(kind) ||
            (c.assign_lhs && kind == flash::MacroKind::HandlerGlobals))
            ++applied_;
    }
}

} // namespace mc::checkers
