#include "checkers/buffer_race.h"

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
    return *checkerDef("wait_for_db", options);
}

} // namespace

BufferRaceChecker::BufferRaceChecker(metal::PruneStrategy prune_strategy)
    : BufferRaceChecker(sharedDef(prune_strategy))
{}

BufferRaceChecker::BufferRaceChecker(const CheckerDef& def)
    : sm_(*def.metal()->sm), prune_strategy_(def.options().prune_strategy)
{}

const char*
BufferRaceChecker::metalSource()
{
    return kWaitForDbMetal;
}

void
BufferRaceChecker::checkFunction(const lang::FunctionDecl& fn,
                                 const cfg::Cfg& cfg, CheckContext& ctx)
{
    (void)fn;
    mc::metal::SmRunOptions options;
    options.prune_strategy = prune_strategy_;
    mc::metal::runStateMachine(sm_, cfg, ctx.sink, options);

    // "Applied" = data-buffer reads encountered (Table 2).
    for (const cfg::CallRow& c : cfg::flatCfg(cfg).calls()) {
        const flash::MacroKind kind = flash::macroKind(c.callee);
        if (kind == flash::MacroKind::ReadDb ||
            kind == flash::MacroKind::ReadDbDeprecated)
            ++applied_;
    }
}

} // namespace mc::checkers
