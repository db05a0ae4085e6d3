#include "checkers/registry.h"

#include "checkers/buffer_alloc.h"
#include "checkers/buffer_mgmt.h"
#include "checkers/directory.h"
#include "checkers/exec_restrict.h"
#include "checkers/lanes.h"
#include "checkers/metal_sources.h"
#include "checkers/no_float.h"
#include "checkers/send_wait.h"
#include "flash/macros.h"
#include "metal/engine.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

namespace mc::checkers {

Checker*
CheckerSet::byName(const std::string& name) const
{
    for (const auto& c : owned)
        if (c->name() == name)
            return c.get();
    return nullptr;
}

namespace {

/** msglen_check's applications: sends, and length assignments
 *  `HANDLER_GLOBALS(...) = LEN_*` (Table 3). */
bool
isSendOrLengthAssignment(const cfg::CallRow& c)
{
    const flash::MacroKind kind = flash::macroKind(c.callee);
    return flash::isSend(kind) ||
           (c.assign_lhs && kind == flash::MacroKind::HandlerGlobals);
}

/** wait_for_db's applications: data-buffer reads (Table 2). */
bool
isDataBufferRead(const cfg::CallRow& c)
{
    const flash::MacroKind kind = flash::macroKind(c.callee);
    return kind == flash::MacroKind::ReadDb ||
           kind == flash::MacroKind::ReadDbDeprecated;
}

} // namespace

void
MetalChecker::checkFunction(const lang::FunctionDecl& fn,
                            const cfg::Cfg& cfg, CheckContext& ctx)
{
    (void)fn;
    metal::SmRunOptions options;
    options.prune_strategy = def_.options().prune_strategy;
    metal::runStateMachine(*def_.metal()->sm, cfg, ctx.sink, options);
    if (AppliedRule applies = def_.appliedRule())
        for (const cfg::CallRow& c : cfg::flatCfg(cfg).calls())
            if (applies(c))
                ++applied_;
}

CheckerDef::CheckerDef(std::string name, CheckerSetOptions options,
                       std::string metal_source, metal::MetalProgram metal,
                       AppliedRule applied_rule)
    : name_(std::move(name)), options_(options),
      metal_source_(std::move(metal_source)), metal_(std::move(metal)),
      applied_rule_(applied_rule)
{
    // Compile now, while the definition has a single owner, so no unit
    // ever pays for (or races on) the first compilation.
    if (metal_.sm)
        metal_.sm->compiled();
}

std::unique_ptr<const CheckerDef>
CheckerDef::fromMetal(std::string source, const std::string& origin,
                      CheckerSetOptions options)
{
    metal::MetalProgram program = metal::parseMetal(source, origin);
    std::string name = "metal:" + program.name;
    return std::unique_ptr<const CheckerDef>(new CheckerDef(
        std::move(name), options, std::move(source), std::move(program),
        nullptr));
}

std::unique_ptr<Checker>
CheckerDef::instantiate() const
{
    if (metal_.sm)
        return std::make_unique<MetalChecker>(*this);
    const metal::PruneStrategy prune = options_.prune_strategy;
    if (name_ == "buffer_mgmt") {
        BufferMgmtChecker::Options bm;
        bm.value_sensitive_frees = options_.value_sensitive_frees;
        bm.prune_strategy = prune;
        return std::make_unique<BufferMgmtChecker>(bm);
    }
    if (name_ == "lanes")
        return std::make_unique<LanesChecker>();
    if (name_ == "alloc_check")
        return std::make_unique<BufferAllocChecker>(prune);
    if (name_ == "dir_check")
        return std::make_unique<DirectoryChecker>(prune);
    if (name_ == "send_wait")
        return std::make_unique<SendWaitChecker>(prune);
    if (name_ == "exec_restrict")
        return std::make_unique<ExecRestrictChecker>();
    return std::make_unique<NoFloatChecker>();
}

const CheckerDef*
checkerDef(const std::string& name, const CheckerSetOptions& options)
{
    const std::vector<std::string>& names = allCheckerNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        return nullptr;
    using Key = std::tuple<std::string, bool, metal::PruneStrategy>;
    static std::mutex mu;
    static std::map<Key, std::unique_ptr<const CheckerDef>> defs;
    Key key{name, options.value_sensitive_frees, options.prune_strategy};
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<const CheckerDef>& def = defs[key];
    if (!def) {
        const char* metal_source = nullptr;
        AppliedRule applied_rule = nullptr;
        if (name == "msglen_check") {
            metal_source = kMsgLenCheckMetal;
            applied_rule = isSendOrLengthAssignment;
        } else if (name == "wait_for_db") {
            metal_source = kWaitForDbMetal;
            applied_rule = isDataBufferRead;
        }
        metal::MetalProgram program;
        if (metal_source)
            program = metal::parseMetal(metal_source, name + ".metal");
        def.reset(new CheckerDef(name, options,
                                 metal_source ? metal_source : "",
                                 std::move(program), applied_rule));
    }
    return def.get();
}

std::unique_ptr<Checker>
makeChecker(const std::string& name, const CheckerSetOptions& options)
{
    const CheckerDef* def = checkerDef(name, options);
    return def ? def->instantiate() : nullptr;
}

const std::vector<std::string>&
allCheckerNames()
{
    static const std::vector<std::string> names = {
        "buffer_mgmt", "msglen_check", "lanes",
        "wait_for_db", "alloc_check",  "dir_check",
        "send_wait",   "exec_restrict", "no_float",
    };
    return names;
}

CheckerSet
makeAllCheckers(const CheckerSetOptions& options)
{
    CheckerSet set;
    for (const std::string& name : allCheckerNames())
        set.owned.push_back(makeChecker(name, options));
    return set;
}

const std::vector<CheckerMeta>&
table7Meta()
{
    static const std::vector<CheckerMeta> meta = {
        {"buffer_mgmt", "Buffer management", 94, 9, 25},
        {"msglen_check", "Message length", 29, 18, 2},
        {"lanes", "Lanes", 220, 2, 0},
        {"wait_for_db", "Buffer race", 12, 4, 1},
        {"alloc_check", "Buffer allocation", 16, 0, 2},
        {"dir_check", "Directory management", 51, 1, 31},
        {"send_wait", "Send-wait", 40, 0, 8},
        {"exec_restrict", "Execution-restriction", 84, 0, 0},
        {"no_float", "No-float", 7, 0, 0},
    };
    return meta;
}

} // namespace mc::checkers
