#include "checkers/registry.h"

#include "cache/analysis_cache.h"
#include "checkers/buffer_alloc.h"
#include "checkers/buffer_mgmt.h"
#include "checkers/exec_restrict.h"
#include "checkers/lanes.h"
#include "checkers/metal_sources.h"
#include "checkers/no_float.h"
#include "flash/macros.h"
#include "support/text.h"
#include "support/version.h"

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

/** send_wait's applications: F_WAIT sends and interface waits. */
bool
isWaitSendOrWait(const cfg::CallRow& c)
{
    const flash::MacroKind kind = flash::macroKind(c.callee);
    return (flash::isSend(kind) &&
            flash::sendWaitArg(*c.call) == flash::kFWait) ||
           kind == flash::MacroKind::WaitPiReply ||
           kind == flash::MacroKind::WaitIoReply;
}

/** dir_check's applications: the four directory-entry macros. */
bool
isDirectoryAccess(const cfg::CallRow& c)
{
    switch (flash::macroKind(c.callee)) {
      case flash::MacroKind::DirLoad:
      case flash::MacroKind::DirRead:
      case flash::MacroKind::DirWrite:
      case flash::MacroKind::DirWriteback:
        return true;
      default:
        return false;
    }
}

/** dir_check's `nak_send`: an NI_SEND of a MSG_NAK* opcode. */
bool
isNakSend(const cfg::CallRow& c, const flash::ProtocolSpec&)
{
    return flash::macroKind(c.callee) == flash::MacroKind::SendNi &&
           support::startsWith(flash::niSendOpcode(*c.call),
                               flash::kNakPrefix);
}

/** dir_check's `deferred_modify`: a call to a routine the spec lists
 *  as modifying the directory entry on its caller's behalf. */
bool
isDeferredModify(const cfg::CallRow& c, const flash::ProtocolSpec& spec)
{
    return spec.dir_deferred_routines.count(c.call->calleeName()) != 0;
}

/** dir_check's exemption: the function carries the
 *  expects_dir_writeback() annotation, so it leaves the modified entry
 *  to its caller. */
bool
expectsDirWriteback(const cfg::FlatCfg& flat)
{
    for (const cfg::CallRow& c : flat.calls())
        if (flash::macroKind(c.callee) ==
            flash::MacroKind::AnnotExpectsDirWriteback)
            return true;
    return false;
}

const std::pair<std::string_view, CallPredicate> kDirCallTests[] = {
    {"nak_send", isNakSend},
    {"deferred_modify", isDeferredModify},
};

} // namespace

void
MetalChecker::checkFunction(const lang::FunctionDecl& fn,
                            const cfg::Cfg& cfg, CheckContext& ctx)
{
    (void)fn;
    std::vector<metal::CallTest> tests;
    metal::runStateMachine(*def_.metal()->sm, cfg, ctx.sink,
                           def_.runOptions(cfg, ctx.spec, tests));
    if (AppliedRule applies = def_.appliedRule())
        for (const cfg::CallRow& c : cfg::flatCfg(cfg).calls())
            if (applies(c))
                ++applied_;
}

CheckerDef::CheckerDef(
    std::string name, CheckerSetOptions options, std::string metal_source,
    metal::MetalProgram metal, AppliedRule applied_rule,
    std::span<const std::pair<std::string_view, CallPredicate>> call_tests,
    EndOfPathExemption exemption)
    : name_(std::move(name)), options_(options),
      metal_source_(std::move(metal_source)), metal_(std::move(metal)),
      applied_rule_(applied_rule), exemption_(exemption)
{
    for (const std::string& test : metal_.call_tests) {
        auto it = std::find_if(
            call_tests.begin(), call_tests.end(),
            [&](const auto& named) { return named.first == test; });
        if (it == call_tests.end())
            throw metal::MetalParseError(name_ + ": no C++ call test '" +
                                         test + "'");
        call_tests_.push_back(it->second);
    }
    // Compile now, while the definition has a single owner, so no unit
    // ever pays for (or races on) the first compilation.
    if (metal_.sm)
        metal_.sm->compiled();
    key_prefix_.i64(cache::kCacheFormatVersion);
    key_prefix_.str(support::kToolVersion);
    key_prefix_.str(name_);
    key_prefix_.str(metal_source_);
    key_prefix_.u8(options_.value_sensitive_frees ? 1 : 0);
    // PruneStrategy::Off encodes 0 — the byte the old boolean flag
    // wrote — so existing cache entries stay valid for unpruned runs.
    key_prefix_.u8(static_cast<std::uint8_t>(options_.prune_strategy));
}

metal::SmRunOptions
CheckerDef::runOptions(const cfg::Cfg& cfg, const flash::ProtocolSpec& spec,
                       std::vector<metal::CallTest>& tests) const
{
    metal::SmRunOptions options;
    options.prune_strategy = options_.prune_strategy;
    tests.clear();
    for (CallPredicate test : call_tests_)
        tests.emplace_back(
            [test, &spec](const cfg::CallRow& c) { return test(c, spec); });
    options.call_tests = tests;
    options.end_of_path = !(exemption_ && exemption_(cfg::flatCfg(cfg)));
    return options;
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
        std::span<const std::pair<std::string_view, CallPredicate>> tests;
        EndOfPathExemption exemption = nullptr;
        if (name == "msglen_check") {
            metal_source = kMsgLenCheckMetal;
            applied_rule = isSendOrLengthAssignment;
        } else if (name == "wait_for_db") {
            metal_source = kWaitForDbMetal;
            applied_rule = isDataBufferRead;
        } else if (name == "send_wait") {
            metal_source = kSendWaitMetal;
            applied_rule = isWaitSendOrWait;
        } else if (name == "dir_check") {
            metal_source = kDirCheckMetal;
            applied_rule = isDirectoryAccess;
            tests = kDirCallTests;
            exemption = expectsDirWriteback;
        }
        metal::MetalProgram program;
        if (metal_source)
            program = metal::parseMetal(metal_source, name + ".metal");
        def.reset(new CheckerDef(name, options,
                                 metal_source ? metal_source : "",
                                 std::move(program), applied_rule, tests,
                                 exemption));
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
