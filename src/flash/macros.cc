#include "flash/macros.h"

#include <utility>
#include <vector>

namespace mc::flash {

using lang::CallExpr;
using lang::Expr;
using lang::ExprKind;
using lang::IdentExpr;

namespace {

/** The one macro vocabulary table; every lookup goes through it. */
constexpr std::pair<std::string_view, MacroKind> kVocabulary[] = {
    {"PI_SEND", MacroKind::SendPi},
    {"IO_SEND", MacroKind::SendIo},
    {"NI_SEND", MacroKind::SendNi},
    {"WAIT_FOR_DB_FULL", MacroKind::WaitDbFull},
    {"MISCBUS_READ_DB", MacroKind::ReadDb},
    {"MISCBUS_READ_DB_OLD", MacroKind::ReadDbDeprecated},
    {"MISCBUS_WRITE_DB", MacroKind::WriteDb},
    {"ALLOCATE_DB", MacroKind::AllocDb},
    {"FREE_DB", MacroKind::FreeDb},
    {"MAYBE_FREE_DB_A", MacroKind::MaybeFreeDb},
    {"MAYBE_FREE_DB_B", MacroKind::MaybeFreeDb},
    {"MAYBE_FREE_DB_C", MacroKind::MaybeFreeDb},
    {"MAYBE_FREE_DB_D", MacroKind::MaybeFreeDb},
    {"DB_REFCNT_INCR", MacroKind::RefcntIncr},
    {"DIR_LOAD", MacroKind::DirLoad},
    {"DIR_READ", MacroKind::DirRead},
    {"DIR_WRITE", MacroKind::DirWrite},
    {"DIR_WRITEBACK", MacroKind::DirWriteback},
    {"WAIT_FOR_PI_REPLY", MacroKind::WaitPiReply},
    {"WAIT_FOR_IO_REPLY", MacroKind::WaitIoReply},
    {"WAIT_FOR_SPACE", MacroKind::WaitForSpace},
    {"HANDLER_DEFS", MacroKind::HandlerDefs},
    {"HANDLER_PROLOGUE", MacroKind::HandlerPrologue},
    {"SWHANDLER_DEFS", MacroKind::SwHandlerDefs},
    {"SWHANDLER_PROLOGUE", MacroKind::SwHandlerPrologue},
    {"PROC_HOOK", MacroKind::ProcHook},
    {"NO_STACK", MacroKind::NoStack},
    {"SET_STACKPTR", MacroKind::SetStackPtr},
    {"has_buffer", MacroKind::AnnotHasBuffer},
    {"no_free_needed", MacroKind::AnnotNoFreeNeeded},
    {"expects_dir_writeback", MacroKind::AnnotExpectsDirWriteback},
    {"HANDLER_GLOBALS", MacroKind::HandlerGlobals},
};

/** MacroKind by SymbolId, dense up to the largest vocabulary symbol. */
const std::vector<MacroKind>&
kindBySymbol()
{
    static const std::vector<MacroKind> table = [] {
        std::vector<MacroKind> t;
        for (const auto& [name, kind] : kVocabulary) {
            support::SymbolId id =
                support::SymbolInterner::global().intern(name);
            if (id >= t.size())
                t.resize(id + 1, MacroKind::None);
            t[id] = kind;
        }
        return t;
    }();
    return table;
}

// Intern the vocabulary before main so its symbols take the first ids.
[[maybe_unused]] const std::vector<MacroKind>& kWarmVocabulary =
    kindBySymbol();

} // namespace

MacroKind
macroKind(support::SymbolId callee)
{
    const std::vector<MacroKind>& table = kindBySymbol();
    return callee < table.size() ? table[callee] : MacroKind::None;
}

MacroKind
classifyMacro(std::string_view callee)
{
    kindBySymbol(); // the vocabulary is interned before it is looked up
    std::optional<support::SymbolId> id =
        support::SymbolInterner::global().lookup(callee);
    return id ? macroKind(*id) : MacroKind::None;
}

MacroKind
classifyCall(const Expr& expr)
{
    const CallExpr* call = lang::asCall(expr);
    if (!call || !call->callee || call->callee->ekind != ExprKind::Ident)
        return MacroKind::None;
    return macroKind(
        lang::identSymbol(static_cast<const IdentExpr&>(*call->callee)));
}

bool
isSend(MacroKind kind)
{
    return kind == MacroKind::SendPi || kind == MacroKind::SendIo ||
           kind == MacroKind::SendNi;
}

bool
isAnnotation(MacroKind kind)
{
    return kind == MacroKind::AnnotHasBuffer ||
           kind == MacroKind::AnnotNoFreeNeeded ||
           kind == MacroKind::AnnotExpectsDirWriteback;
}

namespace {

/** Identifier spelling of argument `index`, or "" if it is not a plain
 *  identifier. */
std::string_view
identArg(const CallExpr& call, std::size_t index)
{
    if (index >= call.args.size())
        return {};
    const Expr* arg = call.args[index];
    if (arg->ekind != ExprKind::Ident)
        return {};
    return static_cast<const IdentExpr*>(arg)->name;
}

} // namespace

std::string_view
sendHasDataArg(const CallExpr& call)
{
    std::size_t index;
    switch (classifyCall(call)) {
      case MacroKind::SendPi:
      case MacroKind::SendIo:
        index = 0;
        break;
      case MacroKind::SendNi:
        index = 1;
        break;
      default:
        return {};
    }
    std::string_view name = identArg(call, index);
    return name == kFData || name == kFNoData ? name : std::string_view();
}

std::string_view
sendWaitArg(const CallExpr& call)
{
    if (!isSend(classifyCall(call)))
        return {};
    std::string_view name = identArg(call, 3);
    return name == kFWait || name == kFNoWait ? name : std::string_view();
}

std::string_view
niSendOpcode(const CallExpr& call)
{
    if (classifyCall(call) != MacroKind::SendNi)
        return {};
    return identArg(call, 0);
}

std::string_view
waitForSpaceOpcode(const CallExpr& call)
{
    if (classifyCall(call) != MacroKind::WaitForSpace)
        return {};
    return identArg(call, 0);
}

Interface
interfaceOf(MacroKind kind)
{
    switch (kind) {
      case MacroKind::SendPi:
      case MacroKind::WaitPiReply:
        return Interface::Pi;
      case MacroKind::SendIo:
      case MacroKind::WaitIoReply:
        return Interface::Io;
      case MacroKind::SendNi:
        return Interface::Ni;
      default:
        return Interface::None;
    }
}

} // namespace mc::flash
