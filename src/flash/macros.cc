#include "flash/macros.h"

#include <unordered_map>

namespace mc::flash {

using lang::CallExpr;
using lang::Expr;
using lang::ExprKind;
using lang::IdentExpr;

MacroKind
classifyMacro(std::string_view callee)
{
    static const std::unordered_map<std::string_view, MacroKind> table = {
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
    auto it = table.find(callee);
    return it == table.end() ? MacroKind::None : it->second;
}

MacroKind
classifyCall(const Expr& expr)
{
    const CallExpr* call = lang::asCall(expr);
    if (!call)
        return MacroKind::None;
    return classifyMacro(call->calleeName());
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

/** Identifier spelling of argument `index`, if it is a plain identifier. */
std::optional<std::string>
identArg(const CallExpr& call, std::size_t index)
{
    if (index >= call.args.size())
        return std::nullopt;
    const Expr* arg = call.args[index];
    if (arg->ekind != ExprKind::Ident)
        return std::nullopt;
    return std::string(static_cast<const IdentExpr*>(arg)->name);
}

} // namespace

std::optional<std::string>
sendHasDataArg(const CallExpr& call)
{
    MacroKind kind = classifyMacro(call.calleeName());
    std::size_t index;
    switch (kind) {
      case MacroKind::SendPi:
      case MacroKind::SendIo:
        index = 0;
        break;
      case MacroKind::SendNi:
        index = 1;
        break;
      default:
        return std::nullopt;
    }
    auto name = identArg(call, index);
    if (name && (*name == kFData || *name == kFNoData))
        return name;
    return std::nullopt;
}

std::optional<std::string>
sendWaitArg(const CallExpr& call)
{
    MacroKind kind = classifyMacro(call.calleeName());
    std::size_t index;
    switch (kind) {
      case MacroKind::SendPi:
      case MacroKind::SendIo:
      case MacroKind::SendNi:
        index = 3;
        break;
      default:
        return std::nullopt;
    }
    auto name = identArg(call, index);
    if (name && (*name == kFWait || *name == kFNoWait))
        return name;
    return std::nullopt;
}

std::optional<std::string>
niSendOpcode(const CallExpr& call)
{
    if (classifyMacro(call.calleeName()) != MacroKind::SendNi)
        return std::nullopt;
    return identArg(call, 0);
}

std::optional<std::string>
waitForSpaceOpcode(const CallExpr& call)
{
    if (classifyMacro(call.calleeName()) != MacroKind::WaitForSpace)
        return std::nullopt;
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
