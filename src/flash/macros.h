#ifndef MCHECK_FLASH_MACROS_H
#define MCHECK_FLASH_MACROS_H

#include "lang/ast.h"
#include "support/interner.h"

#include <string_view>

namespace mc::flash {

/**
 * The modeled FLASH macro vocabulary.
 *
 * The paper analyzes FLASH protocol code post-macro-adaptation; the exact
 * Stanford macro names are not all public, so this module fixes a
 * documented, consistent vocabulary with the same roles:
 *
 *   Sends (use the current data buffer; dispatch to an interface):
 *     PI_SEND(F_DATA|F_NODATA, keep, swap, wait, dec, null)
 *     IO_SEND(F_DATA|F_NODATA, keep, swap, wait, dec, null)
 *     NI_SEND(MSG_x, F_DATA|F_NODATA, keep, wait, dec, null)
 *       - `wait` is F_WAIT or F_NOWAIT (send-wait checker, Section 9)
 *       - NI_SEND's MSG_x opcode maps to a network lane via the protocol
 *         spec (lanes checker, Section 7)
 *
 *   Buffer management (Sections 4, 6, 9):
 *     WAIT_FOR_DB_FULL(addr)        synchronize with the filling hardware
 *     MISCBUS_READ_DB(addr, buf)    read the data buffer
 *     MISCBUS_READ_DB_OLD(addr)     deprecated legacy read
 *     MISCBUS_WRITE_DB(addr, v)     write into the data buffer
 *     buf = ALLOCATE_DB()           allocate; yields 0 on failure
 *     FREE_DB()                     drop the current buffer's reference
 *     MAYBE_FREE_DB_{A..D}()        free-or-not helpers returning 0/1
 *                                   (the Section 6.1 value-sensitivity
 *                                   refinement keys on these)
 *     DB_REFCNT_INCR()              manual refcount bump ("never" used —
 *                                   the Section 11 betrayal; aggressively
 *                                   flagged)
 *
 *   Directory management (Section 9):
 *     DIR_LOAD()                    load the line's directory entry
 *     DIR_READ(field)               read a field of the loaded entry
 *     DIR_WRITE(field, v)           modify the loaded entry in memory
 *     DIR_WRITEBACK()               write the entry back
 *
 *   Waits (send-wait checker):
 *     WAIT_FOR_PI_REPLY()           wait on the processor interface
 *     WAIT_FOR_IO_REPLY()           wait on the I/O interface
 *
 *   Lane quota (Section 7):
 *     WAIT_FOR_SPACE(MSG_x)         block until the lane of MSG_x has
 *                                   space; resets that lane's send budget
 *
 *   Execution restrictions and simulation hooks (Section 8):
 *     HANDLER_DEFS(); HANDLER_PROLOGUE();     first two statements of a
 *                                             hardware handler
 *     SWHANDLER_DEFS(); SWHANDLER_PROLOGUE(); first two of a software
 *                                             handler
 *     PROC_HOOK();                            first statement of a normal
 *                                             routine
 *     NO_STACK();                             no-stack assertion (exactly
 *                                             one, at handler start)
 *     SET_STACKPTR();                         required before calls from
 *                                             no-stack handlers
 *
 *   Checker annotations (Section 6):
 *     has_buffer(); no_free_needed(); expects_dir_writeback();
 *
 * Message length is carried in the header via the Figure 3 idiom:
 *     HANDLER_GLOBALS(header.nh.len) = LEN_NODATA|LEN_WORD|LEN_CACHELINE;
 */
enum class MacroKind : std::uint8_t
{
    None,
    SendPi,
    SendIo,
    SendNi,
    WaitDbFull,
    ReadDb,
    ReadDbDeprecated,
    WriteDb,
    AllocDb,
    FreeDb,
    MaybeFreeDb,
    RefcntIncr,
    DirLoad,
    DirRead,
    DirWrite,
    DirWriteback,
    WaitPiReply,
    WaitIoReply,
    WaitForSpace,
    HandlerDefs,
    HandlerPrologue,
    SwHandlerDefs,
    SwHandlerPrologue,
    ProcHook,
    NoStack,
    SetStackPtr,
    AnnotHasBuffer,
    AnnotNoFreeNeeded,
    AnnotExpectsDirWriteback,
    HandlerGlobals,
};

/**
 * Kind of the callee whose interned name is `callee` (a CallRow's
 * callee, cfg/flat_cfg.h): one bounds-checked array load, no hashing.
 * The vocabulary is interned when the program starts, so its table
 * stays a few dozen bytes; kInvalidSymbol and every symbol outside the
 * vocabulary are MacroKind::None.
 */
MacroKind macroKind(support::SymbolId callee);

/** Classify a callee name: macroKind of its symbol, if interned. */
MacroKind classifyMacro(std::string_view callee);

/** Kind of the call if `expr` is a call to a known macro. */
MacroKind classifyCall(const lang::Expr& expr);

/** True for PI_SEND / IO_SEND / NI_SEND. */
bool isSend(MacroKind kind);

/** True for the checker annotation pseudo-calls. */
bool isAnnotation(MacroKind kind);

/** Message-length constants (Figure 3). */
inline constexpr std::string_view kLenNoData = "LEN_NODATA";
inline constexpr std::string_view kLenWord = "LEN_WORD";
inline constexpr std::string_view kLenCacheline = "LEN_CACHELINE";

/** has-data flags. */
inline constexpr std::string_view kFData = "F_DATA";
inline constexpr std::string_view kFNoData = "F_NODATA";

/** wait flags. */
inline constexpr std::string_view kFWait = "F_WAIT";
inline constexpr std::string_view kFNoWait = "F_NOWAIT";

/** NAK opcode prefix: sends of MSG_NAK* count as negative acks. */
inline constexpr std::string_view kNakPrefix = "MSG_NAK";

/**
 * For a send call, the identifier spelling of its has-data argument
 * ("F_DATA"/"F_NODATA"), or "" if the argument is not a plain constant
 * (run-time send parameters — the coma false-positive source in
 * Table 3). Like the three below, the view aliases the AST's text.
 */
std::string_view sendHasDataArg(const lang::CallExpr& call);

/** For a send call, the wait flag argument ("F_WAIT"/"F_NOWAIT"). */
std::string_view sendWaitArg(const lang::CallExpr& call);

/** For an NI_SEND, the MSG_* opcode identifier. */
std::string_view niSendOpcode(const lang::CallExpr& call);

/** For WAIT_FOR_SPACE, the MSG_* opcode identifier. */
std::string_view waitForSpaceOpcode(const lang::CallExpr& call);

/** Interface a send targets / a wait listens on. */
enum class Interface : std::uint8_t { None, Pi, Io, Ni };

/** The interface of a send or wait macro kind. */
Interface interfaceOf(MacroKind kind);

} // namespace mc::flash

#endif // MCHECK_FLASH_MACROS_H
