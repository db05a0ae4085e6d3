#include "checkers/send_wait.h"

#include "cfg/flat_cfg.h"
#include "flash/macros.h"
#include "metal/path_walker.h"

namespace mc::checkers {

using namespace mc::lang;
using flash::Interface;
using flash::MacroKind;

namespace {

struct WaitState
{
    Interface awaiting = Interface::None;
    support::SourceLoc pending_send;

    std::uint32_t key() const { return static_cast<std::uint32_t>(awaiting); }

    bool dead() const { return false; }
};

const char*
interfaceName(Interface iface)
{
    switch (iface) {
      case Interface::Pi: return "PI";
      case Interface::Io: return "IO";
      case Interface::Ni: return "NI";
      default: return "?";
    }
}

} // namespace

void
SendWaitChecker::checkFunction(const FunctionDecl& fn, const cfg::Cfg& cfg,
                               CheckContext& ctx)
{
    (void)fn;
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);

    mc::metal::PathWalker<WaitState>::Hooks hooks;
    hooks.on_stmt = [&](WaitState& st, const Stmt&, std::uint32_t row) {
        for (const cfg::CallRow& c : flat.calls(row)) {
            const MacroKind kind = flash::macroKind(c.callee);
            const support::SourceLoc& loc = c.call->loc;

            if (flash::isSend(kind)) {
                if (st.awaiting != Interface::None) {
                    ctx.sink.error(loc, name(), "send-while-waiting",
                                   std::string("send issued while a wait "
                                               "on the ") +
                                       interfaceName(st.awaiting) +
                                       " interface is pending");
                    st.awaiting = Interface::None; // stop the cascade
                }
                if (flash::sendWaitArg(*c.call) == flash::kFWait) {
                    st.awaiting = flash::interfaceOf(kind);
                    st.pending_send = loc;
                    ++applied_;
                }
                continue;
            }

            if (kind == MacroKind::WaitPiReply ||
                kind == MacroKind::WaitIoReply) {
                ++applied_;
                Interface wait_iface = flash::interfaceOf(kind);
                if (st.awaiting == Interface::None) {
                    ctx.sink.warning(loc, name(), "wait-without-send",
                                     "wait with no pending synchronous "
                                     "send");
                    continue;
                }
                if (st.awaiting != wait_iface) {
                    ctx.sink.error(
                        loc, name(), "wait-wrong-interface",
                        std::string("wait on the ") +
                            interfaceName(wait_iface) +
                            " interface but the pending send targeted " +
                            interfaceName(st.awaiting));
                }
                st.awaiting = Interface::None;
            }
        }
    };
    hooks.on_exit = [&](WaitState& st) {
        if (st.awaiting != Interface::None) {
            ctx.sink.error(st.pending_send, name(), "missing-wait",
                           std::string("send with F_WAIT on the ") +
                               interfaceName(st.awaiting) +
                               " interface is never waited for");
        }
    };

    mc::metal::PathWalker<WaitState>::WalkOptions wopts;
    wopts.prune_strategy = prune_strategy_;
    mc::metal::PathWalker<WaitState> walker(std::move(hooks), wopts);
    walker.walk(cfg, WaitState{});
}

} // namespace mc::checkers
