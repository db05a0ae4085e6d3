#include "tests/checkers/walker_oracles.h"

#include "cfg/flat_cfg.h"
#include "flash/macros.h"
#include "metal/path_walker.h"
#include "support/text.h"

#include <map>
#include <set>
#include <vector>

namespace mc::checkers::oracle {

using namespace mc::lang;
using flash::Interface;
using flash::MacroKind;

namespace {

/**
 * The distinct locations one walk remembers, each under a small slot
 * number a visited key can carry exactly.
 */
class LocSlots
{
  public:
    std::uint32_t
    slot(const support::SourceLoc& loc)
    {
        auto [it, inserted] =
            slots_.emplace(loc, static_cast<std::uint32_t>(locs_.size()));
        if (inserted)
            locs_.push_back(loc);
        return it->second;
    }

    const support::SourceLoc& loc(std::uint32_t slot) const
    {
        return locs_[slot];
    }

  private:
    std::map<support::SourceLoc, std::uint32_t> slots_;
    std::vector<support::SourceLoc> locs_;
};

struct WaitState
{
    Interface awaiting = Interface::None;
    /** LocSlots slot of the pending send; read only while awaiting. */
    std::uint32_t pending_send = 0;

    std::uint32_t
    key() const
    {
        if (awaiting == Interface::None)
            return 0;
        return static_cast<std::uint32_t>(awaiting) | pending_send << 2;
    }

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

enum class DirState : std::uint8_t { NotLoaded, Loaded, Modified };

struct DirWalkState
{
    DirState dir = DirState::NotLoaded;
    bool nak_sent = false;
    /** LocSlots slot of the last modification; read only while the
     *  entry is modified and no NAK was sent. */
    std::uint32_t last_modify = 0;

    std::uint32_t
    key() const
    {
        const std::uint32_t base = static_cast<std::uint32_t>(dir) << 1 |
                                   static_cast<std::uint32_t>(nak_sent);
        if (dir != DirState::Modified || nak_sent)
            return base;
        return base | last_modify << 3;
    }

    bool dead() const { return false; }
};

} // namespace

void
SendWaitChecker::checkFunction(const FunctionDecl& fn, const cfg::Cfg& cfg,
                               CheckContext& ctx)
{
    (void)fn;
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    LocSlots slots;
    std::set<const CallExpr*> applied;

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
                    st.pending_send = slots.slot(loc);
                    applied.insert(c.call);
                }
                continue;
            }

            if (kind == MacroKind::WaitPiReply ||
                kind == MacroKind::WaitIoReply) {
                applied.insert(c.call);
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
            ctx.sink.error(slots.loc(st.pending_send), name(),
                           "missing-wait",
                           std::string("send with F_WAIT on the ") +
                               interfaceName(st.awaiting) +
                               " interface is never waited for");
        }
    };

    mc::metal::PathWalker<WaitState>::WalkOptions wopts;
    wopts.prune_strategy = prune_strategy_;
    mc::metal::PathWalker<WaitState> walker(std::move(hooks), wopts);
    walker.walk(cfg, WaitState{});
    applied_ += static_cast<int>(applied.size());
}

void
DirectoryChecker::checkFunction(const FunctionDecl& fn, const cfg::Cfg& cfg,
                                CheckContext& ctx)
{
    (void)fn;
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    LocSlots slots;
    std::set<const CallExpr*> applied;

    // A function containing the expects_dir_writeback() annotation
    // intentionally leaves the modified entry to its caller.
    bool exempt = false;
    for (const cfg::CallRow& c : flat.calls())
        if (flash::macroKind(c.callee) == MacroKind::AnnotExpectsDirWriteback)
            exempt = true;

    mc::metal::PathWalker<DirWalkState>::Hooks hooks;
    hooks.on_stmt = [&](DirWalkState& st, const Stmt&, std::uint32_t row) {
        for (const cfg::CallRow& c : flat.calls(row)) {
            const support::SourceLoc& loc = c.call->loc;
            switch (flash::macroKind(c.callee)) {
              case MacroKind::DirLoad:
                applied.insert(c.call);
                st.dir = DirState::Loaded;
                continue;
              case MacroKind::DirRead:
                applied.insert(c.call);
                if (st.dir == DirState::NotLoaded)
                    ctx.sink.error(loc, name(), "use-before-load",
                                   "directory entry read before "
                                   "DIR_LOAD()");
                continue;
              case MacroKind::DirWrite:
                applied.insert(c.call);
                if (st.dir == DirState::NotLoaded) {
                    ctx.sink.error(loc, name(), "use-before-load",
                                   "directory entry modified before "
                                   "DIR_LOAD()");
                    continue;
                }
                st.dir = DirState::Modified;
                st.last_modify = slots.slot(loc);
                continue;
              case MacroKind::DirWriteback:
                applied.insert(c.call);
                if (st.dir == DirState::NotLoaded) {
                    ctx.sink.warning(loc, name(), "writeback-without-load",
                                     "DIR_WRITEBACK() with no loaded "
                                     "entry");
                    continue;
                }
                st.dir = DirState::Loaded;
                continue;
              case MacroKind::SendNi:
                if (support::startsWith(flash::niSendOpcode(*c.call),
                                        flash::kNakPrefix))
                    st.nak_sent = true;
                continue;
              default:
                break;
            }
            // Calls into subroutines that modify the entry on the
            // caller's behalf.
            if (ctx.spec.dir_deferred_routines.count(
                    c.call->calleeName())) {
                if (st.dir == DirState::NotLoaded) {
                    ctx.sink.error(loc, name(), "use-before-load",
                                   "subroutine modifies directory "
                                   "entry before DIR_LOAD()");
                    continue;
                }
                st.dir = DirState::Modified;
                st.last_modify = slots.slot(loc);
            }
        }
    };
    hooks.on_exit = [&](DirWalkState& st) {
        if (exempt)
            return;
        if (st.dir == DirState::Modified && !st.nak_sent) {
            ctx.sink.error(slots.loc(st.last_modify), name(),
                           "missing-writeback",
                           "modified directory entry is not written back "
                           "on some path");
        }
    };

    mc::metal::PathWalker<DirWalkState>::WalkOptions wopts;
    wopts.prune_strategy = prune_strategy_;
    mc::metal::PathWalker<DirWalkState> walker(std::move(hooks), wopts);
    walker.walk(cfg, DirWalkState{});
    applied_ += static_cast<int>(applied.size());
}

} // namespace mc::checkers::oracle
