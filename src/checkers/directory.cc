#include "checkers/directory.h"

#include "cfg/flat_cfg.h"
#include "flash/macros.h"
#include "metal/path_walker.h"
#include "support/text.h"

namespace mc::checkers {

using namespace mc::lang;
using flash::MacroKind;

namespace {

enum class DirState : std::uint8_t { NotLoaded, Loaded, Modified };

struct DirWalkState
{
    DirState dir = DirState::NotLoaded;
    bool nak_sent = false;
    support::SourceLoc last_modify;

    std::uint32_t
    key() const
    {
        return static_cast<std::uint32_t>(dir) << 1 |
               static_cast<std::uint32_t>(nak_sent);
    }

    bool dead() const { return false; }
};

} // namespace

void
DirectoryChecker::checkFunction(const FunctionDecl& fn, const cfg::Cfg& cfg,
                                CheckContext& ctx)
{
    (void)fn;
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);

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
                ++applied_;
                st.dir = DirState::Loaded;
                continue;
              case MacroKind::DirRead:
                ++applied_;
                if (st.dir == DirState::NotLoaded)
                    ctx.sink.error(loc, name(), "use-before-load",
                                   "directory entry read before "
                                   "DIR_LOAD()");
                continue;
              case MacroKind::DirWrite:
                ++applied_;
                if (st.dir == DirState::NotLoaded) {
                    ctx.sink.error(loc, name(), "use-before-load",
                                   "directory entry modified before "
                                   "DIR_LOAD()");
                    continue;
                }
                st.dir = DirState::Modified;
                st.last_modify = loc;
                continue;
              case MacroKind::DirWriteback:
                ++applied_;
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
                st.last_modify = loc;
            }
        }
    };
    hooks.on_exit = [&](DirWalkState& st) {
        if (exempt)
            return;
        if (st.dir == DirState::Modified && !st.nak_sent) {
            ctx.sink.error(st.last_modify, name(), "missing-writeback",
                           "modified directory entry is not written back "
                           "on some path");
        }
    };

    mc::metal::PathWalker<DirWalkState>::WalkOptions wopts;
    wopts.prune_strategy = prune_strategy_;
    mc::metal::PathWalker<DirWalkState> walker(std::move(hooks), wopts);
    walker.walk(cfg, DirWalkState{});
}

} // namespace mc::checkers
