#include "checkers/buffer_alloc.h"

#include "cfg/flat_cfg.h"
#include "flash/macros.h"
#include "metal/path_walker.h"

namespace mc::checkers {

using namespace mc::lang;
using flash::MacroKind;

namespace {

/** Walker state: the outstanding unchecked allocation variable, if any. */
struct AllocState
{
    support::SymbolId var = support::kInvalidSymbol; // none outstanding
    bool checked = true;

    /** (var + 1) << 1 | checked: "no variable" wraps to 0, and symbol
     *  ids stay far below 2^31, so the packing is exact. */
    std::uint32_t
    key() const
    {
        return static_cast<std::uint32_t>(var + 1) << 1 |
               static_cast<std::uint32_t>(checked);
    }

    bool dead() const { return false; }
};

} // namespace

void
BufferAllocChecker::checkFunction(const FunctionDecl& fn,
                                  const cfg::Cfg& cfg, CheckContext& ctx)
{
    (void)fn;
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);

    // Count allocation sites (Table 6's "Applied").
    for (const cfg::CallRow& c : flat.calls())
        if (flash::macroKind(c.callee) == MacroKind::AllocDb)
            ++applied_;

    mc::metal::PathWalker<AllocState>::Hooks hooks;
    hooks.on_stmt = [&](AllocState& st, const Stmt& stmt,
                        std::uint32_t row) {
        // `x = ALLOCATE_DB()` / `T x = ALLOCATE_DB()` starts tracking x.
        for (const cfg::CallRow& c : flat.calls(row)) {
            if (c.target() != support::kInvalidSymbol &&
                flash::macroKind(c.callee) == MacroKind::AllocDb) {
                st.var = c.target();
                st.checked = false;
                return;
            }
        }
        if (st.checked)
            return;

        // A branch condition mentioning the variable IS the failure
        // check; both edges count as checked. The branch statement is
        // its block's last row, so no on_branch hook is needed.
        const bool mentioned = flat.mentions(row, st.var);
        switch (stmt.skind) {
          case StmtKind::If:
          case StmtKind::While:
          case StmtKind::DoWhile:
          case StmtKind::Switch:
          case StmtKind::For:
            if (mentioned) {
                st.checked = true;
                return;
            }
            break;
          default:
            break;
        }

        // Any use of the unchecked variable — including passing it to a
        // debug print — or any write into / send of the buffer is an
        // unchecked use.
        bool used = mentioned;
        for (const cfg::CallRow& c : flat.calls(row)) {
            MacroKind kind = flash::macroKind(c.callee);
            if (kind == MacroKind::WriteDb || flash::isSend(kind))
                used = true;
        }
        if (used) {
            ctx.sink.error(stmt.loc, name(), "unchecked-alloc",
                           "buffer '" +
                               std::string(support::SymbolInterner::global()
                                               .name(st.var)) +
                               "' used before checking ALLOCATE_DB() "
                               "for failure");
            st.checked = true; // avoid cascading reports down this path
        }
    };

    mc::metal::PathWalker<AllocState>::WalkOptions wopts;
    wopts.prune_strategy = prune_strategy_;
    mc::metal::PathWalker<AllocState> walker(std::move(hooks), wopts);
    walker.walk(cfg, AllocState{});
}

} // namespace mc::checkers
