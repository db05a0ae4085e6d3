#include "checkers/buffer_mgmt.h"

#include "cfg/flat_cfg.h"
#include "flash/macros.h"
#include "metal/path_walker.h"

#include <map>

namespace mc::checkers {

using namespace mc::lang;
using flash::HandlerKind;
using flash::MacroKind;

namespace {

struct BufState
{
    bool has_buffer = false;
    bool no_free_needed = false;
    /** Variable the last ALLOCATE_DB() was assigned to (may yet fail). */
    support::SymbolId alloc_var = support::kInvalidSymbol;
    support::SourceLoc last_event;

    /** (alloc_var + 1) << 2 | flags: "no variable" wraps to 0, and
     *  symbol ids stay far below 2^30, so the packing is exact. */
    std::uint32_t
    key() const
    {
        return static_cast<std::uint32_t>(alloc_var + 1) << 2 |
               static_cast<std::uint32_t>(has_buffer) << 1 |
               static_cast<std::uint32_t>(no_free_needed);
    }

    bool dead() const { return false; }
};

/**
 * If `cond` tests variable `var` against zero, report which branch edge
 * corresponds to "allocation failed": 0 for `var == 0` / `!var`, 1 for
 * `var != 0` / bare `var`. Returns -1 when the condition is not such a
 * test.
 */
int
allocFailureEdge(const Expr& cond, support::SymbolId var)
{
    if (var == support::kInvalidSymbol)
        return -1;
    switch (cond.ekind) {
      case ExprKind::Ident:
        return identSymbol(static_cast<const IdentExpr&>(cond)) == var ? 1
                                                                       : -1;
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(cond);
        if (u.op != UnaryOp::Not)
            return -1;
        int inner = allocFailureEdge(*u.operand, var);
        if (inner < 0)
            return -1;
        return 1 - inner;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(cond);
        bool lhs_var =
            b.lhs->ekind == ExprKind::Ident &&
            identSymbol(static_cast<const IdentExpr&>(*b.lhs)) == var;
        bool rhs_zero = b.rhs->ekind == ExprKind::IntLit &&
                        static_cast<const IntLitExpr&>(*b.rhs).value == 0;
        if (!lhs_var || !rhs_zero)
            return -1;
        if (b.op == BinaryOp::Eq)
            return 0; // true edge means it failed
        if (b.op == BinaryOp::Ne)
            return 1;
        return -1;
      }
      default:
        return -1;
    }
}

/** What role a function plays for this checker. */
enum class Role : std::uint8_t
{
    Skip,          // unrelated normal routine
    HwHandler,     // starts with buffer, must free
    SwHandler,     // starts without buffer
    FreeingHelper, // table says: expects a buffer and frees it
    UsingHelper,   // table says: expects a buffer, must not free it
};

} // namespace

void
BufferMgmtChecker::checkFunction(const FunctionDecl& fn,
                                 const cfg::Cfg& cfg, CheckContext& ctx)
{
    Role role = Role::Skip;
    switch (ctx.spec.kindOf(fn.name)) {
      case HandlerKind::Hardware: role = Role::HwHandler; break;
      case HandlerKind::Software: role = Role::SwHandler; break;
      case HandlerKind::Normal:
        if (ctx.spec.freeing_routines.count(fn.name))
            role = Role::FreeingHelper;
        else if (ctx.spec.buffer_using_routines.count(fn.name))
            role = Role::UsingHelper;
        break;
    }
    if (role == Role::Skip)
        return;

    // Per-annotation-site usefulness tracking: did any path arrive in a
    // state the annotation actually changes?
    std::map<support::SourceLoc, bool> annotation_useful;

    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    mc::metal::PathWalker<BufState>::Hooks hooks;
    hooks.on_stmt = [&](BufState& st, const Stmt&, std::uint32_t row) {
        for (const cfg::CallRow& c : flat.calls(row)) {
            const std::string_view callee = c.call->calleeName();
            const MacroKind kind = flash::macroKind(c.callee);
            const support::SourceLoc& loc = c.call->loc;

            bool is_free = kind == MacroKind::FreeDb ||
                           ctx.spec.freeing_routines.count(callee) > 0;
            bool is_use =
                kind == MacroKind::ReadDb ||
                kind == MacroKind::ReadDbDeprecated ||
                kind == MacroKind::WriteDb ||
                ctx.spec.buffer_using_routines.count(callee) > 0;

            if (kind == MacroKind::MaybeFreeDb &&
                !options_.value_sensitive_frees) {
                // Naive mode: conservatively freed on both edges.
                is_free = true;
            }

            if (is_free) {
                ++applied_;
                if (!st.has_buffer) {
                    ctx.sink.error(loc, name(), "double-free",
                                   "buffer freed twice (or freed "
                                   "without being held)");
                    continue;
                }
                st.has_buffer = false;
                st.last_event = loc;
                continue;
            }
            if (kind == MacroKind::AllocDb) {
                ++applied_;
                if (st.has_buffer) {
                    ctx.sink.error(loc, name(), "alloc-overwrites",
                                   "allocation while already holding "
                                   "a buffer leaks the current one");
                    continue;
                }
                st.has_buffer = true;
                st.last_event = loc;
                // Remember the variable so a later `if (buf == 0)`
                // failure branch can retract the buffer.
                st.alloc_var = c.target();
                continue;
            }
            if (flash::isSend(kind)) {
                ++applied_;
                if (!st.has_buffer)
                    ctx.sink.error(loc, name(), "send-without-buffer",
                                   "send issued with no data buffer "
                                   "held");
                continue;
            }
            if (is_use) {
                ++applied_;
                if (!st.has_buffer)
                    ctx.sink.error(loc, name(), "use-after-free",
                                   "data buffer used after being "
                                   "freed (or never allocated)");
                continue;
            }
            if (kind == MacroKind::RefcntIncr) {
                // Section 11: the call that blinded the tool once;
                // now aggressively objected to.
                ctx.sink.error(loc, name(), "manual-refcount",
                               "manual reference-count manipulation "
                               "(DB_REFCNT_INCR) defeats buffer "
                               "checking");
                continue;
            }
            if (kind == MacroKind::AnnotHasBuffer) {
                auto [it, inserted] = annotation_useful.emplace(loc, false);
                if (!st.has_buffer)
                    it->second = true; // it changed something
                st.has_buffer = true;
                continue;
            }
            if (kind == MacroKind::AnnotNoFreeNeeded) {
                auto [it, inserted] = annotation_useful.emplace(loc, false);
                if (st.has_buffer && !st.no_free_needed)
                    it->second = true;
                st.no_free_needed = true;
            }
        }
    };
    hooks.on_branch = [&](BufState& st, const Expr& cond,
                          std::size_t edge) {
        // Failure test on the variable the allocation was assigned to:
        // the failing edge never actually had a buffer.
        int fail_edge = allocFailureEdge(cond, st.alloc_var);
        if (fail_edge >= 0) {
            if (static_cast<std::size_t>(fail_edge) == edge)
                st.has_buffer = false;
            st.alloc_var = support::kInvalidSymbol;
            return;
        }
        if (options_.value_sensitive_frees) {
            // `if (MAYBE_FREE_DB_x(...))`: true edge freed, false edge
            // kept — the Section 6.1 refinement.
            bool maybe_free = false;
            visitExprsFast(cond, [&](const Expr& e) {
                if (flash::classifyCall(e) == MacroKind::MaybeFreeDb)
                    maybe_free = true;
            });
            if (maybe_free && edge == 0 && st.has_buffer)
                st.has_buffer = false;
        }
    };
    hooks.on_exit = [&](BufState& st) {
        if (st.no_free_needed)
            return;
        if (st.has_buffer &&
            (role == Role::HwHandler || role == Role::SwHandler ||
             role == Role::FreeingHelper)) {
            ctx.sink.error(st.last_event.isValid() ? st.last_event : fn.loc,
                           name(), "leak",
                           "data buffer not freed on some path through '" +
                               std::string(fn.name) + "'");
        }
        if (!st.has_buffer && role == Role::UsingHelper) {
            ctx.sink.error(st.last_event.isValid() ? st.last_event : fn.loc,
                           name(), "helper-freed",
                           "buffer-using routine '" + std::string(fn.name) +
                               "' freed the buffer it does not own");
        }
    };

    BufState initial;
    initial.has_buffer = role == Role::HwHandler ||
                         role == Role::FreeingHelper ||
                         role == Role::UsingHelper;

    mc::metal::PathWalker<BufState>::WalkOptions wopts;
    wopts.prune_strategy = options_.prune_strategy;
    mc::metal::PathWalker<BufState> walker(std::move(hooks), wopts);
    walker.walk(cfg, initial);

    for (const auto& [loc, useful] : annotation_useful) {
        ++annotations_seen_;
        if (!useful) {
            ++annotations_unneeded_;
            ctx.sink.warning(loc, name(), "annotation-unneeded",
                             "annotation changes nothing on any path "
                             "through '" +
                                 std::string(fn.name) + "'");
        }
    }
}

} // namespace mc::checkers
