#ifndef MCHECK_LANG_AST_H
#define MCHECK_LANG_AST_H

#include "lang/type.h"
#include "support/interner.h"
#include "support/source_location.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mc::lang {

class AstContext;

/**
 * Root of the AST node hierarchy. Nodes live in an AstContext's arena
 * and are never destroyed one by one, so every node type is trivially
 * destructible: names are views of arena-copied text, child lists are
 * arena spans, and dispatch goes through the ekind/skind/dkind tags
 * rather than virtual functions.
 */
struct Node
{
    support::SourceLoc loc;
};

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

enum class ExprKind : std::uint8_t
{
    IntLit, FloatLit, CharLit, StringLit, Ident,
    Unary, Binary, Ternary, Call, Member, Index, Cast, Sizeof,
};

enum class UnaryOp : std::uint8_t
{
    Plus, Neg, Not, BitNot, Deref, AddrOf, PreInc, PreDec, PostInc, PostDec,
};

enum class BinaryOp : std::uint8_t
{
    Add, Sub, Mul, Div, Rem, Shl, Shr,
    Lt, Gt, Le, Ge, Eq, Ne,
    BitAnd, BitOr, BitXor, LogAnd, LogOr, Comma,
    Assign, AddAssign, SubAssign, MulAssign, DivAssign, RemAssign,
    AndAssign, OrAssign, XorAssign, ShlAssign, ShrAssign,
};

/** True for `=` and compound assignments. */
bool isAssignment(BinaryOp op);

/** C spelling of the operator ("+", "<<=", ...). */
const char* unaryOpSpelling(UnaryOp op);
const char* binaryOpSpelling(BinaryOp op);

struct Decl;

struct Expr : Node
{
    ExprKind ekind;
    /** Filled in by Sema where derivable; kInvalidType otherwise. */
    TypeId type = kInvalidType;

    explicit Expr(ExprKind k) : ekind(k) {}
};

struct IntLitExpr : Expr
{
    std::int64_t value = 0;
    /** Original spelling, so 0x10 and 16 stay distinguishable. */
    std::string_view spelling;

    IntLitExpr() : Expr(ExprKind::IntLit) {}
};

struct FloatLitExpr : Expr
{
    double value = 0.0;

    FloatLitExpr() : Expr(ExprKind::FloatLit) {}
};

struct CharLitExpr : Expr
{
    std::int64_t value = 0;

    CharLitExpr() : Expr(ExprKind::CharLit) {}
};

struct StringLitExpr : Expr
{
    /** Spelling including quotes. */
    std::string_view value;

    StringLitExpr() : Expr(ExprKind::StringLit) {}
};

struct IdentExpr : Expr
{
    std::string_view name;
    /** Resolved by Sema when the name has a visible declaration. */
    const Decl* decl = nullptr;
    /**
     * Lazily cached interned id of `name` (see identSymbol()). Relaxed
     * atomic: concurrent fills race benignly — every writer stores the
     * same value, since the global interner is idempotent per string.
     */
    mutable std::atomic<support::SymbolId> sym_cache{
        support::kInvalidSymbol};

    IdentExpr() : Expr(ExprKind::Ident) {}
};

/**
 * The interned symbol id of an identifier node, cached on the node so the
 * matching hot path pays the interner's hash-and-lock cost once per node
 * per process instead of once per visit.
 */
inline support::SymbolId
identSymbol(const IdentExpr& e)
{
    support::SymbolId sym = e.sym_cache.load(std::memory_order_relaxed);
    if (sym == support::kInvalidSymbol) {
        sym = support::SymbolInterner::global().intern(e.name);
        e.sym_cache.store(sym, std::memory_order_relaxed);
    }
    return sym;
}

struct UnaryExpr : Expr
{
    UnaryOp op = UnaryOp::Plus;
    Expr* operand = nullptr;

    UnaryExpr() : Expr(ExprKind::Unary) {}
};

struct BinaryExpr : Expr
{
    BinaryOp op = BinaryOp::Add;
    Expr* lhs = nullptr;
    Expr* rhs = nullptr;

    BinaryExpr() : Expr(ExprKind::Binary) {}
};

struct TernaryExpr : Expr
{
    Expr* cond = nullptr;
    Expr* then_expr = nullptr;
    Expr* else_expr = nullptr;

    TernaryExpr() : Expr(ExprKind::Ternary) {}
};

struct CallExpr : Expr
{
    Expr* callee = nullptr;
    std::span<Expr* const> args;

    CallExpr() : Expr(ExprKind::Call) {}

    /**
     * Name of the called function/macro if the callee is a plain
     * identifier, else "".
     */
    std::string_view calleeName() const;
};

struct MemberExpr : Expr
{
    Expr* base = nullptr;
    std::string_view member;
    bool is_arrow = false;

    MemberExpr() : Expr(ExprKind::Member) {}
};

struct IndexExpr : Expr
{
    Expr* base = nullptr;
    Expr* index = nullptr;

    IndexExpr() : Expr(ExprKind::Index) {}
};

struct CastExpr : Expr
{
    TypeId target = kInvalidType;
    Expr* operand = nullptr;

    CastExpr() : Expr(ExprKind::Cast) {}
};

struct SizeofExpr : Expr
{
    /** Exactly one of these is set. */
    Expr* operand = nullptr;
    TypeId type_operand = kInvalidType;

    SizeofExpr() : Expr(ExprKind::Sizeof) {}
};

// --------------------------------------------------------------------------
// Statements
// --------------------------------------------------------------------------

enum class StmtKind : std::uint8_t
{
    Expr, Decl, Compound, If, While, DoWhile, For, Switch,
    Case, Default, Break, Continue, Return, Goto, Label, Empty,
};

struct Stmt : Node
{
    StmtKind skind;

    explicit Stmt(StmtKind k) : skind(k) {}
};

struct VarDecl;

struct ExprStmt : Stmt
{
    Expr* expr = nullptr;

    ExprStmt() : Stmt(StmtKind::Expr) {}
};

struct DeclStmt : Stmt
{
    std::span<VarDecl* const> decls;

    DeclStmt() : Stmt(StmtKind::Decl) {}
};

struct CompoundStmt : Stmt
{
    std::span<Stmt* const> stmts;

    CompoundStmt() : Stmt(StmtKind::Compound) {}
};

struct IfStmt : Stmt
{
    Expr* cond = nullptr;
    Stmt* then_branch = nullptr;
    Stmt* else_branch = nullptr; // may be null

    IfStmt() : Stmt(StmtKind::If) {}
};

struct WhileStmt : Stmt
{
    Expr* cond = nullptr;
    Stmt* body = nullptr;

    WhileStmt() : Stmt(StmtKind::While) {}
};

struct DoWhileStmt : Stmt
{
    Stmt* body = nullptr;
    Expr* cond = nullptr;

    DoWhileStmt() : Stmt(StmtKind::DoWhile) {}
};

struct ForStmt : Stmt
{
    Stmt* init = nullptr;  // ExprStmt, DeclStmt, or null
    Expr* cond = nullptr;  // may be null
    Expr* step = nullptr;  // may be null
    Stmt* body = nullptr;

    ForStmt() : Stmt(StmtKind::For) {}
};

struct SwitchStmt : Stmt
{
    Expr* cond = nullptr;
    /** Usually a CompoundStmt containing Case/Default markers. */
    Stmt* body = nullptr;

    SwitchStmt() : Stmt(StmtKind::Switch) {}
};

/** `case V:` marker inside a switch body (labels the next statement). */
struct CaseStmt : Stmt
{
    Expr* value = nullptr;

    CaseStmt() : Stmt(StmtKind::Case) {}
};

struct DefaultStmt : Stmt
{
    DefaultStmt() : Stmt(StmtKind::Default) {}
};

struct BreakStmt : Stmt
{
    BreakStmt() : Stmt(StmtKind::Break) {}
};

struct ContinueStmt : Stmt
{
    ContinueStmt() : Stmt(StmtKind::Continue) {}
};

struct ReturnStmt : Stmt
{
    Expr* value = nullptr; // may be null

    ReturnStmt() : Stmt(StmtKind::Return) {}
};

struct GotoStmt : Stmt
{
    std::string_view label;

    GotoStmt() : Stmt(StmtKind::Goto) {}
};

/** `name:` marker preceding the next statement in a compound. */
struct LabelStmt : Stmt
{
    std::string_view name;

    LabelStmt() : Stmt(StmtKind::Label) {}
};

struct EmptyStmt : Stmt
{
    EmptyStmt() : Stmt(StmtKind::Empty) {}
};

// --------------------------------------------------------------------------
// Declarations
// --------------------------------------------------------------------------

enum class DeclKind : std::uint8_t
{
    Var, Param, Function, Record, Typedef, Enum, EnumConst, Poisoned,
};

struct Decl : Node
{
    DeclKind dkind;
    std::string_view name;

    explicit Decl(DeclKind k) : dkind(k) {}
};

struct VarDecl : Decl
{
    TypeId type = kInvalidType;
    Expr* init = nullptr; // may be null
    bool is_static = false;
    bool is_extern = false;

    VarDecl() : Decl(DeclKind::Var) {}
};

struct ParamDecl : Decl
{
    TypeId type = kInvalidType;

    ParamDecl() : Decl(DeclKind::Param) {}
};

struct FunctionDecl : Decl
{
    TypeId return_type = kInvalidType;
    std::span<ParamDecl* const> params;
    CompoundStmt* body = nullptr; // null for prototypes
    bool is_static = false;
    bool is_inline = false;

    FunctionDecl() : Decl(DeclKind::Function) {}

    bool isDefinition() const { return body != nullptr; }
};

struct RecordDecl : Decl
{
    bool is_union = false;
    std::span<VarDecl* const> fields;
    TypeId type = kInvalidType;

    RecordDecl() : Decl(DeclKind::Record) {}
};

struct TypedefDecl : Decl
{
    TypeId type = kInvalidType;

    TypedefDecl() : Decl(DeclKind::Typedef) {}
};

struct EnumConstDecl : Decl
{
    std::int64_t value = 0;

    EnumConstDecl() : Decl(DeclKind::EnumConst) {}
};

struct EnumDecl : Decl
{
    std::span<EnumConstDecl* const> constants;
    TypeId type = kInvalidType;

    EnumDecl() : Decl(DeclKind::Enum) {}
};

/**
 * Placeholder for a top-level declaration that failed to parse when the
 * parser runs in recovery mode. It marks the skipped source region so
 * later phases know something lived here; `name` is the best-effort
 * declarator name ("" when unrecognizable). Poisoned decls are never
 * function definitions, so checkers and fingerprints skip them
 * naturally.
 */
struct PoisonedDecl : Decl
{
    /** The parse error that poisoned this region. */
    std::string_view message;
    /** Where the error was reported (loc is where the region starts). */
    support::SourceLoc error_loc;
    /** First location after the skipped region. */
    support::SourceLoc end_loc;

    PoisonedDecl() : Decl(DeclKind::Poisoned) {}
};

// --------------------------------------------------------------------------
// Containers
// --------------------------------------------------------------------------

/**
 * One problem found while turning a source file into an AST (a syntax
 * error recovered from, or a lex error that emptied the unit).
 */
struct ParseIssue
{
    support::SourceLoc loc;
    std::string message;
    /** Diagnostic rule id: "parse-error" or "lex-error". */
    std::string rule = "parse-error";
};

/** All top-level declarations parsed from one source file. */
struct TranslationUnit
{
    std::int32_t file_id = 0;
    std::vector<Decl*> decls;
    std::vector<std::string> directives;
    /** Recovered-from frontend errors; non-empty means degraded. */
    std::vector<ParseIssue> issues;

    /**
     * Memo of lang::unitFingerprint for this unit's file, filled by
     * fingerprintFunctions on first use; 0 means "not computed yet" (a
     * genuine 0 is merely recomputed). Sound because a file's bytes only
     * change through Program::updateSource, which replaces the whole
     * unit — and a copied unit starts with an empty memo. Atomic so
     * concurrent readers of one const Program may race to fill it; both
     * store the same value.
     */
    struct FingerprintMemo
    {
        mutable std::atomic<std::uint64_t> value{0};

        FingerprintMemo() = default;
        FingerprintMemo(const FingerprintMemo&) {}
        FingerprintMemo& operator=(const FingerprintMemo&)
        {
            value.store(0, std::memory_order_relaxed);
            return *this;
        }
    } fingerprint;

    /** Function definitions in declaration order. */
    std::vector<const FunctionDecl*> functionDefinitions() const;
};

/**
 * Bump arena that owns every AST node of one program, the text of every
 * name and literal the nodes carry, and the type table.
 *
 * Nodes, copied text and child-list spans are carved out of large chunks
 * (kChunkBytes; a request too big to share a chunk gets one of its own)
 * and are never freed one by one: every node type is trivially
 * destructible, so ~AstContext releases the chunks and nothing else.
 *
 * Names are copied into the arena rather than viewed in the
 * SourceManager buffer on purpose. Program::updateSource replaces a
 * file's text, but the replaced unit's declarations stay reachable from
 * the identifiers of unchanged units that resolved into it, so their
 * names must outlive the text they were lexed from.
 *
 * Raw Node pointers elsewhere in the system are non-owning borrows whose
 * lifetime is that of the context. The context is not thread-safe:
 * one thread allocates (parses) at a time.
 */
class AstContext
{
  public:
    /** Bytes per arena chunk. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    AstContext() = default;

    AstContext(const AstContext&) = delete;
    AstContext& operator=(const AstContext&) = delete;

    /** Allocate a node of type T constructed from `args`. */
    template <typename T, typename... Args>
    T*
    make(Args&&... args)
    {
        static_assert(std::is_base_of_v<Node, T>);
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena nodes are never destroyed");
        ++node_count_;
        return ::new (allocate(sizeof(T), alignof(T)))
            T(std::forward<Args>(args)...);
    }

    /** Copy `text` into the arena; the view lives as long as the context. */
    std::string_view copyText(std::string_view text);

    /**
     * Copy `items` into the arena as an immutable child list, converting
     * each element to `T*` (the caller guarantees the dynamic type).
     */
    template <typename T>
    std::span<T* const>
    copyList(std::span<Node* const> items)
    {
        if (items.empty())
            return {};
        auto* out = static_cast<T**>(
            allocate(items.size() * sizeof(T*), alignof(T*)));
        for (std::size_t i = 0; i < items.size(); ++i)
            out[i] = static_cast<T*>(items[i]);
        return {out, items.size()};
    }

    TypeTable& types() { return types_; }
    const TypeTable& types() const { return types_; }

    /** Nodes allocated so far. */
    std::size_t nodeCount() const { return node_count_; }

    /** Bytes held in arena chunks (nodes, text, lists and slack). */
    std::size_t arenaBytes() const { return chunk_bytes_; }

  private:
    /** Raw storage from the arena; `align` must be a power of two. */
    void*
    allocate(std::size_t bytes, std::size_t align)
    {
        auto p = (reinterpret_cast<std::uintptr_t>(cur_) + align - 1) &
                 ~(align - 1);
        if (cur_ && p + bytes <= reinterpret_cast<std::uintptr_t>(end_)) {
            cur_ = reinterpret_cast<std::byte*>(p + bytes);
            return reinterpret_cast<void*>(p);
        }
        return allocateSlow(bytes, align);
    }

    void* allocateSlow(std::size_t bytes, std::size_t align);

    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::byte* cur_ = nullptr;
    std::byte* end_ = nullptr;
    std::size_t node_count_ = 0;
    std::size_t chunk_bytes_ = 0;
    TypeTable types_;
};

// --------------------------------------------------------------------------
// Traversal and utility functions
// --------------------------------------------------------------------------

/** Invoke `fn` on each direct child expression of `expr`. */
void forEachChildExpr(const Expr& expr,
                      const std::function<void(const Expr&)>& fn);

/** Invoke `fn` on `expr` and all subexpressions, pre-order. */
void forEachSubExpr(const Expr& expr,
                    const std::function<void(const Expr&)>& fn);

/**
 * Invoke `fn` on the expressions directly owned by `stmt` (condition of an
 * if, value of a return, ...), without descending into sub-statements.
 */
void forEachTopLevelExpr(const Stmt& stmt,
                         const std::function<void(const Expr&)>& fn);

/**
 * Invoke `fn` on every IdentExpr occurring in `stmt`'s top-level
 * expressions (including subexpressions). This is the ident-collection
 * primitive behind pattern prefilters.
 */
void forEachIdent(const Stmt& stmt,
                  const std::function<void(const IdentExpr&)>& fn);

/**
 * Replace `out` with the sorted unique interned identifier ids of
 * `stmt` — the per-statement input of pattern prefilters. FlatCfg
 * lowering (cfg/flat_cfg.h) runs it once per statement and stores the
 * result as an arena span; `out` is reused across calls.
 */
void collectStmtIdentIds(const Stmt& stmt,
                         std::vector<support::SymbolId>& out);

/**
 * Statically-dispatched twin of forEachIdent for hot paths: same visit
 * order and coverage, but direct switch recursion instead of per-node
 * std::function indirection.
 */
template <typename Fn>
void
visitIdentsFast(const Expr& expr, Fn&& fn)
{
    switch (expr.ekind) {
      case ExprKind::IntLit:
      case ExprKind::FloatLit:
      case ExprKind::CharLit:
      case ExprKind::StringLit:
        return;
      case ExprKind::Ident:
        fn(static_cast<const IdentExpr&>(expr));
        return;
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(expr);
        if (u.operand) visitIdentsFast(*u.operand, fn);
        return;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        if (b.lhs) visitIdentsFast(*b.lhs, fn);
        if (b.rhs) visitIdentsFast(*b.rhs, fn);
        return;
      }
      case ExprKind::Ternary: {
        const auto& t = static_cast<const TernaryExpr&>(expr);
        if (t.cond) visitIdentsFast(*t.cond, fn);
        if (t.then_expr) visitIdentsFast(*t.then_expr, fn);
        if (t.else_expr) visitIdentsFast(*t.else_expr, fn);
        return;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(expr);
        if (c.callee) visitIdentsFast(*c.callee, fn);
        for (const Expr* a : c.args)
            if (a) visitIdentsFast(*a, fn);
        return;
      }
      case ExprKind::Member: {
        const auto& m = static_cast<const MemberExpr&>(expr);
        if (m.base) visitIdentsFast(*m.base, fn);
        return;
      }
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(expr);
        if (i.base) visitIdentsFast(*i.base, fn);
        if (i.index) visitIdentsFast(*i.index, fn);
        return;
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(expr);
        if (c.operand) visitIdentsFast(*c.operand, fn);
        return;
      }
      case ExprKind::Sizeof: {
        const auto& s = static_cast<const SizeofExpr&>(expr);
        if (s.operand) visitIdentsFast(*s.operand, fn);
        return;
      }
    }
}

template <typename Fn>
void
visitIdentsFast(const Stmt& stmt, Fn&& fn)
{
    switch (stmt.skind) {
      case StmtKind::Expr: {
        const auto& s = static_cast<const ExprStmt&>(stmt);
        if (s.expr) visitIdentsFast(*s.expr, fn);
        return;
      }
      case StmtKind::Decl: {
        const auto& s = static_cast<const DeclStmt&>(stmt);
        for (const VarDecl* v : s.decls)
            if (v->init) visitIdentsFast(*v->init, fn);
        return;
      }
      case StmtKind::If:
        if (const Expr* e = static_cast<const IfStmt&>(stmt).cond)
            visitIdentsFast(*e, fn);
        return;
      case StmtKind::While:
        if (const Expr* e = static_cast<const WhileStmt&>(stmt).cond)
            visitIdentsFast(*e, fn);
        return;
      case StmtKind::DoWhile:
        if (const Expr* e = static_cast<const DoWhileStmt&>(stmt).cond)
            visitIdentsFast(*e, fn);
        return;
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        if (s.cond) visitIdentsFast(*s.cond, fn);
        if (s.step) visitIdentsFast(*s.step, fn);
        return;
      }
      case StmtKind::Switch:
        if (const Expr* e = static_cast<const SwitchStmt&>(stmt).cond)
            visitIdentsFast(*e, fn);
        return;
      case StmtKind::Case:
        if (const Expr* e = static_cast<const CaseStmt&>(stmt).value)
            visitIdentsFast(*e, fn);
        return;
      case StmtKind::Return:
        if (const Expr* e = static_cast<const ReturnStmt&>(stmt).value)
            visitIdentsFast(*e, fn);
        return;
      default:
        return;
    }
}

/** Invoke `fn` on `stmt` and all nested statements, pre-order. */
void forEachStmt(const Stmt& stmt, const std::function<void(const Stmt&)>& fn);

/** Structural equality of expressions (ignores locations and types). */
bool exprEquals(const Expr& a, const Expr& b);

/** Render an expression as C source (for diagnostics and tests). */
std::string exprToString(const Expr& expr);

/** Render a statement as a single line of C-ish source. */
std::string stmtToString(const Stmt& stmt);

/** `expr` as a CallExpr if it is one (directly), else nullptr. */
const CallExpr* asCall(const Expr& expr);

/**
 * If `stmt` is an expression statement whose expression is a call (or an
 * assignment whose RHS is a call), return that call.
 */
const CallExpr* stmtAsCall(const Stmt& stmt);

} // namespace mc::lang

#endif // MCHECK_LANG_AST_H
