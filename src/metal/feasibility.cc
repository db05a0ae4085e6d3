#include "metal/feasibility.h"

#include <algorithm>
#include <cctype>

namespace mc::metal {

const char*
pruneStrategyName(PruneStrategy strategy)
{
    switch (strategy) {
    case PruneStrategy::Off:
        return "off";
    case PruneStrategy::Correlated:
        return "correlated";
    case PruneStrategy::Constraints:
        return "constraints";
    }
    return "off";
}

// --------------------------------------------------------------------
// CondTable

bool
CondTable::checkOutcome(const lang::Expr& cond, bool value,
                        const Outcomes& outcomes)
{
    const CondInfo& info = condInfo(cond);
    if (info.impure)
        return true;
    if (info.flip)
        value = !value;
    auto it = std::lower_bound(
        outcomes.begin(), outcomes.end(), info.id,
        [](const auto& e, std::uint32_t id) { return e.first < id; });
    if (it != outcomes.end() && it->first == info.id)
        return it->second == value;
    return true;
}

bool
CondTable::recordOutcome(const lang::Expr& cond, bool value,
                         Outcomes& outcomes)
{
    const CondInfo& info = condInfo(cond);
    if (info.impure)
        return true;
    if (info.flip)
        value = !value;
    auto it = std::lower_bound(
        outcomes.begin(), outcomes.end(), info.id,
        [](const auto& e, std::uint32_t id) { return e.first < id; });
    if (it != outcomes.end() && it->first == info.id)
        return it->second == value;
    outcomes.insert(it, {info.id, value});
    return true;
}

void
CondTable::invalidateOutcomes(const lang::Stmt& stmt, Outcomes& outcomes)
{
    const std::vector<support::SymbolId>& assigned = assignedIdents(stmt);
    if (assigned.empty())
        return;
    outcomes.erase(
        std::remove_if(
            outcomes.begin(), outcomes.end(),
            [&](const std::pair<std::uint32_t, bool>& outcome) {
                const std::vector<support::SymbolId>& toks =
                    tokens_[outcome.first];
                for (support::SymbolId name : assigned)
                    if (std::binary_search(toks.begin(), toks.end(),
                                           name))
                        return true;
                return false;
            }),
        outcomes.end());
}

const CondTable::CondInfo&
CondTable::condInfo(const lang::Expr& cond)
{
    auto cached = by_node_.find(&cond);
    if (cached != by_node_.end())
        return cached->second;

    CondInfo info;
    const lang::Expr* base = &cond;
    while (base->ekind == lang::ExprKind::Unary &&
           static_cast<const lang::UnaryExpr*>(base)->op ==
               lang::UnaryOp::Not) {
        base = static_cast<const lang::UnaryExpr*>(base)->operand;
        info.flip = !info.flip;
    }
    lang::forEachSubExpr(*base, [&](const lang::Expr& e) {
        if (e.ekind == lang::ExprKind::Call)
            info.impure = true;
        if (e.ekind == lang::ExprKind::Binary &&
            lang::isAssignment(
                static_cast<const lang::BinaryExpr&>(e).op))
            info.impure = true;
        if (e.ekind == lang::ExprKind::Unary) {
            auto op = static_cast<const lang::UnaryExpr&>(e).op;
            if (op == lang::UnaryOp::PreInc ||
                op == lang::UnaryOp::PreDec ||
                op == lang::UnaryOp::PostInc ||
                op == lang::UnaryOp::PostDec)
                info.impure = true;
        }
    });
    if (!info.impure) {
        std::string text = lang::exprToString(*base);
        auto [it, inserted] = text_ids_.emplace(
            std::move(text), static_cast<std::uint32_t>(tokens_.size()));
        if (inserted)
            tokens_.push_back(wordTokens(it->first));
        info.id = it->second;
    }
    return by_node_.emplace(&cond, info).first->second;
}

/**
 * The interned maximal [A-Za-z0-9_] runs of `text`, sorted and
 * deduplicated. Membership of an identifier in this set is exactly a
 * whole-word substring test: every whole-word occurrence is a maximal
 * run and vice versa.
 */
std::vector<support::SymbolId>
CondTable::wordTokens(const std::string& text)
{
    std::vector<support::SymbolId> out;
    auto& interner = support::SymbolInterner::global();
    auto is_word = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::size_t i = 0;
    while (i < text.size()) {
        if (!is_word(text[i])) {
            ++i;
            continue;
        }
        std::size_t start = i;
        while (i < text.size() && is_word(text[i]))
            ++i;
        out.push_back(interner.intern(
            std::string_view(text).substr(start, i - start)));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

const std::vector<support::SymbolId>&
CondTable::assignedIdents(const lang::Stmt& stmt)
{
    auto cached = assigned_.find(&stmt);
    if (cached != assigned_.end())
        return cached->second;

    std::vector<support::SymbolId> assigned;
    auto& interner = support::SymbolInterner::global();
    if (stmt.skind == lang::StmtKind::Decl)
        for (const lang::VarDecl* v :
             static_cast<const lang::DeclStmt&>(stmt).decls)
            assigned.push_back(interner.intern(v->name));
    lang::forEachTopLevelExpr(stmt, [&](const lang::Expr& top) {
        lang::forEachSubExpr(top, [&](const lang::Expr& e) {
            const lang::Expr* target = nullptr;
            if (e.ekind == lang::ExprKind::Binary &&
                lang::isAssignment(
                    static_cast<const lang::BinaryExpr&>(e).op))
                target = static_cast<const lang::BinaryExpr&>(e).lhs;
            if (e.ekind == lang::ExprKind::Unary) {
                auto op = static_cast<const lang::UnaryExpr&>(e).op;
                if (op == lang::UnaryOp::PreInc ||
                    op == lang::UnaryOp::PreDec ||
                    op == lang::UnaryOp::PostInc ||
                    op == lang::UnaryOp::PostDec)
                    target =
                        static_cast<const lang::UnaryExpr&>(e).operand;
            }
            if (target && target->ekind == lang::ExprKind::Ident)
                assigned.push_back(interner.intern(
                    static_cast<const lang::IdentExpr*>(target)->name));
        });
    });
    return assigned_.emplace(&stmt, std::move(assigned)).first->second;
}

// --------------------------------------------------------------------
// Constraint domain

CmpOp
negateCmp(CmpOp op)
{
    switch (op) {
    case CmpOp::Eq:
        return CmpOp::Ne;
    case CmpOp::Ne:
        return CmpOp::Eq;
    case CmpOp::Lt:
        return CmpOp::Ge;
    case CmpOp::Le:
        return CmpOp::Gt;
    case CmpOp::Gt:
        return CmpOp::Le;
    case CmpOp::Ge:
        return CmpOp::Lt;
    }
    return op;
}

namespace {

/** `expr` as an integer literal the domain can compare against: an int
 *  or char literal, a unary-negated literal, or an enum constant whose
 *  value Sema resolved. */
std::optional<std::int64_t>
literalValue(const lang::Expr& expr)
{
    switch (expr.ekind) {
    case lang::ExprKind::IntLit:
        return static_cast<const lang::IntLitExpr&>(expr).value;
    case lang::ExprKind::CharLit:
        return static_cast<const lang::CharLitExpr&>(expr).value;
    case lang::ExprKind::Unary: {
        const auto& un = static_cast<const lang::UnaryExpr&>(expr);
        if (un.op == lang::UnaryOp::Neg && un.operand) {
            if (auto v = literalValue(*un.operand))
                return *v == INT64_MIN ? std::optional<std::int64_t>()
                                       : std::optional<std::int64_t>(-*v);
        }
        return std::nullopt;
    }
    case lang::ExprKind::Ident: {
        const auto& id = static_cast<const lang::IdentExpr&>(expr);
        if (id.decl && id.decl->dkind == lang::DeclKind::EnumConst)
            return static_cast<const lang::EnumConstDecl*>(id.decl)
                ->value;
        return std::nullopt;
    }
    default:
        return std::nullopt;
    }
}

/** `expr` as a trackable variable: a plain identifier that is not
 *  itself a constant (enum constants compare, they don't vary). */
const lang::IdentExpr*
trackableIdent(const lang::Expr& expr)
{
    if (expr.ekind != lang::ExprKind::Ident)
        return nullptr;
    const auto& id = static_cast<const lang::IdentExpr&>(expr);
    if (id.decl && id.decl->dkind == lang::DeclKind::EnumConst)
        return nullptr;
    return &id;
}

CmpOp
mirrorCmp(CmpOp op)
{
    switch (op) {
    case CmpOp::Lt:
        return CmpOp::Gt;
    case CmpOp::Le:
        return CmpOp::Ge;
    case CmpOp::Gt:
        return CmpOp::Lt;
    case CmpOp::Ge:
        return CmpOp::Le;
    default:
        return op; // Eq/Ne are symmetric
    }
}

std::optional<CmpOp>
cmpFromBinary(lang::BinaryOp op)
{
    switch (op) {
    case lang::BinaryOp::Eq:
        return CmpOp::Eq;
    case lang::BinaryOp::Ne:
        return CmpOp::Ne;
    case lang::BinaryOp::Lt:
        return CmpOp::Lt;
    case lang::BinaryOp::Le:
        return CmpOp::Le;
    case lang::BinaryOp::Gt:
        return CmpOp::Gt;
    case lang::BinaryOp::Ge:
        return CmpOp::Ge;
    default:
        return std::nullopt;
    }
}

} // namespace

CondAtom
classifyCond(const lang::Expr& cond)
{
    CondAtom atom;
    const lang::Expr* base = &cond;
    while (base->ekind == lang::ExprKind::Unary &&
           static_cast<const lang::UnaryExpr*>(base)->op ==
               lang::UnaryOp::Not) {
        base = static_cast<const lang::UnaryExpr*>(base)->operand;
        atom.flip = !atom.flip;
    }
    // Bare identifier: C truthiness, `sym != 0`.
    if (const lang::IdentExpr* id = trackableIdent(*base)) {
        atom.supported = true;
        atom.sym = lang::identSymbol(*id);
        atom.op = CmpOp::Ne;
        atom.literal = 0;
        return atom;
    }
    if (base->ekind != lang::ExprKind::Binary)
        return atom;
    const auto& bin = static_cast<const lang::BinaryExpr&>(*base);
    std::optional<CmpOp> op = cmpFromBinary(bin.op);
    if (!op || !bin.lhs || !bin.rhs)
        return atom;
    if (const lang::IdentExpr* id = trackableIdent(*bin.lhs)) {
        if (auto lit = literalValue(*bin.rhs)) {
            atom.supported = true;
            atom.sym = lang::identSymbol(*id);
            atom.op = *op;
            atom.literal = *lit;
            return atom;
        }
    }
    if (const lang::IdentExpr* id = trackableIdent(*bin.rhs)) {
        if (auto lit = literalValue(*bin.lhs)) {
            atom.supported = true;
            atom.sym = lang::identSymbol(*id);
            atom.op = mirrorCmp(*op);
            atom.literal = *lit;
            return atom;
        }
    }
    return atom;
}

// --------------------------------------------------------------------
// ValueFact

bool
ValueFact::normalize()
{
    // Drop excluded values that fell outside the interval, then keep
    // nudging a bound inward while it is itself excluded. Each erase is
    // O(set size), and the set is capped, so this terminates quickly.
    not_equal.erase(std::remove_if(not_equal.begin(), not_equal.end(),
                                   [&](std::int64_t v) {
                                       return v < lo || v > hi;
                                   }),
                    not_equal.end());
    bool moved = true;
    while (moved && lo <= hi) {
        moved = false;
        auto at_lo =
            std::lower_bound(not_equal.begin(), not_equal.end(), lo);
        if (at_lo != not_equal.end() && *at_lo == lo) {
            not_equal.erase(at_lo);
            if (lo == INT64_MAX)
                return false;
            ++lo;
            moved = true;
        }
        auto at_hi =
            std::lower_bound(not_equal.begin(), not_equal.end(), hi);
        if (lo <= hi && at_hi != not_equal.end() && *at_hi == hi) {
            not_equal.erase(at_hi);
            if (hi == INT64_MIN)
                return false;
            --hi;
            moved = true;
        }
    }
    return lo <= hi;
}

bool
ValueFact::assume(CmpOp op, std::int64_t literal)
{
    switch (op) {
    case CmpOp::Eq:
        if (literal < lo || literal > hi)
            return false;
        if (std::binary_search(not_equal.begin(), not_equal.end(),
                               literal))
            return false;
        lo = hi = literal;
        not_equal.clear();
        return true;
    case CmpOp::Ne: {
        auto it =
            std::lower_bound(not_equal.begin(), not_equal.end(), literal);
        if (it == not_equal.end() || *it != literal) {
            // A full set forgets the new exclusion — sound (weaker
            // facts prune fewer paths), and keeps copies O(1).
            if (not_equal.size() < kMaxDisequalities)
                not_equal.insert(it, literal);
        }
        return normalize();
    }
    case CmpOp::Lt:
        if (literal == INT64_MIN)
            return false;
        hi = std::min(hi, literal - 1);
        return normalize();
    case CmpOp::Le:
        hi = std::min(hi, literal);
        return normalize();
    case CmpOp::Gt:
        if (literal == INT64_MAX)
            return false;
        lo = std::max(lo, literal + 1);
        return normalize();
    case CmpOp::Ge:
        lo = std::max(lo, literal);
        return normalize();
    }
    return true;
}

bool
ValueFact::feasible(CmpOp op, std::int64_t literal) const
{
    ValueFact scratch = *this;
    return scratch.assume(op, literal);
}

// --------------------------------------------------------------------
// ConstraintSet

bool
ConstraintSet::assume(support::SymbolId sym, CmpOp op,
                      std::int64_t literal)
{
    auto it = std::lower_bound(
        facts_.begin(), facts_.end(), sym,
        [](const auto& e, support::SymbolId s) { return e.first < s; });
    if (it == facts_.end() || it->first != sym)
        it = facts_.insert(it, {sym, ValueFact{}});
    if (!it->second.assume(op, literal))
        return false;
    // An unconstrained fact (everything forgotten) carries no
    // information; dropping it keeps the digest canonical.
    if (it->second.unconstrained())
        facts_.erase(it);
    return true;
}

bool
ConstraintSet::feasible(support::SymbolId sym, CmpOp op,
                        std::int64_t literal) const
{
    auto it = std::lower_bound(
        facts_.begin(), facts_.end(), sym,
        [](const auto& e, support::SymbolId s) { return e.first < s; });
    if (it == facts_.end() || it->first != sym)
        return true; // nothing known: any comparison can hold
    return it->second.feasible(op, literal);
}

void
ConstraintSet::invalidate(support::SymbolId sym)
{
    auto it = std::lower_bound(
        facts_.begin(), facts_.end(), sym,
        [](const auto& e, support::SymbolId s) { return e.first < s; });
    if (it != facts_.end() && it->first == sym)
        facts_.erase(it);
}

void
ConstraintSet::hashInto(support::Fnv1a& h) const
{
    for (const auto& [sym, fact] : facts_) {
        h.u64(sym);
        h.i64(fact.lo);
        h.i64(fact.hi);
        h.u64(fact.not_equal.size());
        for (std::int64_t v : fact.not_equal)
            h.i64(v);
    }
}

std::size_t
ConstraintSet::heapBytes() const
{
    std::size_t bytes =
        facts_.capacity() *
        sizeof(std::pair<support::SymbolId, ValueFact>);
    for (const auto& [sym, fact] : facts_)
        bytes += fact.not_equal.capacity() * sizeof(std::int64_t);
    return bytes;
}

// --------------------------------------------------------------------
// FeasibilityContext

std::uint64_t
FeasibilityContext::factsDigest(const PathFacts& facts)
{
    support::Fnv1a h;
    for (const auto& [cond, value] : facts.outcomes) {
        h.u64(cond);
        h.u8(value ? 1 : 0);
    }
    facts.constraints.hashInto(h);
    return h.value();
}

bool
FeasibilityContext::edgeFeasible(int block, const lang::Expr& cond,
                                 bool value, const PathFacts& facts,
                                 std::uint64_t digest)
{
    if (facts.empty())
        return true; // nothing known, nothing to contradict
    std::uint64_t key = support::Fnv1a()
                            .u64(static_cast<std::uint64_t>(block))
                            .u8(value ? 1 : 0)
                            .u64(digest)
                            .value();
    auto cached = decisions_.find(key);
    if (cached != decisions_.end()) {
        ++cache_hits_;
        return cached->second;
    }
    bool ok = conds_.checkOutcome(cond, value, facts.outcomes);
    if (ok && strategy_ == PruneStrategy::Constraints) {
        const CondAtom& a = atom(cond);
        if (a.supported) {
            bool taken = a.flip ? !value : value;
            CmpOp op = taken ? a.op : negateCmp(a.op);
            ok = facts.constraints.feasible(a.sym, op, a.literal);
        }
    }
    decisions_.emplace(key, ok);
    return ok;
}

void
FeasibilityContext::applyEdge(const lang::Expr& cond, bool value,
                              PathFacts& facts)
{
    conds_.recordOutcome(cond, value, facts.outcomes);
    if (strategy_ == PruneStrategy::Constraints) {
        const CondAtom& a = atom(cond);
        if (a.supported) {
            bool taken = a.flip ? !value : value;
            CmpOp op = taken ? a.op : negateCmp(a.op);
            facts.constraints.assume(a.sym, op, a.literal);
        }
    }
}

void
FeasibilityContext::invalidate(const lang::Stmt& stmt, PathFacts& facts)
{
    if (facts.empty())
        return;
    if (!facts.outcomes.empty())
        conds_.invalidateOutcomes(stmt, facts.outcomes);
    if (strategy_ == PruneStrategy::Constraints &&
        !facts.constraints.empty()) {
        for (support::SymbolId sym : conds_.assignedIdents(stmt))
            facts.constraints.invalidate(sym);
        // Address-taken symbols can be written through the pointer by
        // anything that runs later; the syntactic domain tolerates that
        // hole (its conditions must re-render identically to correlate)
        // but the semantic domain drops the symbol to stay conservative.
        for (support::SymbolId sym : addrTakenIdents(stmt))
            facts.constraints.invalidate(sym);
    }
}

const CondAtom&
FeasibilityContext::atom(const lang::Expr& cond)
{
    auto cached = atoms_.find(&cond);
    if (cached != atoms_.end())
        return cached->second;
    return atoms_.emplace(&cond, classifyCond(cond)).first->second;
}

const std::vector<support::SymbolId>&
FeasibilityContext::addrTakenIdents(const lang::Stmt& stmt)
{
    auto cached = addr_taken_.find(&stmt);
    if (cached != addr_taken_.end())
        return cached->second;
    std::vector<support::SymbolId> taken;
    lang::forEachTopLevelExpr(stmt, [&](const lang::Expr& top) {
        lang::forEachSubExpr(top, [&](const lang::Expr& e) {
            if (e.ekind != lang::ExprKind::Unary)
                return;
            const auto& un = static_cast<const lang::UnaryExpr&>(e);
            if (un.op != lang::UnaryOp::AddrOf || !un.operand ||
                un.operand->ekind != lang::ExprKind::Ident)
                return;
            taken.push_back(lang::identSymbol(
                *static_cast<const lang::IdentExpr*>(un.operand)));
        });
    });
    return addr_taken_.emplace(&stmt, std::move(taken)).first->second;
}

} // namespace mc::metal
