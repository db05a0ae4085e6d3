#ifndef MCHECK_METAL_FEASIBILITY_H
#define MCHECK_METAL_FEASIBILITY_H

#include "lang/ast.h"
#include "support/hash.h"
#include "support/interner.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mc::metal {

/**
 * How the path walker prunes statically infeasible paths.
 *
 * The paper's Section 5 attributes most false positives to paths the
 * flow-insensitive walk cannot rule out and declines to build the "more
 * elaborate analysis" that would; these strategies are that analysis, in
 * two strengths. Each strategy only ever *removes* paths relative to the
 * weaker one, so diagnostics shrink monotonically:
 * findings(Constraints) subseteq findings(Correlated) subseteq
 * findings(Off).
 */
enum class PruneStrategy : std::uint8_t
{
    /** No pruning — walk every syntactic path (the paper's tool). */
    Off = 0,
    /**
     * Correlated branches only: two two-way branches testing the
     * syntactically identical (side-effect-free) condition along one
     * path must take the same edge. Purely textual; `x == 5` and
     * `x > 10` never correlate.
     */
    Correlated = 1,
    /**
     * Correlated plus a semantic constraint domain: per-path facts
     * about interned symbols (equality/disequality with integer
     * constants, small intervals) derived from comparisons against
     * literals, so `x == 5` followed by `x > 10` is pruned even though
     * the two conditions never render to the same text.
     */
    Constraints = 2,
};

/** Stable CLI spelling ("off", "correlated", "constraints"); the
 *  request-option table parses it. */
const char* pruneStrategyName(PruneStrategy strategy);

/** Recorded branch outcomes: (condition id, value), sorted by id. */
using Outcomes = std::vector<std::pair<std::uint32_t, bool>>;

/**
 * Canonicalizes branch conditions to dense ids for outcome tracking.
 *
 * Two conditions share an id iff they render to the same source text
 * (after stripping `!` prefixes). Per condition id the table keeps the
 * interned word tokens of that text, so assignment invalidation is a
 * sorted-id intersection instead of a substring scan. All caches are
 * per-walk; ids never escape the walk.
 */
class CondTable
{
  public:
    /**
     * Would recording "cond evaluated to `value`" contradict an outcome
     * already on this path? Pure: `outcomes` is not modified. Conditions
     * with calls or assignments are never correlated (their value can
     * change between tests), so they are always feasible.
     */
    bool checkOutcome(const lang::Expr& cond, bool value,
                      const Outcomes& outcomes);

    /**
     * Record "cond evaluated to `value`" in `outcomes`. Returns false if
     * that contradicts a previously recorded outcome on this path.
     */
    bool recordOutcome(const lang::Expr& cond, bool value,
                       Outcomes& outcomes);

    /**
     * Drop recorded outcomes whose condition mentions a variable this
     * statement assigns — the re-test of the condition is no longer
     * correlated with the first.
     */
    void invalidateOutcomes(const lang::Stmt& stmt, Outcomes& outcomes);

    /** Interned names this statement assigns (cached per stmt). */
    const std::vector<support::SymbolId>&
    assignedIdents(const lang::Stmt& stmt);

  private:
    struct CondInfo
    {
        std::uint32_t id = 0;
        /** Parity of stripped `!` prefixes on the original node. */
        bool flip = false;
        bool impure = false;
    };

    const CondInfo& condInfo(const lang::Expr& cond);

    static std::vector<support::SymbolId>
    wordTokens(const std::string& text);

    /** Canonical condition text -> id; id indexes tokens_. */
    std::map<std::string, std::uint32_t> text_ids_;
    std::vector<std::vector<support::SymbolId>> tokens_;
    std::unordered_map<const lang::Expr*, CondInfo> by_node_;
    std::unordered_map<const lang::Stmt*, std::vector<support::SymbolId>>
        assigned_;
};

/** Comparison operators the constraint domain understands. */
enum class CmpOp : std::uint8_t
{
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
};

/** The operator the *false* edge of a `sym OP lit` branch asserts. */
CmpOp negateCmp(CmpOp op);

/**
 * A branch condition reduced to `sym OP literal`, when it has that
 * shape: a plain identifier compared against an integer literal, a
 * character literal, a negated integer literal, or an enum constant
 * (either operand order; `!` prefixes fold into `flip`). A bare
 * identifier is truthiness: `sym != 0`. Anything else is unsupported
 * and contributes no constraints.
 */
struct CondAtom
{
    bool supported = false;
    support::SymbolId sym = support::kInvalidSymbol;
    /** Operator asserted when the branch takes its true edge. */
    CmpOp op = CmpOp::Eq;
    std::int64_t literal = 0;
    /** Parity of stripped `!` prefixes (flips the taken edge). */
    bool flip = false;
};

/** Classify `cond` into an atom (no caching; see FeasibilityContext). */
CondAtom classifyCond(const lang::Expr& cond);

/**
 * Everything a path knows about one symbol's value: an interval plus a
 * small set of excluded values. The domain is deliberately tiny — it
 * exists to kill contradictions like `x == 5` then `x > 10`, not to be
 * an abstract interpreter. Losing precision (a full disequality set)
 * is always sound: fewer facts means fewer pruned paths.
 */
struct ValueFact
{
    static constexpr std::size_t kMaxDisequalities = 8;

    std::int64_t lo = INT64_MIN;
    std::int64_t hi = INT64_MAX;
    /** Excluded values strictly inside (lo, hi), sorted, capped. */
    std::vector<std::int64_t> not_equal;

    /** Conjoin `OP literal`. False iff the fact became unsatisfiable. */
    bool assume(CmpOp op, std::int64_t literal);

    /** Would conjoining `OP literal` stay satisfiable? Pure. */
    bool feasible(CmpOp op, std::int64_t literal) const;

    bool unconstrained() const
    {
        return lo == INT64_MIN && hi == INT64_MAX && not_equal.empty();
    }

  private:
    /** Trim bounds against not_equal until both are admissible. */
    bool normalize();
};

/**
 * The per-path constraint store: symbol -> ValueFact, sorted by symbol
 * id so the digest is canonical. Paths fork at branches, so this is
 * copied like the outcome vector; it stays tiny (a handful of symbols
 * per path in practice).
 */
class ConstraintSet
{
  public:
    /** Conjoin `sym OP literal`. False iff the path became infeasible. */
    bool assume(support::SymbolId sym, CmpOp op, std::int64_t literal);

    /** Would conjoining `sym OP literal` stay satisfiable? Pure. */
    bool feasible(support::SymbolId sym, CmpOp op,
                  std::int64_t literal) const;

    /** Forget everything known about `sym` (it was reassigned). */
    void invalidate(support::SymbolId sym);

    bool empty() const { return facts_.empty(); }

    /** Fold the canonical encoding of every fact into `h`. */
    void hashInto(support::Fnv1a& h) const;

    /** Heap bytes behind this set (budget accounting). */
    std::size_t heapBytes() const;

  private:
    std::vector<std::pair<support::SymbolId, ValueFact>> facts_;
};

/**
 * What a path has learned: the syntactic branch outcomes (Correlated
 * and up) plus the semantic constraint store (Constraints only, empty
 * otherwise). Forked with the client state at every branch.
 */
struct PathFacts
{
    Outcomes outcomes;
    ConstraintSet constraints;

    bool empty() const
    {
        return outcomes.empty() && constraints.empty();
    }
};

/**
 * Per-walk feasibility oracle: owns the condition table, the per-node
 * atom cache, and the prune-decision cache, and implements the
 * layering of the two domains behind one strategy knob.
 *
 * The walker asks questions in two phases so that hooks never run on a
 * pruned edge: first the pure `edgeFeasible` for every out-edge of a
 * branch (no facts mutated), then `applyEdge` on the surviving forks.
 */
class FeasibilityContext
{
  public:
    explicit FeasibilityContext(PruneStrategy strategy)
        : strategy_(strategy)
    {}

    PruneStrategy strategy() const { return strategy_; }
    bool enabled() const { return strategy_ != PruneStrategy::Off; }

    /**
     * A digest of everything `edgeFeasible` can depend on, besides the
     * condition itself. Computed once per popped entry and shared by
     * both edge queries, the prune cache, and the walker's visited key.
     */
    static std::uint64_t factsDigest(const PathFacts& facts);

    /**
     * Would taking the edge where `cond` evaluates to `value` contradict
     * `facts`? Pure. Decisions are cached per (block, edge, digest):
     * identical incoming facts at the same branch answer from the cache
     * (a hash-collision here is the same probabilistic contract as the
     * walker's digested visited set).
     */
    bool edgeFeasible(int block, const lang::Expr& cond, bool value,
                      const PathFacts& facts, std::uint64_t digest);

    /**
     * Record the taken edge into `facts`. Call only on edges
     * `edgeFeasible` accepted; contradictions are ignored here.
     */
    void applyEdge(const lang::Expr& cond, bool value, PathFacts& facts);

    /**
     * Drop facts `stmt` invalidates: recorded outcomes mentioning an
     * assigned variable (the existing invalidateOutcomes machinery) and
     * constraint entries for assigned or address-taken symbols.
     */
    void invalidate(const lang::Stmt& stmt, PathFacts& facts);

    /** Prune decisions answered from the (block, digest) cache. */
    std::uint64_t cacheHits() const { return cache_hits_; }

  private:
    const CondAtom& atom(const lang::Expr& cond);

    /** Symbols whose address `stmt` takes (cached per stmt). */
    const std::vector<support::SymbolId>&
    addrTakenIdents(const lang::Stmt& stmt);

    PruneStrategy strategy_;
    CondTable conds_;
    std::unordered_map<const lang::Expr*, CondAtom> atoms_;
    std::unordered_map<const lang::Stmt*, std::vector<support::SymbolId>>
        addr_taken_;
    std::unordered_map<std::uint64_t, bool> decisions_;
    std::uint64_t cache_hits_ = 0;
};

} // namespace mc::metal

#endif // MCHECK_METAL_FEASIBILITY_H
