#ifndef MCHECK_METAL_PATH_WALKER_H
#define MCHECK_METAL_PATH_WALKER_H

#include "cfg/cfg.h"
#include "cfg/flat_cfg.h"
#include "metal/feasibility.h"
#include "support/budget.h"
#include "support/hash.h"
#include "support/interner.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/witness.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mc::metal {

/**
 * Generic path-sensitive traversal with client-defined state.
 *
 * This is xg++'s "apply the extension down every path" core. The walker
 * visits CFG blocks depth-first from the entry, threading a client state
 * value through each path. Exponential blowup is avoided the way xg++
 * avoids it: a (block, state) pair is visited at most once, which is
 * exact for checkers whose behavior depends only on the current state and
 * statement (all of ours).
 *
 * The pending-path frontier is struct-of-arrays: block ids, states,
 * path facts, and witness trails live in parallel vectors, with the
 * facts and trail columns only maintained in the modes that use them —
 * the common (no pruning, no witness) walk pushes and pops nothing but
 * an int and a trivially-small state, keeping the pop/probe/fork loop
 * cache-dense.
 *
 * The client state type must provide:
 *   - copy construction (paths fork at branches);
 *   - `std::uint32_t key() const` — an exact encoding of the state
 *     used for the (block, state) visited set. Without pruning it is
 *     packed with the block id into one 64-bit word (no hashing, no
 *     collisions);
 *   - `bool dead() const` — true when this path needs no further
 *     exploration (the metal `stop` state).
 */
template <typename State>
class PathWalker
{
  public:
    struct Hooks
    {
        /**
         * Called for each statement of each visited block, in order,
         * with the statement's FlatCfg row (cfg/flat_cfg.h): clients read
         * the row's lowered calls and identifiers, or address per-row
         * tables, without re-walking the AST or hashing pointers.
         */
        std::function<void(State&, const lang::Stmt&, std::uint32_t)>
            on_stmt;
        /**
         * Called when leaving a branch block, once per out-edge, with
         * the branch condition and the index of the taken edge (0 = the
         * true edge for if/while). Lets clients be value-sensitive the
         * way Section 6.1's twelve-line refinement is.
         */
        std::function<void(State&, const lang::Expr&, std::size_t)>
            on_branch;
        /** Called when a path reaches the function's exit block. */
        std::function<void(State&)> on_exit;
        /**
         * Block-range prefilter: called once per visited block (before
         * its statement loop) with the path state and block id. A true
         * return skips the statement loop for this visit — the client
         * guarantees no statement hook would have any effect (see
         * TransitionTable::blockSkippable, whose bits are exact). The
         * visit itself still happens: visited-set insertion, visit
         * counting, budget charging, witness block recording, and
         * successor fan-out are identical, so every semantic counter
         * and all diagnostics are byte-identical with the hook unset.
         * Ignored while pruning — feasibility invalidation is
         * per-statement and must see every statement.
         */
        std::function<bool(const State&, int)> skip_block;
    };

    struct Result
    {
        /** Number of (block, state) visits performed (= cache misses). */
        std::uint64_t visits = 0;
        /** True if the visit cap stopped exploration early. */
        bool truncated = false;
        /** Branch edges pruned as contradictory (pruning mode only). */
        std::uint64_t pruned_edges = 0;
        /** Feasibility verdicts answered from the per-(block, facts)
         *  prune-decision cache instead of re-deciding. */
        std::uint64_t prune_cache_hits = 0;
        /** Branch blocks pruning had to skip because they fan out to
         *  other than two successors (switch-lowered branches). */
        std::uint64_t prune_skipped_nary = 0;
        /**
         * Paths abandoned because their (block, state) pair had already
         * been visited — the cache hits that keep 2^N-path functions
         * linear. visits + cache_hits = pairs popped off the work list.
         */
        std::uint64_t cache_hits = 0;
        /** Largest pending-path frontier (work-list depth) reached. */
        std::uint64_t peak_frontier = 0;
        /**
         * Which per-unit resource budget limit stopped the walk, if any
         * (truncated is also set). None for max_visits truncation.
         */
        support::BudgetStop budget_stop = support::BudgetStop::None;
    };

    struct WalkOptions
    {
        std::uint64_t max_visits = 1u << 22;
        /**
         * Prune statically impossible paths (feasibility.h). Correlated
         * rejects re-takes of the syntactically identical condition —
         * the "more elaborate analysis" the paper's Section 5 describes
         * and declines to build. Constraints layers a semantic value
         * domain on top, so `x == 5` followed by `x > 10` is pruned
         * even though the two conditions never render to the same text.
         */
        PruneStrategy prune_strategy = PruneStrategy::Off;
    };

    explicit PathWalker(Hooks hooks, std::uint64_t max_visits = 1u << 22)
        : hooks_(std::move(hooks))
    {
        options_.max_visits = max_visits;
    }

    PathWalker(Hooks hooks, const WalkOptions& options)
        : hooks_(std::move(hooks)), options_(options)
    {}

    /** Walk `cfg` starting from `initial` state at the entry block. */
    Result
    walk(const cfg::Cfg& cfg, const State& initial)
    {
        Result result;
        const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
        FeasibilityContext feas(options_.prune_strategy);
        const bool pruning = feas.enabled();
        // Per-thread scratch: the visited-set slab and the four frontier
        // columns are reused across walks so the typical (small) function
        // costs zero heap allocations per run instead of five or six.
        // Purely an allocation cache — every buffer is cleared on
        // checkout, so results are identical to fresh locals. The in-use
        // guard falls back to fresh locals if a hook ever re-enters
        // walk() on the same thread.
        ScratchLease lease;
        VisitedSet visited(lease->visited_slots);
        // Witness capture is resolved once per walk: when off, every
        // pending path carries an inert trail (a null pointer member),
        // so the per-fork cost is copying one nullptr and the
        // per-statement cost is zero.
        const bool witness_on = support::witnessEnabled();
        const unsigned witness_cap = support::witnessLimit();
        // Block skipping is sound only when statements are effect-free
        // for this path, which pruning breaks (per-statement fact
        // invalidation must run).
        const bool can_skip =
            !pruning && static_cast<bool>(hooks_.skip_block);

        // Struct-of-arrays frontier: the pop/probe/fork loop touches
        // the dense block/state rows; facts and trails are only
        // maintained (and only allocated) in the modes that use them.
        // Push/pop order is identical to the old entry-object stack,
        // so exploration order — and thus peak_frontier — is unchanged.
        std::vector<int>& f_block = lease->f_block;
        std::vector<State>& f_state = lease->f_state;
        std::vector<PathFacts>& f_facts = lease->f_facts;
        std::vector<support::WitnessTrail>& f_trail = lease->f_trail;
        f_block.push_back(cfg.entryId());
        f_state.push_back(initial);
        if (pruning)
            f_facts.emplace_back();
        if (witness_on)
            f_trail.emplace_back(true);
        result.peak_frontier = 1;

        while (!f_block.empty()) {
            if (f_block.size() > result.peak_frontier)
                result.peak_frontier = f_block.size();
            const int block = f_block.back();
            f_block.pop_back();
            State state = std::move(f_state.back());
            f_state.pop_back();
            PathFacts facts;
            if (pruning) {
                facts = std::move(f_facts.back());
                f_facts.pop_back();
            }
            support::WitnessTrail trail(false);
            if (witness_on) {
                trail = std::move(f_trail.back());
                f_trail.pop_back();
            }

            if (!visited.insert(visitedKey(block, state, facts))) {
                ++result.cache_hits;
                continue;
            }
            // Cap check precedes the count: a capped walk performs (and
            // reports) exactly max_visits fully-processed visits. An
            // earlier version counted first and bailed after, so visits
            // ended at max_visits + 1 with the last visit's block never
            // actually processed.
            if (result.visits >= options_.max_visits) {
                result.truncated = true;
                result.prune_cache_hits = feas.cacheHits();
                publishUnitStats(result);
                return result;
            }
            // The unit's resource budget (installed by the parallel
            // engine's UnitGuard) governs the whole (function, checker)
            // unit across all of its walks: one step per visit, bytes
            // for the frontier entry (including the recorded branch
            // outcomes) plus the 8-byte visited-set key. Like the visit
            // cap, exhaustion truncates gracefully — partial results
            // survive; nothing is thrown.
            if (support::Budget* budget = support::Budget::current()) {
                budget->chargeStep();
                budget->chargeBytes(entryBytes(facts, trail));
                if (budget->exhausted()) {
                    result.truncated = true;
                    result.budget_stop = budget->stop();
                    result.prune_cache_hits = feas.cacheHits();
                    publishUnitStats(result);
                    return result;
                }
            }
            ++result.visits;

            // Record the block on the path segment and expose the trail
            // to statement hooks (and, transitively, to DiagnosticSink
            // reports made from checker actions) for this visit.
            std::optional<support::WitnessTrailScope> witness_scope;
            if (witness_on) {
                trail.addBlock(block, witness_cap);
                witness_scope.emplace(&trail);
            }

            const cfg::BasicBlock& bb = cfg.block(block);
            const std::uint32_t row_end = flat.stmtEnd(block);
            // The prefilter consults per-state bits, so it runs after
            // the visit is committed but before any statement work; a
            // skipped block performs zero per-statement hook calls.
            const bool scan =
                flat.stmtBegin(block) != row_end &&
                !(can_skip && hooks_.skip_block(state, block));
            if (scan) {
                for (std::uint32_t row = flat.stmtBegin(block);
                     row < row_end; ++row) {
                    const lang::Stmt* stmt = flat.stmt(row);
                    if (hooks_.on_stmt)
                        hooks_.on_stmt(state, *stmt, row);
                    if (pruning)
                        feas.invalidate(*stmt, facts);
                    if (state.dead())
                        break;
                }
            }
            if (state.dead())
                continue;

            if (block == cfg.exitId()) {
                if (hooks_.on_exit)
                    hooks_.on_exit(state);
                continue;
            }

            // Successor fan-out runs in two phases so that pruned edges
            // are dead on arrival: phase one classifies every out-edge
            // against the path's facts (pure — nothing mutated), phase
            // two forks only the feasible ones. on_branch therefore
            // never fires on a pruned edge — an earlier version ran the
            // hook first and pruned after, so contradictory edges still
            // executed branch transitions, inflating sm_transitions and
            // witness state on paths that were about to be discarded.
            const bool prunable =
                pruning && bb.isBranch() && bb.succs.size() == 2;
            if (pruning && bb.isBranch() && bb.succs.size() != 2)
                ++result.prune_skipped_nary;
            unsigned feasible_mask = ~0u;
            if (prunable) {
                std::uint64_t digest =
                    FeasibilityContext::factsDigest(facts);
                for (std::size_t i = 0; i < 2; ++i) {
                    if (feas.edgeFeasible(block, *bb.branch_cond,
                                          i == 0, facts, digest))
                        continue;
                    feasible_mask &= ~(1u << i);
                    ++result.pruned_edges;
                    // Note the pruned edge on the popped path's trail
                    // before forking: every surviving sibling path
                    // carries the evidence that its twin was cut.
                    if (witness_on)
                        trail.addStep(
                            support::WitnessStep{
                                "path", "pruned", bb.branch_cond->loc,
                                prunedEdgeNote(bb, i)},
                            witness_cap);
                }
            }
            std::size_t last_live = bb.succs.size();
            for (std::size_t i = 0; i < bb.succs.size(); ++i)
                if (feasible_mask >> i & 1u)
                    last_live = i;
            for (std::size_t i = 0; i < bb.succs.size(); ++i) {
                if (!(feasible_mask >> i & 1u))
                    continue; // contradicts the path's facts
                // The popped path is dead after this loop, so the last
                // surviving successor steals its state and facts instead
                // of copying them — one fewer deep copy per non-branch
                // block, which is most of a walk.
                const bool steal = i == last_live;
                State next_state = steal ? std::move(state) : state;
                PathFacts next_facts;
                if (pruning) {
                    if (steal)
                        next_facts = std::move(facts);
                    else
                        next_facts = facts;
                }
                support::WitnessTrail next_trail(false);
                if (witness_on) {
                    if (steal)
                        next_trail = std::move(trail);
                    else
                        next_trail = trail;
                }
                if (prunable)
                    feas.applyEdge(*bb.branch_cond, i == 0, next_facts);
                if (bb.isBranch() && hooks_.on_branch)
                    hooks_.on_branch(next_state, *bb.branch_cond, i);
                if (next_state.dead())
                    continue;
                f_block.push_back(bb.succs[i]);
                f_state.push_back(std::move(next_state));
                if (pruning)
                    f_facts.push_back(std::move(next_facts));
                if (witness_on)
                    f_trail.push_back(std::move(next_trail));
            }
        }
        result.prune_cache_hits = feas.cacheHits();
        publishUnitStats(result);
        return result;
    }

  private:
    /** Deterministic annotation for a pruned edge's witness step. */
    static std::string
    prunedEdgeNote(const cfg::BasicBlock& bb, std::size_t edge)
    {
        return "infeasible edge to block " +
               std::to_string(bb.succs[edge]) + ": branch cannot be " +
               (edge == 0 ? "true" : "false") +
               " given earlier branches on this path";
    }

    /**
     * Fold this walk's tallies into the thread's active per-unit ledger
     * accumulator, if any (installed by the unit runners), and into the
     * walker.* metrics (walker.visits sums what the ledger's unit
     * events report). One TLS load and one enabled check per walk;
     * nothing per visit.
     */
    static void
    publishUnitStats(const Result& result)
    {
        if (support::LedgerUnitStats* stats =
                support::LedgerUnitStats::current()) {
            stats->visits += result.visits;
            stats->pruned_edges += result.pruned_edges;
            stats->prune_cache_hits += result.prune_cache_hits;
            stats->prune_skipped_nary += result.prune_skipped_nary;
        }
        support::MetricsRegistry& metrics =
            support::MetricsRegistry::global();
        if (metrics.enabled()) {
            metrics.counter("walker.visits").add(result.visits);
            metrics.counter("walker.infeasible_pruned")
                .add(result.pruned_edges);
            metrics.counter("walker.prune_cache_hits")
                .add(result.prune_cache_hits);
            metrics.counter("walker.prune_skipped_nary")
                .add(result.prune_skipped_nary);
        }
    }

    static_assert(
        std::is_same_v<decltype(std::declval<const State&>().key()),
                       std::uint32_t>,
        "PathWalker states key the visited set with a std::uint32_t");

    /**
     * Reusable per-thread walk buffers. The walker's fixed per-run cost
     * used to be dominated by first-touch heap allocations (the visited
     * slab plus four frontier columns); leasing them from thread-local
     * storage amortizes that across every walk a thread performs. Holds
     * no results — everything is cleared on checkout.
     */
    struct Scratch
    {
        std::vector<std::uint64_t> visited_slots;
        std::vector<int> f_block;
        std::vector<State> f_state;
        std::vector<PathFacts> f_facts;
        std::vector<support::WitnessTrail> f_trail;
        bool in_use = false;
    };

    /**
     * RAII checkout of the thread's Scratch. If a statement hook
     * re-enters walk() on the same thread (no current client does), the
     * nested lease falls back to a fresh heap-allocated Scratch, so
     * reuse is an optimization that can never alias two live walks.
     */
    class ScratchLease
    {
      public:
        ScratchLease()
        {
            Scratch& tls = threadScratch();
            if (!tls.in_use) {
                tls.in_use = true;
                scratch_ = &tls;
                owned_ = false;
            } else {
                scratch_ = new Scratch();
                owned_ = true;
            }
            scratch_->f_block.clear();
            scratch_->f_state.clear();
            scratch_->f_facts.clear();
            scratch_->f_trail.clear();
        }

        ScratchLease(const ScratchLease&) = delete;
        ScratchLease& operator=(const ScratchLease&) = delete;

        ~ScratchLease()
        {
            if (owned_)
                delete scratch_;
            else
                scratch_->in_use = false;
        }

        Scratch* operator->() const { return scratch_; }

      private:
        static Scratch&
        threadScratch()
        {
            static thread_local Scratch s;
            return s;
        }

        Scratch* scratch_;
        bool owned_;
    };

    /**
     * Open-addressing set of 64-bit visited keys: one flat allocation
     * and linear probing instead of a node per (block, state) — the
     * walker's busiest data structure. All-ones is the empty-slot
     * sentinel; it is unreachable for exact integral keys (block ids
     * are non-negative ints), and a key that hashes to it is remapped,
     * which on the digest path is just another hash collision.
     */
    class VisitedSet
    {
      public:
        /**
         * Borrows `slots` (normally the thread Scratch's slab) as
         * backing storage. A small slab from the previous walk is wiped
         * and reused in place; one that grew past 4096 slots is
         * released so a single huge function does not tax every later
         * walk on this thread with a proportionally large clear.
         */
        explicit VisitedSet(std::vector<std::uint64_t>& slots)
            : slots_(slots)
        {
            if (slots_.size() > 4096)
                std::vector<std::uint64_t>().swap(slots_);
            else
                std::fill(slots_.begin(), slots_.end(), kEmpty);
        }

        /** True if `key` was newly inserted, false if already present. */
        bool
        insert(std::uint64_t key)
        {
            if (key == kEmpty)
                key = 0x9e3779b97f4a7c15ull;
            if ((count_ + 1) * 4 > slots_.size() * 3)
                grow();
            std::size_t mask = slots_.size() - 1;
            std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
            while (slots_[i] != kEmpty) {
                if (slots_[i] == key)
                    return false;
                i = (i + 1) & mask;
            }
            slots_[i] = key;
            ++count_;
            return true;
        }

      private:
        static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

        /** splitmix64 finalizer: spreads packed (block << 32 | state)
         *  keys, whose low bits alone are highly regular. */
        static std::uint64_t
        mix(std::uint64_t x)
        {
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ull;
            x ^= x >> 27;
            x *= 0x94d049bb133111ebull;
            x ^= x >> 31;
            return x;
        }

        void
        grow()
        {
            std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
            std::vector<std::uint64_t> old = std::move(slots_);
            slots_.assign(cap, kEmpty);
            std::size_t mask = cap - 1;
            for (std::uint64_t key : old) {
                if (key == kEmpty)
                    continue;
                std::size_t i =
                    static_cast<std::size_t>(mix(key)) & mask;
                while (slots_[i] != kEmpty)
                    i = (i + 1) & mask;
                slots_[i] = key;
            }
        }

        std::vector<std::uint64_t>& slots_;
        std::size_t count_ = 0;
    };

    /**
     * The visited-set key for an entry. Without pruning it packs exactly
     * into (block << 32) | key — membership is collision-free, so the
     * engine's semantic counters (visits, cache_hits, transitions) are
     * exact, not probabilistic. A walk with pruning enabled, whose key
     * must also encode the path's branch outcomes and value
     * constraints, uses a 64-bit FNV-1a digest.
     */
    std::uint64_t
    visitedKey(int block, const State& state,
               const PathFacts& facts) const
    {
        if (options_.prune_strategy == PruneStrategy::Off)
            return (static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(block))
                    << 32) |
                   state.key();
        support::Fnv1a h;
        h.u64(static_cast<std::uint64_t>(block));
        h.u64(state.key());
        h.u64(FeasibilityContext::factsDigest(facts));
        return h.value();
    }

    /** Bytes a pending path pins: its frontier row (one slot in each
     *  parallel array), the facts' heap (outcome vector plus constraint
     *  store), the witness trail's bounded payload, and the visited-set
     *  slot. */
    static std::size_t
    entryBytes(const PathFacts& facts, const support::WitnessTrail& trail)
    {
        return sizeof(int) + sizeof(State) + sizeof(PathFacts) +
               sizeof(support::WitnessTrail) + sizeof(std::uint64_t) +
               facts.outcomes.capacity() * sizeof(Outcomes::value_type) +
               facts.constraints.heapBytes() + trail.heapBytes();
    }

    Hooks hooks_;
    WalkOptions options_;
};

} // namespace mc::metal

#endif // MCHECK_METAL_PATH_WALKER_H
