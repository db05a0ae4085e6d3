#ifndef MCHECK_CFG_CFG_H
#define MCHECK_CFG_CFG_H

#include "cfg/flat_cfg.h"
#include "lang/ast.h"

#include <string>
#include <utility>
#include <vector>

namespace mc::cfg {

/**
 * A basic block: a straight-line run of statements with branching only at
 * the end.
 *
 * Its statements (expression statements, declarations, returns, case
 * markers...) are its rows of the function's FlatCfg, in execution order:
 * `flatCfg(cfg).stmts(id)`. If the block ends in a conditional branch,
 * `branch_cond` is the controlling expression and the first successor is
 * the true edge, the second the false edge. Switch heads have one
 * successor per case (plus default/join last).
 */
struct BasicBlock
{
    int id = -1;
    const lang::Expr* branch_cond = nullptr;
    std::vector<int> succs;
    std::vector<int> preds;

    bool isBranch() const { return branch_cond != nullptr; }
};

/**
 * Control-flow graph of one function, complete and immutable once
 * CfgBuilder::build returns it: the blocks and, lowered in the same
 * build, the statement rows (flatCfg()). Nothing is filled in later, so
 * any number of threads may read one Cfg.
 *
 * There is exactly one entry block and one synthetic exit block; every
 * return statement's block has an edge to the exit block. Blocks are
 * indexed densely by id.
 */
class Cfg
{
  public:
    const lang::FunctionDecl* function = nullptr;

    int entryId() const { return entry_; }
    int exitId() const { return exit_; }

    int blockCount() const { return static_cast<int>(blocks_.size()); }

    const BasicBlock& block(int id) const
    {
        return blocks_[static_cast<std::size_t>(id)];
    }

    const std::vector<BasicBlock>& blocks() const { return blocks_; }

    /**
     * Edges (from, to) that close a cycle in a depth-first traversal from
     * the entry block. Computed on each call.
     */
    std::vector<std::pair<int, int>> backEdges() const;

    /** Render as text for tests: one line per block with successors. */
    std::string dump() const;

  private:
    friend class BuilderImpl;
    friend const FlatCfg& flatCfg(const Cfg& cfg);

    int entry_ = 0;
    int exit_ = 0;
    std::vector<BasicBlock> blocks_;
    FlatCfg flat_;
};

/**
 * The function's statement rows (flat_cfg.h), lowered by the build. The
 * reference lives as long as the Cfg.
 */
inline const FlatCfg&
flatCfg(const Cfg& cfg)
{
    return cfg.flat_;
}

/**
 * Builds a Cfg from a function definition.
 *
 * Supports the full dialect statement set. `goto` targets may appear
 * before or after the jump. Case/Default markers split blocks inside the
 * lexically-immediate compound body of a switch.
 */
class CfgBuilder
{
  public:
    /** Build the CFG for `fn` (which must be a definition). */
    static Cfg build(const lang::FunctionDecl& fn);
};

} // namespace mc::cfg

#endif // MCHECK_CFG_CFG_H
