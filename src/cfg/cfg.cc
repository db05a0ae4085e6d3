#include "cfg/cfg.h"

#include <cassert>
#include <map>
#include <sstream>
#include <stdexcept>

namespace mc::cfg {

using namespace mc::lang;

/**
 * Stateful CFG construction walker. `current_` is the open block receiving
 * statements; control-flow statements seal it and open new blocks.
 * A sealed value of -1 means the current position is unreachable (after a
 * return/break/goto); statements there still get a block so they are
 * visible to checkers, but it has no predecessor. Statements collect in
 * `appended_` with their blocks and are lowered into the Cfg's rows once
 * the graph is complete.
 */
class BuilderImpl
{
  public:
    explicit BuilderImpl(const FunctionDecl& fn)
    {
        cfg_.function = &fn;
        cfg_.entry_ = newBlock();
        current_ = cfg_.entry_;
        walkStmt(*fn.body);
        cfg_.exit_ = newBlock();
        // Fall-off-the-end: link the last open block to exit.
        if (current_ >= 0)
            addEdge(current_, cfg_.exit_);
        for (int ret : return_blocks_)
            addEdge(ret, cfg_.exit_);
        patchGotos();
        cfg_.flat_ =
            FlatCfg(static_cast<std::uint32_t>(cfg_.blocks_.size()),
                    appended_);
    }

    Cfg take() { return std::move(cfg_); }

  private:
    int
    newBlock()
    {
        int id = static_cast<int>(cfg_.blocks_.size());
        BasicBlock bb;
        bb.id = id;
        cfg_.blocks_.push_back(std::move(bb));
        return id;
    }

    BasicBlock& block(int id)
    {
        return cfg_.blocks_[static_cast<std::size_t>(id)];
    }

    void
    addEdge(int from, int to)
    {
        block(from).succs.push_back(to);
        block(to).preds.push_back(from);
    }

    /** Append a simple statement to the current block. */
    void
    appendStmt(const Stmt& stmt)
    {
        if (current_ < 0) {
            // Unreachable code still gets a block (checkers see it, as the
            // paper's checkers did for unreachable handler paths).
            current_ = newBlock();
        }
        addStmt(current_, stmt);
    }

    void
    addStmt(int id, const Stmt& stmt)
    {
        appended_.emplace_back(static_cast<std::uint32_t>(id), &stmt);
    }

    void
    walkStmt(const Stmt& stmt)
    {
        switch (stmt.skind) {
          case StmtKind::Compound: {
            const auto& s = static_cast<const CompoundStmt&>(stmt);
            for (const Stmt* child : s.stmts)
                walkStmt(*child);
            return;
          }
          case StmtKind::Expr:
          case StmtKind::Decl:
          case StmtKind::Empty:
            appendStmt(stmt);
            return;
          case StmtKind::If:
            walkIf(static_cast<const IfStmt&>(stmt));
            return;
          case StmtKind::While:
            walkWhile(static_cast<const WhileStmt&>(stmt));
            return;
          case StmtKind::DoWhile:
            walkDoWhile(static_cast<const DoWhileStmt&>(stmt));
            return;
          case StmtKind::For:
            walkFor(static_cast<const ForStmt&>(stmt));
            return;
          case StmtKind::Switch:
            walkSwitch(static_cast<const SwitchStmt&>(stmt));
            return;
          case StmtKind::Case:
          case StmtKind::Default:
            // Case markers outside the immediate switch body (deeply
            // nested) are treated as ordinary statements.
            appendStmt(stmt);
            return;
          case StmtKind::Break: {
            appendStmt(stmt);
            if (break_targets_.empty())
                throw std::runtime_error("'break' outside loop/switch");
            if (current_ >= 0)
                addEdge(current_, break_targets_.back());
            current_ = -1;
            return;
          }
          case StmtKind::Continue: {
            appendStmt(stmt);
            if (continue_targets_.empty())
                throw std::runtime_error("'continue' outside loop");
            if (current_ >= 0)
                addEdge(current_, continue_targets_.back());
            current_ = -1;
            return;
          }
          case StmtKind::Return: {
            appendStmt(stmt);
            if (current_ >= 0)
                return_blocks_.push_back(current_);
            current_ = -1;
            return;
          }
          case StmtKind::Goto: {
            appendStmt(stmt);
            if (current_ >= 0)
                pending_gotos_.emplace_back(
                    current_, static_cast<const GotoStmt&>(stmt).label);
            current_ = -1;
            return;
          }
          case StmtKind::Label: {
            const auto& s = static_cast<const LabelStmt&>(stmt);
            int target = newBlock();
            if (current_ >= 0)
                addEdge(current_, target);
            current_ = target;
            addStmt(current_, stmt);
            labels_[s.name] = target;
            return;
          }
        }
    }

    void
    walkIf(const IfStmt& stmt)
    {
        // The condition evaluates in the current block, which becomes a
        // branch: successor 0 = true edge, successor 1 = false edge.
        if (current_ < 0)
            current_ = newBlock();
        int head = current_;
        block(head).branch_cond = stmt.cond;
        addStmt(head, stmt);

        int then_entry = newBlock();
        addEdge(head, then_entry);
        current_ = then_entry;
        walkStmt(*stmt.then_branch);
        int then_out = current_;

        int else_out = -1;
        if (stmt.else_branch) {
            int else_entry = newBlock();
            addEdge(head, else_entry);
            current_ = else_entry;
            walkStmt(*stmt.else_branch);
            else_out = current_;
        }

        int join = newBlock();
        if (!stmt.else_branch)
            addEdge(head, join); // false edge skips the then branch
        if (then_out >= 0)
            addEdge(then_out, join);
        if (else_out >= 0)
            addEdge(else_out, join);
        current_ = join;
    }

    void
    walkWhile(const WhileStmt& stmt)
    {
        int head = newBlock();
        if (current_ >= 0)
            addEdge(current_, head);
        block(head).branch_cond = stmt.cond;
        addStmt(head, stmt);

        int exit = newBlock();
        int body = newBlock();
        addEdge(head, body); // true edge
        addEdge(head, exit); // false edge

        break_targets_.push_back(exit);
        continue_targets_.push_back(head);
        current_ = body;
        walkStmt(*stmt.body);
        if (current_ >= 0)
            addEdge(current_, head); // back edge
        break_targets_.pop_back();
        continue_targets_.pop_back();
        current_ = exit;
    }

    void
    walkDoWhile(const DoWhileStmt& stmt)
    {
        int body = newBlock();
        if (current_ >= 0)
            addEdge(current_, body);

        int cond = newBlock();
        int exit = newBlock();

        break_targets_.push_back(exit);
        continue_targets_.push_back(cond);
        current_ = body;
        walkStmt(*stmt.body);
        if (current_ >= 0)
            addEdge(current_, cond);
        break_targets_.pop_back();
        continue_targets_.pop_back();

        block(cond).branch_cond = stmt.cond;
        addStmt(cond, stmt);
        addEdge(cond, body); // true: loop again
        addEdge(cond, exit); // false
        current_ = exit;
    }

    void
    walkFor(const ForStmt& stmt)
    {
        if (stmt.init)
            walkStmt(*stmt.init);

        int head = newBlock();
        if (current_ >= 0)
            addEdge(current_, head);
        addStmt(head, stmt);

        int exit = newBlock();
        int body = newBlock();
        if (stmt.cond) {
            block(head).branch_cond = stmt.cond;
            addEdge(head, body);
            addEdge(head, exit);
        } else {
            addEdge(head, body); // for(;;): no exit edge from the head
        }

        int step = newBlock();
        break_targets_.push_back(exit);
        continue_targets_.push_back(step);
        current_ = body;
        walkStmt(*stmt.body);
        if (current_ >= 0)
            addEdge(current_, step);
        break_targets_.pop_back();
        continue_targets_.pop_back();

        // The step block re-runs the header.
        addEdge(step, head);
        current_ = exit;
    }

    void
    walkSwitch(const SwitchStmt& stmt)
    {
        if (current_ < 0)
            current_ = newBlock();
        int head = current_;
        block(head).branch_cond = stmt.cond;
        addStmt(head, stmt);

        int exit = newBlock();
        break_targets_.push_back(exit);

        bool has_default = false;
        current_ = -1;
        if (stmt.body && stmt.body->skind == StmtKind::Compound) {
            const auto& body = static_cast<const CompoundStmt&>(*stmt.body);
            for (const Stmt* child : body.stmts) {
                if (child->skind == StmtKind::Case ||
                    child->skind == StmtKind::Default) {
                    int arm = newBlock();
                    if (current_ >= 0)
                        addEdge(current_, arm); // fallthrough
                    addEdge(head, arm);
                    current_ = arm;
                    addStmt(arm, *child);
                    if (child->skind == StmtKind::Default)
                        has_default = true;
                } else {
                    walkStmt(*child);
                }
            }
        } else if (stmt.body) {
            walkStmt(*stmt.body);
        }
        if (current_ >= 0)
            addEdge(current_, exit);
        if (!has_default)
            addEdge(head, exit);
        break_targets_.pop_back();
        current_ = exit;
    }

    void
    patchGotos()
    {
        for (const auto& [from, label] : pending_gotos_) {
            auto it = labels_.find(label);
            if (it == labels_.end())
                throw std::runtime_error("goto to undefined label '" +
                                         std::string(label) + "'");
            addEdge(from, it->second);
        }
    }

    Cfg cfg_;
    std::vector<std::pair<std::uint32_t, const Stmt*>> appended_;
    int current_ = -1;
    std::vector<int> break_targets_;
    std::vector<int> continue_targets_;
    std::vector<int> return_blocks_;
    // Label names view the AST, which outlives the builder.
    std::vector<std::pair<int, std::string_view>> pending_gotos_;
    std::map<std::string_view, int> labels_;
};

Cfg
CfgBuilder::build(const FunctionDecl& fn)
{
    assert(fn.body && "cannot build a CFG for a prototype");
    BuilderImpl builder(fn);
    return builder.take();
}

std::vector<std::pair<int, int>>
Cfg::backEdges() const
{
    std::vector<std::pair<int, int>> back_edges;

    enum class Color { White, Grey, Black };
    std::vector<Color> color(blocks_.size(), Color::White);
    // Iterative DFS with explicit edge indices to avoid deep recursion on
    // generated protocols.
    std::vector<std::pair<int, std::size_t>> stack;
    stack.emplace_back(entry_, 0);
    color[static_cast<std::size_t>(entry_)] = Color::Grey;
    while (!stack.empty()) {
        auto& [node, edge] = stack.back();
        const BasicBlock& bb = blocks_[static_cast<std::size_t>(node)];
        if (edge >= bb.succs.size()) {
            color[static_cast<std::size_t>(node)] = Color::Black;
            stack.pop_back();
            continue;
        }
        int succ = bb.succs[edge++];
        Color c = color[static_cast<std::size_t>(succ)];
        if (c == Color::Grey) {
            back_edges.emplace_back(node, succ);
        } else if (c == Color::White) {
            color[static_cast<std::size_t>(succ)] = Color::Grey;
            stack.emplace_back(succ, 0);
        }
    }
    return back_edges;
}

std::string
Cfg::dump() const
{
    std::ostringstream os;
    os << "cfg " << (function ? function->name : "<null>") << " entry=B"
       << entry_ << " exit=B" << exit_ << '\n';
    for (const BasicBlock& bb : blocks_) {
        os << "  B" << bb.id << ':';
        if (bb.isBranch())
            os << " [branch " << lang::exprToString(*bb.branch_cond) << ']';
        os << " ->";
        for (int succ : bb.succs)
            os << " B" << succ;
        os << '\n';
        for (const lang::Stmt* stmt : flat_.stmts(bb.id))
            os << "    " << lang::stmtToString(*stmt) << '\n';
    }
    return os.str();
}

} // namespace mc::cfg
