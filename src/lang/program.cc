#include "lang/program.h"

#include "support/metrics.h"

namespace mc::lang {

namespace {

/** The "lang.parse" timer when --metrics is on, else null. */
support::Timer*
parseTimer()
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    return metrics.enabled() ? &metrics.timer("lang.parse") : nullptr;
}

} // namespace

void
Program::publishArenaMetrics() const
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (!metrics.enabled())
        return;
    metrics.gauge("lang.ast_nodes").observe(ctx_.nodeCount());
    metrics.gauge("lang.arena_bytes").observe(ctx_.arenaBytes());
}

TranslationUnit
Program::parseUnit(std::int32_t id)
{
    TranslationUnit tu;
    try {
        Lexer lexer(sm_, id);
        std::vector<Token> tokens = lexer.lexAll();
        ParserOptions options;
        options.recover = recover_;
        Parser parser(ctx_, std::move(tokens), &symbols_, options);
        tu = parser.parseTranslationUnit(id);
        tu.directives = lexer.directives();
    } catch (const LexError& err) {
        if (!recover_)
            throw;
        // The token stream is unusable; the whole unit becomes one
        // poisoned region so downstream phases see the file existed.
        tu = TranslationUnit{};
        tu.file_id = id;
        auto* poison = ctx_.make<PoisonedDecl>();
        poison->loc = err.loc();
        poison->error_loc = err.loc();
        poison->end_loc = err.loc();
        poison->message = ctx_.copyText(err.what());
        tu.decls.push_back(poison);
        tu.issues.push_back(ParseIssue{err.loc(), err.what(), "lex-error"});
    }
    return tu;
}

TranslationUnit&
Program::addSource(std::string name, std::string source)
{
    support::ScopedTimer timer(parseTimer());
    std::int32_t id = sm_.addFile(std::move(name), std::move(source));
    units_.push_back(parseUnit(id));
    TranslationUnit& stored = units_.back();
    sema_.run(stored);
    for (const FunctionDecl* fn : stored.functionDefinitions()) {
        functions_.push_back(fn);
        by_name_.insert_or_assign(std::string(fn->name), fn);
    }
    timer.stop();
    publishArenaMetrics();
    return stored;
}

TranslationUnit*
Program::updateSource(const std::string& name, std::string source)
{
    std::int32_t id = sm_.findFile(name);
    if (id < 0)
        return nullptr;
    std::size_t slot = units_.size();
    for (std::size_t i = 0; i < units_.size(); ++i) {
        if (units_[i].file_id == id) {
            slot = i;
            break;
        }
    }
    if (slot == units_.size())
        return nullptr;
    support::ScopedTimer timer(parseTimer());
    arena_waste_ += sm_.fileContents(id).size();
    if (!sm_.replaceFile(id, std::move(source)))
        return nullptr;
    units_[slot] = parseUnit(id);
    TranslationUnit& stored = units_[slot];
    sema_.run(stored);
    reindexFunctions();
    timer.stop();
    publishArenaMetrics();
    return &stored;
}

void
Program::reindexFunctions()
{
    functions_.clear();
    by_name_.clear();
    // Slot order is addition order, so the rebuilt index matches what a
    // fresh program built from the same file list would produce.
    for (TranslationUnit& unit : units_) {
        for (const FunctionDecl* fn : unit.functionDefinitions()) {
            functions_.push_back(fn);
            by_name_.insert_or_assign(std::string(fn->name), fn);
        }
    }
}

bool
Program::degraded() const
{
    for (const TranslationUnit& unit : units_)
        if (!unit.issues.empty())
            return true;
    return false;
}

const FunctionDecl*
Program::findFunction(std::string_view name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

} // namespace mc::lang
