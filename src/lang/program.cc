#include "lang/program.h"

#include "support/metrics.h"

namespace mc::lang {

namespace {

/** The named frontend timer when --metrics is on, else null. */
support::Timer*
langTimer(const char* name)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    return metrics.enabled() ? &metrics.timer(name) : nullptr;
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
        Lexer lexer(sm_, id, &symbols_.spellings);
        support::ScopedTimer lex_timer(langTimer("lang.lex"));
        std::vector<Token> tokens = lexer.lexAll();
        lex_timer.stop();
        ParserOptions options;
        options.recover = recover_;
        Parser parser(ctx_, lexer.source(), std::move(tokens), &symbols_,
                      options);
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
    support::ScopedTimer timer(langTimer("lang.parse"));
    std::int32_t id = sm_.addFile(std::move(name), std::move(source));
    units_.push_back(parseUnit(id));
    TranslationUnit& stored = units_.back();
    runSema(stored);
    indexFunctions(stored);
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
    support::ScopedTimer timer(langTimer("lang.parse"));
    arena_waste_ += sm_.fileContents(id).size();
    if (!sm_.replaceFile(id, std::move(source)))
        return nullptr;
    units_[slot] = parseUnit(id);
    TranslationUnit& stored = units_[slot];
    runSema(stored);
    reindexFunctions();
    timer.stop();
    publishArenaMetrics();
    return &stored;
}

void
Program::runSema(TranslationUnit& unit)
{
    support::ScopedTimer timer(langTimer("lang.sema"));
    sema_.run(unit);
}

void
Program::reindexFunctions()
{
    functions_.clear();
    by_name_ = support::SymbolMap<const FunctionDecl*>(nullptr);
    // Slot order is addition order, so the rebuilt index matches what a
    // fresh program built from the same file list would produce.
    for (const TranslationUnit& unit : units_)
        indexFunctions(unit);
}

void
Program::indexFunctions(const TranslationUnit& unit)
{
    for (const Decl* d : unit.decls) {
        if (d->dkind != DeclKind::Function)
            continue;
        const auto* fn = static_cast<const FunctionDecl*>(d);
        if (!fn->isDefinition())
            continue;
        functions_.push_back(fn);
        by_name_.set(fn->sym, fn); // a later definition wins
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
    std::optional<support::SymbolId> sym =
        support::SymbolInterner::global().lookup(name);
    return sym ? by_name_.find(*sym) : nullptr;
}

} // namespace mc::lang
