#include "lang/program.h"

#include "lang/fingerprint.h"
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
Program::parseUnit(std::int32_t id, std::uint64_t* fingerprint)
{
    TranslationUnit tu;
    try {
        Lexer lexer(sm_, id, &symbols_.spellings);
        support::ScopedTimer lex_timer(langTimer("lang.lex"));
        std::vector<Token> tokens = lexer.lexAll();
        lex_timer.stop();
        if (fingerprint)
            *fingerprint = tokenStreamFingerprint(
                sm_.fileName(id), lexer.source(), tokens, lexer.directives());
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
    const std::size_t before = functions_.size();
    indexFunctions(stored);
    unit_definitions_.push_back(functions_.size() - before);
    if (functions_.size() != before)
        ++definition_names_version_;
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
    std::uint64_t fingerprint = 0;
    units_[slot] = parseUnit(id, &fingerprint);
    TranslationUnit& stored = units_[slot];
    runSema(stored);
    // Replacing the unit emptied its memo; what the parse's own tokens
    // hash to is exactly what a re-lex would compute. A recovered unit
    // gets no fingerprint either way.
    stored.fingerprint.value.store(fingerprint, std::memory_order_relaxed);
    reindexUnit(slot);
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
Program::reindexUnit(std::size_t slot)
{
    // functions_ lists each unit's definitions together, in slot order,
    // so the unit's old definitions are one run of it.
    std::size_t first = 0;
    for (std::size_t i = 0; i < slot; ++i)
        first += unit_definitions_[i];
    const auto begin = functions_.begin() + static_cast<std::ptrdiff_t>(first);
    const std::vector<const FunctionDecl*> old(
        begin, begin + static_cast<std::ptrdiff_t>(unit_definitions_[slot]));
    const std::vector<const FunctionDecl*> fresh =
        units_[slot].functionDefinitions();
    functions_.erase(begin, begin + static_cast<std::ptrdiff_t>(old.size()));
    functions_.insert(functions_.begin() + static_cast<std::ptrdiff_t>(first),
                      fresh.begin(), fresh.end());
    unit_definitions_[slot] = fresh.size();

    const std::int32_t file_id = units_[slot].file_id;
    // A name's latest definition wins. File ids grow with slots (each
    // addSource registers a new file), so a definition's file id tells
    // whether its unit comes before or after this one.
    auto rebind = [&](support::SymbolId sym) {
        const FunctionDecl* winner = by_name_.find(sym);
        if (winner && winner->loc.file_id > file_id)
            return;
        for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
            if ((*it)->sym == sym) {
                by_name_.set(sym, *it);
                return;
            }
        }
        if (!winner || winner->loc.file_id < file_id)
            return;
        // The unit no longer defines a name it held the latest
        // definition of: an earlier unit's, if any, takes over.
        const FunctionDecl* earlier = nullptr;
        for (std::size_t i = first; i-- > 0;) {
            if (functions_[i]->sym == sym) {
                earlier = functions_[i];
                break;
            }
        }
        by_name_.set(sym, earlier);
    };
    bool same_names = old.size() == fresh.size();
    for (std::size_t i = 0; i < old.size(); ++i) {
        rebind(old[i]->sym);
        same_names = same_names && old[i]->sym == fresh[i]->sym;
    }
    for (const FunctionDecl* fn : fresh)
        rebind(fn->sym);
    if (!same_names)
        ++definition_names_version_;
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
