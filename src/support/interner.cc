#include "support/interner.h"

#include <cassert>
#include <mutex>

namespace mc::support {

SymbolInterner&
SymbolInterner::global()
{
    static SymbolInterner instance;
    return instance;
}

SymbolId
SymbolInterner::intern(std::string_view name)
{
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = ids_.find(name);
        if (it != ids_.end())
            return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Double-check: another thread may have interned it between locks.
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    SymbolId id = static_cast<SymbolId>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(std::string_view(names_.back()), id);
    return id;
}

std::optional<SymbolId>
SymbolInterner::lookup(std::string_view name) const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = ids_.find(name);
    if (it == ids_.end())
        return std::nullopt;
    return it->second;
}

std::string_view
SymbolInterner::name(SymbolId id) const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    assert(id < names_.size() && "unknown SymbolId");
    if (id >= names_.size())
        return {};
    return names_[id];
}

std::size_t
SymbolInterner::size() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return names_.size();
}

SpellingTable::Resolved
SpellingTable::insert(std::string_view spelling, std::uint64_t hash)
{
    SymbolInterner& interner = SymbolInterner::global();
    SymbolId id = interner.intern(spelling);
    std::string_view stable = interner.name(id);
    place(Entry{hash, stable, id, 0});
    names_.set(id, stable);
    return {id, 0};
}

void
SpellingTable::reserve(std::string_view spelling, std::uint8_t word)
{
    assert(word != 0 && "class 0 marks a name");
    place(Entry{spellingHash(spelling), spelling, kInvalidSymbol, word});
    ++reserved_;
}

void
SpellingTable::place(const Entry& e)
{
    if ((used_ + 1) * 2 > entries_.size())
        grow();
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = e.hash & mask;
    while (!empty(entries_[i]))
        i = (i + 1) & mask;
    entries_[i] = e;
    ++used_;
}

void
SpellingTable::grow()
{
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.empty() ? 1024 : old.size() * 2, Entry{});
    const std::size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
        if (empty(e))
            continue;
        std::size_t i = e.hash & mask;
        while (!empty(entries_[i]))
            i = (i + 1) & mask;
        entries_[i] = e;
    }
}

} // namespace mc::support
