#include "cache/analysis_cache.h"

#include "support/fault_injection.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/version.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace fs = std::filesystem;

namespace mc::cache {

namespace {

/**
 * Percent-encode `s` so it fits in one space-separated field: anything
 * outside a conservative identifier/punctuation set (including '%', ' ',
 * and newlines) becomes %XX. Empty strings encode as "%" so every field
 * stays non-empty for the line parser.
 */
std::string
encodeField(std::string_view s)
{
    if (s.empty())
        return "%";
    static const char* hex = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                     c == ',' || c == ':' || c == '/' || c == '-';
        if (plain) {
            out.push_back(static_cast<char>(c));
        } else {
            out.push_back('%');
            out.push_back(hex[c >> 4]);
            out.push_back(hex[c & 0xf]);
        }
    }
    return out;
}

bool
decodeField(std::string_view s, std::string& out)
{
    out.clear();
    if (s == "%")
        return true;
    auto hexVal = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    };
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out.push_back(s[i]);
            continue;
        }
        if (i + 2 >= s.size())
            return false;
        int hi = hexVal(s[i + 1]);
        int lo = hexVal(s[i + 2]);
        if (hi < 0 || lo < 0)
            return false;
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
    }
    return true;
}

/** Cursor over the encoded entry; hands out '\n'-terminated lines. */
struct LineCursor
{
    std::string_view text;
    std::size_t pos = 0;

    bool
    nextLine(std::string_view& line)
    {
        if (pos >= text.size())
            return false;
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            return false; // entries always end in '\n'; treat as truncated
        line = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }
};

std::vector<std::string_view>
splitFields(std::string_view line)
{
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < line.size()) {
        std::size_t j = line.find(' ', i);
        if (j == std::string_view::npos)
            j = line.size();
        if (j > i)
            out.push_back(line.substr(i, j - i));
        i = j + 1;
    }
    return out;
}

bool
parseInt(std::string_view s, long long& out)
{
    if (s.empty())
        return false;
    long long value = 0;
    std::size_t i = 0;
    bool neg = s[0] == '-';
    if (neg)
        i = 1;
    if (i >= s.size())
        return false;
    for (; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9')
            return false;
        value = value * 10 + (s[i] - '0');
        if (value < 0)
            return false; // overflow
    }
    out = neg ? -value : value;
    return true;
}

/**
 * Pre-register every cache.* metric so a metrics report always carries
 * the full set — a warm run's "cache.misses": 0 is a statement, not an
 * omission. The "cache.lookup" timer is fed by the unit runners' phase
 * 0, which only runs with a cache open.
 */
void
registerCacheMetrics()
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (!metrics.enabled())
        return;
    for (const char* name :
         {"cache.hits", "cache.misses", "cache.stores", "cache.corrupt",
          "cache.evictions", "cache.bytes_read", "cache.bytes_written"})
        metrics.counter(name).add(0);
    metrics.timer("cache.lookup");
}

} // namespace

AnalysisCache::AnalysisCache(std::string dir, bool readonly)
    : dir_(std::move(dir)), readonly_(readonly)
{
    std::error_code ec;
    if (!readonly_)
        fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_, ec))
        throw std::runtime_error("cannot open cache directory '" + dir_ +
                                 "'" + (ec ? ": " + ec.message() : ""));
    registerCacheMetrics();
}

AnalysisCache::AnalysisCache(MemoryTag) : dir_("<memory>"), memory_(true)
{
    registerCacheMetrics();
}

std::unique_ptr<AnalysisCache>
AnalysisCache::inMemory()
{
    return std::unique_ptr<AnalysisCache>(new AnalysisCache(MemoryTag{}));
}

std::uint64_t
AnalysisCache::entryCount() const
{
    if (memory_) {
        std::lock_guard<std::mutex> lock(mem_mu_);
        return mem_.size();
    }
    std::uint64_t n = 0;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec)
        return 0;
    for (fs::directory_iterator end; it != end; it.increment(ec)) {
        if (ec)
            break;
        if (it->path().extension() == ".mcu")
            ++n;
    }
    return n;
}

std::uint64_t
AnalysisCache::residentBytes() const
{
    if (!memory_)
        return 0;
    std::lock_guard<std::mutex> lock(mem_mu_);
    std::uint64_t total = 0;
    for (const auto& [key, entry] : mem_)
        total += entry.bytes;
    return total;
}

std::string
AnalysisCache::entryPath(std::uint64_t key) const
{
    return dir_ + "/" + support::hashHex(key) + ".mcu";
}

void
AnalysisCache::warn(std::string message)
{
    std::lock_guard<std::mutex> lock(warnings_mu_);
    warnings_.push_back(std::move(message));
}

void
AnalysisCache::countMiss(bool corrupt_entry, std::uint64_t key,
                         const std::string& reason)
{
    misses_.fetch_add(1, std::memory_order_relaxed);
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled())
        metrics.counter("cache.misses").add();
    if (!corrupt_entry)
        return;
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    if (metrics.enabled())
        metrics.counter("cache.corrupt").add();
    const std::string path = entryPath(key);
    warn("cache entry " + path + " is unusable (" + reason +
         "); re-analyzing");
    // A bad entry would fail every future lookup too; drop it so the
    // next store rewrites a good one. Readonly mode preserves evidence.
    if (!readonly_) {
        std::error_code ec;
        fs::remove(path, ec);
    }
}

void
AnalysisCache::countHit(std::uint64_t bytes)
{
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter("cache.hits").add();
        metrics.counter("cache.bytes_read").add(bytes);
    }
}

std::shared_ptr<const CachedUnit>
AnalysisCache::lookup(std::uint64_t key)
{
    // I/O faults are contained right here: a failed read is exactly a
    // corrupt-entry miss, so the caller re-analyzes and the run's output
    // is unaffected. The injected variant follows the same path.
    try {
        support::fault::probe("cache.lookup", support::hashHex(key));
    } catch (const support::InjectedFault& f) {
        if (memory_) {
            std::lock_guard<std::mutex> lock(mem_mu_);
            mem_.erase(key);
        }
        countMiss(true, key, f.what());
        return nullptr;
    }
    if (memory_) {
        // Entries were validated when stored, so a hit is a pointer copy.
        std::shared_ptr<const CachedUnit> unit;
        std::uint64_t bytes = 0;
        {
            std::lock_guard<std::mutex> lock(mem_mu_);
            auto it = mem_.find(key);
            if (it != mem_.end()) {
                unit = it->second.unit;
                bytes = it->second.bytes;
            }
        }
        if (!unit) {
            countMiss(false, key, "");
            return nullptr;
        }
        countHit(bytes);
        return unit;
    }
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in) {
        countMiss(false, key, "");
        return nullptr;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof()) {
        countMiss(true, key, "read error");
        return nullptr;
    }
    std::string text = buffer.str();

    auto unit = std::make_shared<CachedUnit>();
    std::string error;
    if (!decodeUnit(text, *unit, error)) {
        countMiss(true, key, error);
        return nullptr;
    }
    countHit(text.size());
    return unit;
}

void
AnalysisCache::store(std::uint64_t key, const CachedUnit& unit)
{
    if (readonly_)
        return;
    const std::string path = entryPath(key);
    // A failed publish only costs the next run a re-analysis; contain it
    // here (like the real short-write/rename failures below) so checking
    // continues undisturbed.
    try {
        support::fault::probe("cache.store", support::hashHex(key));
    } catch (const support::InjectedFault& f) {
        warn("cache entry " + path + " not stored (" + f.what() + ")");
        return;
    }
    if (memory_) {
        // Keep what a disk round trip would yield, checked once here
        // instead of on every hit.
        const std::string text = encodeUnit(unit);
        const std::uint64_t size = text.size();
        auto decoded = std::make_shared<CachedUnit>();
        std::string error;
        if (!decodeUnit(text, *decoded, error)) {
            warn("cache entry " + path + " not stored (" + error + ")");
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mem_mu_);
            mem_[key] = {mem_seq_++, size, std::move(decoded)};
        }
        stores_.fetch_add(1, std::memory_order_relaxed);
        bytes_written_.fetch_add(size, std::memory_order_relaxed);
        support::MetricsRegistry& metrics =
            support::MetricsRegistry::global();
        if (metrics.enabled()) {
            metrics.counter("cache.stores").add();
            metrics.counter("cache.bytes_written").add(size);
        }
        return;
    }
    const std::string tmp = path + ".tmp";
    const std::string text = encodeUnit(unit);
    {
        std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
        if (!outf) {
            warn("cannot write cache entry " + tmp);
            return;
        }
        outf << text;
        if (!outf.good()) {
            warn("short write for cache entry " + tmp);
            std::error_code ec;
            fs::remove(tmp, ec);
            return;
        }
    }
    // Rename-into-place keeps concurrent readers (and interrupted runs)
    // from ever observing a partially written entry.
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("cannot publish cache entry " + path + ": " + ec.message());
        fs::remove(tmp, ec);
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(text.size(), std::memory_order_relaxed);
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.counter("cache.stores").add();
        metrics.counter("cache.bytes_written").add(text.size());
    }
}

void
AnalysisCache::trim(std::uint64_t max_bytes)
{
    if (readonly_)
        return;
    if (memory_) {
        // Oldest-stored entries go first, mirroring the disk tier's
        // oldest-mtime policy with an exact (not timestamp-granular)
        // insertion order.
        support::MetricsRegistry& metrics =
            support::MetricsRegistry::global();
        std::lock_guard<std::mutex> lock(mem_mu_);
        std::uint64_t total = 0;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> by_age;
        for (const auto& [key, entry] : mem_) {
            total += entry.bytes;
            by_age.emplace_back(entry.seq, key);
        }
        std::sort(by_age.begin(), by_age.end());
        for (const auto& [seq, key] : by_age) {
            if (total <= max_bytes)
                break;
            auto it = mem_.find(key);
            total -= it->second.bytes;
            mem_.erase(it);
            evictions_.fetch_add(1, std::memory_order_relaxed);
            if (metrics.enabled())
                metrics.counter("cache.evictions").add();
        }
        return;
    }
    struct Entry
    {
        fs::path path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    // A second process (or thread) may be publishing and evicting
    // concurrently, so every filesystem step tolerates entries appearing
    // and vanishing mid-scan: stat failures skip the entry, an iterator
    // error ends the scan with whatever was collected, and a remove that
    // loses the race still counts the bytes as gone.
    fs::directory_iterator it(dir_, ec);
    if (ec)
        return;
    for (fs::directory_iterator end; it != end; it.increment(ec)) {
        if (ec)
            break;
        const fs::directory_entry& de = *it;
        if (de.path().extension() != ".mcu")
            continue;
        std::error_code sec;
        std::uint64_t size = de.file_size(sec);
        if (sec)
            continue;
        fs::file_time_type mtime = de.last_write_time(sec);
        if (sec)
            continue;
        entries.push_back({de.path(), size, mtime});
        total += size;
    }
    if (total <= max_bytes)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    for (const Entry& entry : entries) {
        if (total <= max_bytes)
            break;
        std::error_code rec;
        bool removed = fs::remove(entry.path, rec);
        if (removed) {
            evictions_.fetch_add(1, std::memory_order_relaxed);
            if (metrics.enabled())
                metrics.counter("cache.evictions").add();
        } else if (rec) {
            // Couldn't remove and it still exists (permissions?): its
            // bytes remain, keep evicting others.
            continue;
        }
        // Removed by us or already gone (ENOENT race with a concurrent
        // trimmer): either way those bytes no longer count.
        total -= entry.size;
    }
}

CacheStats
AnalysisCache::stats() const
{
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.corrupt = corrupt_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    return s;
}

std::vector<std::string>
AnalysisCache::takeWarnings()
{
    std::lock_guard<std::mutex> lock(warnings_mu_);
    std::vector<std::string> out = std::move(warnings_);
    warnings_.clear();
    return out;
}

std::string
AnalysisCache::encodeUnit(const CachedUnit& unit)
{
    std::ostringstream os;
    os << "mccheck-cache " << kCacheFormatVersion << ' '
       << support::kToolVersion << '\n';
    os << "checker " << encodeField(unit.checker) << '\n';
    os << "function " << encodeField(unit.function) << '\n';
    os << "state " << unit.state.size() << '\n';
    os << unit.state << '\n';
    os << "diags " << unit.diags.size() << '\n';
    for (const CachedDiagnostic& d : unit.diags) {
        os << "diag " << d.severity << ' ' << d.line << ' ' << d.column
           << ' ' << d.trace.size() << ' ' << d.wsteps.size() << ' '
           << d.wblocks.size() << ' ' << (d.wtruncated ? 1 : 0) << ' '
           << encodeField(d.file) << ' ' << encodeField(d.checker) << ' '
           << encodeField(d.rule) << ' ' << encodeField(d.message)
           << '\n';
        for (const std::string& frame : d.trace)
            os << "trace " << encodeField(frame) << '\n';
        for (const CachedWitnessStep& s : d.wsteps)
            os << "wstep " << s.line << ' ' << s.column << ' '
               << encodeField(s.from) << ' ' << encodeField(s.to) << ' '
               << encodeField(s.file) << ' ' << encodeField(s.note)
               << '\n';
        for (int block : d.wblocks)
            os << "wblock " << block << '\n';
    }
    std::string body = os.str();
    return body + "sum " + support::hashHex(support::fnv1a(body)) + "\n";
}

bool
AnalysisCache::decodeUnit(const std::string& text, CachedUnit& out,
                          std::string& error)
{
    // Verify the checksum over everything before the final "sum " line
    // first: it catches truncation and bit flips in one test and lets the
    // field parser below assume structurally intact input.
    if (text.empty() || text.back() != '\n') {
        error = "truncated entry";
        return false;
    }
    std::size_t sum_pos = text.rfind("sum ", text.size() - 1);
    // The sum line must be the last line and start at a line boundary.
    if (sum_pos == std::string::npos ||
        (sum_pos != 0 && text[sum_pos - 1] != '\n')) {
        error = "missing checksum";
        return false;
    }
    std::string_view sum_line(text.data() + sum_pos,
                              text.size() - sum_pos - 1);
    if (text.find('\n', sum_pos) != text.size() - 1) {
        error = "trailing data after checksum";
        return false;
    }
    std::string body = text.substr(0, sum_pos);
    std::string expected =
        "sum " + support::hashHex(support::fnv1a(body));
    if (std::string(sum_line) != expected) {
        error = "checksum mismatch";
        return false;
    }

    LineCursor cursor{body, 0};
    std::string_view line;

    if (!cursor.nextLine(line)) {
        error = "empty entry";
        return false;
    }
    auto header = splitFields(line);
    long long format = 0;
    if (header.size() != 3 || header[0] != "mccheck-cache" ||
        !parseInt(header[1], format)) {
        error = "bad header";
        return false;
    }
    if (format != kCacheFormatVersion) {
        error = "cache format version mismatch";
        return false;
    }
    if (header[2] != support::kToolVersion) {
        error = "tool version mismatch";
        return false;
    }

    auto field_line = [&](std::string_view tag,
                          std::string& value) -> bool {
        if (!cursor.nextLine(line))
            return false;
        auto fields = splitFields(line);
        return fields.size() == 2 && fields[0] == tag &&
               decodeField(fields[1], value);
    };

    out = CachedUnit();
    if (!field_line("checker", out.checker) ||
        !field_line("function", out.function)) {
        error = "bad identity fields";
        return false;
    }

    if (!cursor.nextLine(line)) {
        error = "missing state";
        return false;
    }
    auto state_fields = splitFields(line);
    long long state_size = 0;
    if (state_fields.size() != 2 || state_fields[0] != "state" ||
        !parseInt(state_fields[1], state_size) || state_size < 0 ||
        cursor.pos + static_cast<std::size_t>(state_size) + 1 >
            body.size()) {
        error = "bad state header";
        return false;
    }
    out.state = body.substr(cursor.pos,
                            static_cast<std::size_t>(state_size));
    cursor.pos += static_cast<std::size_t>(state_size);
    if (cursor.pos >= body.size() || body[cursor.pos] != '\n') {
        error = "bad state terminator";
        return false;
    }
    ++cursor.pos;

    if (!cursor.nextLine(line)) {
        error = "missing diags header";
        return false;
    }
    auto diag_header = splitFields(line);
    long long ndiags = 0;
    if (diag_header.size() != 2 || diag_header[0] != "diags" ||
        !parseInt(diag_header[1], ndiags) || ndiags < 0) {
        error = "bad diags header";
        return false;
    }
    for (long long i = 0; i < ndiags; ++i) {
        if (!cursor.nextLine(line)) {
            error = "missing diag line";
            return false;
        }
        auto f = splitFields(line);
        long long sev = 0, dline = 0, dcol = 0, ntrace = 0;
        long long nsteps = 0, nblocks = 0, wtrunc = 0;
        CachedDiagnostic d;
        if (f.size() != 12 || f[0] != "diag" || !parseInt(f[1], sev) ||
            !parseInt(f[2], dline) || !parseInt(f[3], dcol) ||
            !parseInt(f[4], ntrace) || ntrace < 0 ||
            !parseInt(f[5], nsteps) || nsteps < 0 ||
            !parseInt(f[6], nblocks) || nblocks < 0 ||
            !parseInt(f[7], wtrunc) || wtrunc < 0 || wtrunc > 1 ||
            sev < 0 || sev > 2 || !decodeField(f[8], d.file) ||
            !decodeField(f[9], d.checker) || !decodeField(f[10], d.rule) ||
            !decodeField(f[11], d.message)) {
            error = "bad diag line";
            return false;
        }
        d.severity = static_cast<int>(sev);
        d.line = static_cast<int>(dline);
        d.column = static_cast<int>(dcol);
        d.wtruncated = wtrunc != 0;
        for (long long t = 0; t < ntrace; ++t) {
            if (!cursor.nextLine(line)) {
                error = "missing trace line";
                return false;
            }
            auto tf = splitFields(line);
            std::string frame;
            if (tf.size() != 2 || tf[0] != "trace" ||
                !decodeField(tf[1], frame)) {
                error = "bad trace line";
                return false;
            }
            d.trace.push_back(std::move(frame));
        }
        for (long long s = 0; s < nsteps; ++s) {
            if (!cursor.nextLine(line)) {
                error = "missing wstep line";
                return false;
            }
            auto sf = splitFields(line);
            long long sline = 0, scol = 0;
            CachedWitnessStep step;
            if (sf.size() != 7 || sf[0] != "wstep" ||
                !parseInt(sf[1], sline) || !parseInt(sf[2], scol) ||
                !decodeField(sf[3], step.from) ||
                !decodeField(sf[4], step.to) ||
                !decodeField(sf[5], step.file) ||
                !decodeField(sf[6], step.note)) {
                error = "bad wstep line";
                return false;
            }
            step.line = static_cast<int>(sline);
            step.column = static_cast<int>(scol);
            d.wsteps.push_back(std::move(step));
        }
        for (long long b = 0; b < nblocks; ++b) {
            if (!cursor.nextLine(line)) {
                error = "missing wblock line";
                return false;
            }
            auto bf = splitFields(line);
            long long block = 0;
            if (bf.size() != 2 || bf[0] != "wblock" ||
                !parseInt(bf[1], block)) {
                error = "bad wblock line";
                return false;
            }
            d.wblocks.push_back(static_cast<int>(block));
        }
        out.diags.push_back(std::move(d));
    }
    if (cursor.pos != body.size()) {
        error = "trailing data";
        return false;
    }
    return true;
}

CachedDiagnostic
AnalysisCache::toCached(const support::Diagnostic& diag,
                        const support::SourceManager& sm)
{
    CachedDiagnostic out;
    out.severity = static_cast<int>(diag.severity);
    out.file = sm.fileName(diag.loc.file_id);
    out.line = diag.loc.line;
    out.column = diag.loc.column;
    out.checker = diag.checker;
    out.rule = diag.rule;
    out.message = diag.message;
    out.trace = diag.trace;
    out.wtruncated = diag.witness.truncated;
    out.wblocks = diag.witness.blocks;
    for (const support::WitnessStep& step : diag.witness.steps) {
        CachedWitnessStep cs;
        cs.from = step.from_state;
        cs.to = step.to_state;
        cs.file = sm.fileName(step.loc.file_id);
        cs.line = step.loc.line;
        cs.column = step.loc.column;
        cs.note = step.note;
        out.wsteps.push_back(std::move(cs));
    }
    return out;
}

bool
AnalysisCache::fromCached(
    const CachedDiagnostic& cached,
    const std::map<std::string, std::int32_t>& file_ids,
    support::Diagnostic& out)
{
    auto it = file_ids.find(cached.file);
    if (it == file_ids.end())
        return false;
    // Resolve every witness-step file before mutating `out`: one
    // unresolvable name misses the whole unit rather than replaying a
    // finding with a mangled witness.
    support::Witness witness;
    witness.truncated = cached.wtruncated;
    witness.blocks = cached.wblocks;
    for (const CachedWitnessStep& cs : cached.wsteps) {
        auto sit = file_ids.find(cs.file);
        if (sit == file_ids.end())
            return false;
        support::WitnessStep step;
        step.from_state = cs.from;
        step.to_state = cs.to;
        step.loc = support::SourceLoc{sit->second, cs.line, cs.column};
        step.note = cs.note;
        witness.steps.push_back(std::move(step));
    }
    out.severity = static_cast<support::Severity>(cached.severity);
    out.loc = support::SourceLoc{it->second, cached.line, cached.column};
    out.checker = cached.checker;
    out.rule = cached.rule;
    out.message = cached.message;
    out.trace = cached.trace;
    out.witness = std::move(witness);
    return true;
}

std::map<std::string, std::int32_t>
AnalysisCache::fileIdsByName(const support::SourceManager& sm)
{
    std::map<std::string, std::int32_t> out;
    // Id 0 is the "<unknown>" synthesized-location sentinel; real files
    // are 1..fileCount(). First registration wins on duplicate names,
    // matching how names render in diagnostics.
    for (std::int32_t id = 0; id <= sm.fileCount(); ++id)
        out.emplace(sm.fileName(id), id);
    return out;
}

} // namespace mc::cache
