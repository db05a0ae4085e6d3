#include "span_log.h"

#include <algorithm>
#include <ostream>

namespace mcbench {

std::int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanLog::open(std::string name, std::string layer, std::uint64_t request)
{
    Span span;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start_ns = now();
    spans_.push_back(std::move(span));
    cursor_.push_back(spans_.back().start_ns);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanLog::close(int id)
{
    spans_[id].end_ns = now();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

int
SpanLog::addTimed(int parent, std::string name, std::string layer,
                  std::int64_t dur_ns)
{
    Span span;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.parent = parent;
    span.request = spans_[parent].request;
    span.program_timer = true;
    span.start_ns = std::min(cursor_[parent], spans_[parent].end_ns);
    span.end_ns = std::min(span.start_ns + std::max<std::int64_t>(dur_ns, 0),
                           spans_[parent].end_ns);
    cursor_[parent] = span.end_ns;
    spans_.push_back(std::move(span));
    cursor_.push_back(spans_.back().start_ns);
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t>
SpanLog::selfTimes() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = durationNs(static_cast<int>(i));
    for (const Span& span : spans_)
        if (span.parent >= 0)
            self[span.parent] -= span.end_ns - span.start_ns;
    return self;
}

namespace {

void
writeEscaped(std::ostream& os, const std::string& s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // namespace

void
SpanLog::writeChromeJson(std::ostream& os) const
{
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        os << (i == 0 ? "\n" : ",\n") << "{\"name\": ";
        writeEscaped(os, span.name);
        os << ", \"cat\": ";
        writeEscaped(os, span.layer);
        os << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << span.start_ns / 1000.0
           << ", \"dur\": " << (span.end_ns - span.start_ns) / 1000.0
           << ", \"args\": {\"request\": " << span.request
           << ", \"parent\": ";
        writeEscaped(os, span.parent >= 0 ? spans_[span.parent].name : "");
        os << ", \"program_timer\": "
           << (span.program_timer ? "true" : "false") << "}}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

} // namespace mcbench
