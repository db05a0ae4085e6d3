#ifndef MCBENCH_SPAN_LOG_H
#define MCBENCH_SPAN_LOG_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mcbench {

/** One timed interval at a layer boundary of one request. */
struct Span
{
    std::string name;
    /** The src/ module the call belongs to ("bench" for the request). */
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, -1 for a request root. */
    int parent = -1;
    std::uint64_t request = 0;
    /**
     * The duration came from one of the program's own timers and the span
     * is laid out inside its parent, not clocked here.
     */
    bool program_timer = false;
};

/**
 * In-memory span store of the traced run. Spans are opened and closed
 * around the benchmark's calls into each layer, nest by call order, stay
 * in memory, and are written as Chrome trace JSON when the run ends.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span as a child of the innermost open span. */
    int open(std::string name, std::string layer, std::uint64_t request);
    void close(int id);

    /**
     * Record a closed child of `parent` whose duration a program timer
     * measured. Such children are laid out back to back from the parent's
     * start, clamped to its end.
     */
    int addTimed(int parent, std::string name, std::string layer,
                 std::int64_t dur_ns);

    const std::vector<Span>& spans() const { return spans_; }

    std::int64_t durationNs(int id) const
    {
        return spans_[id].end_ns - spans_[id].start_ns;
    }

    /** Each span's duration minus the part its children cover. */
    std::vector<std::int64_t> selfTimes() const;

    void writeChromeJson(std::ostream& os) const;

  private:
    std::int64_t now() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    /** Where the next program-timed child of each span starts. */
    std::vector<std::int64_t> cursor_;
    std::vector<int> open_;
};

} // namespace mcbench

#endif // MCBENCH_SPAN_LOG_H
