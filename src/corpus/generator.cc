#include "corpus/generator.h"

#include "support/rng.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <string_view>

namespace mc::corpus {

using flash::HandlerKind;
using support::Rng;

namespace {

// -------------------------------------------------------------------------
// Code writer
// -------------------------------------------------------------------------

/**
 * Indented line-oriented source emitter that counts emitted lines. Every
 * piece is appended in place to one buffer: a line is either whole
 * (`line`, `open`, `close`) or assembled as begin() put()/num()/var()...
 * end() (or endOpen() for a block head).
 */
class CodeWriter
{
  public:
    void
    line(std::string_view text)
    {
        begin().put(text).end();
    }

    void
    open(std::string_view head)
    {
        begin().put(head).endOpen();
    }

    void
    close(std::string_view tail = "}")
    {
        --indent_;
        line(tail);
    }

    /** Start a line: its indentation. */
    CodeWriter&
    begin()
    {
        out_.append(static_cast<std::size_t>(indent_) * 4, ' ');
        return *this;
    }

    CodeWriter&
    put(std::string_view text)
    {
        out_.append(text);
        return *this;
    }

    CodeWriter&
    num(std::int64_t value)
    {
        char digits[24];
        char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
        out_.append(digits, end);
        return *this;
    }

    /** The local `t<index>`. */
    CodeWriter&
    var(std::int64_t index)
    {
        out_ += 't';
        return num(index);
    }

    /** Finish the line begun with begin(). */
    void
    end()
    {
        out_ += '\n';
        ++lines_;
    }

    /** Finish the line begun with begin() as a block head. */
    void
    endOpen()
    {
        put(" {").end();
        ++indent_;
    }

    int lines() const { return lines_; }

    /** Start a new file; the buffer keeps its capacity. */
    void
    clear()
    {
        out_.clear();
        indent_ = 0;
        lines_ = 0;
    }

    /**
     * The text, copied to its exact size. Moving the grown buffer out
     * would keep its slack alive for as long as the source lives.
     */
    std::string take() const { return out_; }

  private:
    std::string out_;
    int indent_ = 0;
    int lines_ = 0;
};

// -------------------------------------------------------------------------
// Plans
// -------------------------------------------------------------------------

/** The mutations a handler can carry (at most a few per handler). */
enum class SeedKind : std::uint8_t
{
    RaceError,
    RaceFp,
    MsglenError,
    MsglenFpPair,
    BmDoubleFree,
    BmLeak,
    BmMinor,
    BmUseful,
    BmUseless,
    MaybeFree,
    LanesError,
    HookMissing,
    HookMinor,
    AllocFp,
    DirError,
    DirFpSub,
    DirFpSpec,
    DirFpAbs,
    SendWaitFp,
};

struct HandlerPlan
{
    std::string name;
    HandlerKind kind = HandlerKind::Normal;
    bool passthru = false;
    bool giant = false;
    int target_lines = 60;
    int branches = 2;
    int vars = 3;

    int reads = 0;
    int send_segments = 0;
    int dir_segments = 0;
    int alloc_segments = 0;
    int sendwait_segments = 0;
    /** Calls a non-sending recursive helper (fixed-point exercise). */
    bool calls_recursive_helper = false;

    std::vector<SeedKind> seeds;

    bool
    has(SeedKind kind) const
    {
        return std::find(seeds.begin(), seeds.end(), kind) != seeds.end();
    }
};

/** Handler name pieces, combined deterministically. */
const char* const kIfaces[] = {"PI", "NI", "IO"};
const char* const kScopes[] = {"Local", "Remote"};
const char* const kOps[] = {"Get",     "GetX",   "Put",     "PutX",
                            "Inval",   "Ack",    "Nak",     "Upgrade",
                            "WB",      "Replace", "UncRead", "UncWrite",
                            "Sharing", "IORead"};

std::string
handlerName(int index)
{
    int iface = index % 3;
    int scope = (index / 3) % 2;
    int op = (index / 6) % 14;
    int round = index / (3 * 2 * 14);
    std::string name = std::string(kIfaces[iface]) + kScopes[scope] +
                       kOps[op];
    if (round > 0)
        name += std::to_string(round + 1);
    return name;
}

/** Opcodes and the lane each is assigned to. */
const std::pair<const char*, int> kOpcodeLanes[] = {
    {"MSG_GET", 0},   {"MSG_PUT", 1},     {"MSG_ACK", 2},
    {"MSG_NAK", 2},   {"MSG_INVAL", 3},   {"MSG_UPGRADE", 0},
    {"MSG_WB", 1},    {"MSG_IACK", 3},
};
constexpr int kOpcodeCount = 8;

// -------------------------------------------------------------------------
// Emitter
// -------------------------------------------------------------------------

/**
 * Emits one function according to its plan, appending seeded-site records
 * to the ledger and lane-usage counts for the protocol spec.
 */
class FunctionEmitter
{
  public:
    FunctionEmitter(const ProtocolProfile& profile, const HandlerPlan& plan,
                    Rng rng, Ledger& ledger, CodeWriter& writer)
        : profile_(profile), plan_(plan), rng_(rng), ledger_(ledger),
          w_(writer)
    {
        w_.clear();
    }

    /** Per-lane NI sends emitted directly in this function. */
    const std::array<int, flash::kLaneCount>& laneSends() const
    {
        return lane_sends_;
    }

    std::string
    emit()
    {
        w_.begin()
            .put("/* ")
            .put(profile_.name)
            .put(" protocol: ")
            .put(flash::handlerKindName(plan_.kind))
            .put(plan_.kind == HandlerKind::Normal ? " routine */"
                                                   : " handler */")
            .end();
        w_.begin().put("void ").put(plan_.name).put("(void)").endOpen();
        emitHooks();
        if (plan_.has(SeedKind::HookMinor)) {
            // Unimplemented stub: the fatal call is the whole body.
            w_.close();
            return w_.take();
        }
        emitDecls();

        if (plan_.passthru) {
            emitPassthruBody();
            w_.close();
            return w_.take();
        }

        // Work items are spread through the body with filler between
        // them; the writer's line count drives filler volume.
        emitSeededPreamble();
        int items = workItemCount();
        int emitted_items = 0;
        while (emitted_items < items || w_.lines() < plan_.target_lines - 4) {
            if (emitted_items < items) {
                // Space items evenly across the remaining line budget.
                int remaining_lines =
                    plan_.target_lines - 4 - w_.lines();
                int remaining_items = items - emitted_items;
                int filler = remaining_items > 0
                                 ? std::max(0, remaining_lines /
                                                   (remaining_items + 1) -
                                                   8)
                                 : remaining_lines;
                emitFiller(filler);
                emitWorkItem(emitted_items++);
            } else {
                emitFiller(plan_.target_lines - 4 - w_.lines());
                break;
            }
        }
        emitEnding();
        w_.close();
        return w_.take();
    }

  private:
    void
    seed(std::string_view checker, std::string_view rule, SeedClass cls,
         std::string_view description,
         std::string_view handler_override = {})
    {
        SeededItem item;
        item.protocol = profile_.name;
        item.handler =
            handler_override.empty() ? plan_.name : handler_override;
        item.checker = checker;
        item.rule = rule;
        item.cls = cls;
        item.description = description;
        ledger_.add(std::move(item));
    }

    // ---- structural pieces ---------------------------------------------

    void
    emitHooks()
    {
        if (plan_.has(SeedKind::HookMinor)) {
            // Unimplemented routine: no hook, fatal body (sci's three
            // uncounted violations).
            seed("exec_restrict", "missing-hook", SeedClass::Minor,
                 "unimplemented routine without simulation hook");
            w_.line("FATAL_ERROR();");
            return;
        }
        bool skip = plan_.has(SeedKind::HookMissing);
        if (skip)
            seed("exec_restrict", "missing-hook", SeedClass::Violation,
                 "simulation hook omitted");
        switch (plan_.kind) {
          case HandlerKind::Hardware:
            if (!skip) {
                w_.line("HANDLER_DEFS();");
                w_.line("HANDLER_PROLOGUE();");
            }
            break;
          case HandlerKind::Software:
            if (!skip) {
                w_.line("SWHANDLER_DEFS();");
                w_.line("SWHANDLER_PROLOGUE();");
            }
            break;
          case HandlerKind::Normal:
            if (!skip)
                w_.line("PROC_HOOK();");
            break;
        }
    }

    void
    emitDecls()
    {
        if (plan_.has(SeedKind::HookMinor))
            return; // fatal stub declares nothing
        nvars_ = std::max(plan_.vars, 2);
        // t0 derives from the incoming message so run-time behavior is
        // message-dependent (the simulator exercises different paths per
        // message); the rest are plain locals.
        w_.line("int t0 = MSG_WORD0();");
        for (int i = 1; i < nvars_; ++i)
            w_.begin()
                .put("int ")
                .var(i)
                .put(" = ")
                .num(rng_.range(0, 31))
                .put(";")
                .end();
        if (plan_.alloc_segments > 0)
            w_.line("int db = 0;");
        if (plan_.has(SeedKind::MsglenFpPair))
            w_.line("int use_data = t0 & 1;");
    }

    /** The index of any local, for reads. */
    std::int64_t
    tvar()
    {
        return rng_.range(0, nvars_ - 1);
    }

    /**
     * The index of a local that may be overwritten. t0 carries the
     * message payload and is kept read-only by filler so seeded
     * rare-path guards stay message-dependent at run time.
     */
    std::int64_t
    mutvar()
    {
        if (nvars_ <= 1)
            return 0;
        return rng_.range(1, nvars_ - 1);
    }

    // A statement that draws from rng_ more than once binds every draw to
    // a local first, last operand first. That is the order in which GCC
    // evaluated the unsequenced operands of the `operator+` chains these
    // statements once were, and the pinned corpus depends on it; named
    // locals make it the same under every conforming compiler.

    void
    emitFiller(int lines)
    {
        for (int i = 0; i < lines; ++i) {
            switch (rng_.below(4)) {
              case 0: {
                std::int64_t addend = rng_.range(1, 9);
                std::int64_t src = tvar();
                std::int64_t dst = mutvar();
                w_.begin()
                    .var(dst)
                    .put(" = ")
                    .var(src)
                    .put(" + ")
                    .num(addend)
                    .put(";")
                    .end();
                break;
              }
              case 1: {
                std::int64_t shift = rng_.range(1, 4);
                std::int64_t rhs = tvar();
                std::int64_t lhs = tvar();
                std::int64_t dst = mutvar();
                w_.begin()
                    .var(dst)
                    .put(" = ")
                    .var(lhs)
                    .put(" ^ (")
                    .var(rhs)
                    .put(" << ")
                    .num(shift)
                    .put(");")
                    .end();
                break;
              }
              case 2: {
                // The mask is printed in decimal after "0x": the corpus
                // has always read that way.
                std::int64_t mask = rng_.range(1, 255);
                std::int64_t src = tvar();
                std::int64_t dst = mutvar();
                w_.begin()
                    .var(dst)
                    .put(" = (")
                    .var(src)
                    .put(" >> 1) & 0x")
                    .num(mask)
                    .put(";")
                    .end();
                break;
              }
              default: {
                std::int64_t rhs = tvar();
                std::int64_t lhs = tvar();
                std::int64_t dst = mutvar();
                w_.begin()
                    .var(dst)
                    .put(" = ")
                    .var(lhs)
                    .put(" - ")
                    .var(rhs)
                    .put(";")
                    .end();
                break;
              }
            }
        }
    }

    /** A path-doubling branch block of roughly `lines` total lines. */
    void
    emitBranchBlock(int lines)
    {
        int half = std::max(1, (lines - 3) / 2);
        std::int64_t bound = rng_.range(2, 13);
        std::int64_t var = tvar();
        w_.begin()
            .put("if (")
            .var(var)
            .put(" > ")
            .num(bound)
            .put(")")
            .endOpen();
        emitFiller(half);
        w_.close();
        w_.open("else");
        emitFiller(half);
        w_.close();
    }

    // ---- protocol segments ----------------------------------------------

    void
    emitReadSegment(bool race_bug)
    {
        if (!race_bug) {
            w_.line("WAIT_FOR_DB_FULL(t0);");
            w_.line("MISCBUS_READ_DB(t0, t1);");
            return;
        }
        // The seeded race: an unsynchronized read on a rare corner-case
        // path (the paper's bugs hid in exactly such corners — the
        // static checker still sees the path, the simulator rarely
        // takes it).
        w_.open("if ((t0 & 7) == 5)");
        w_.line("MISCBUS_READ_DB(t0, t1);");
        w_.close();
    }

    /** len/has-data pairs cycled deterministically. */
    void
    emitSendSegment(int variant, bool mismatch)
    {
        static const struct
        {
            const char* len;
            const char* flag;
        } kPairs[] = {
            {"LEN_CACHELINE", "F_DATA"},
            {"LEN_WORD", "F_DATA"},
            {"LEN_NODATA", "F_NODATA"},
        };
        const auto& pair = kPairs[variant % 3];
        const char* flag = pair.flag;
        if (mismatch) {
            // Swap the has-data flag against the length assignment, on a
            // rare path (uncached reads with a full queue, in the paper).
            bool has_data = std::string_view(pair.flag) == "F_DATA";
            flag = has_data ? "F_NODATA" : "F_DATA";
            seed("msglen_check",
                 has_data ? "nodata-send-nonzero-len" : "data-send-zero-len",
                 SeedClass::Error, "length/has-data mismatch");
            w_.begin()
                .put("HANDLER_GLOBALS(header.nh.len) = ")
                .put(pair.len)
                .put(";")
                .end();
            w_.open("if ((t0 & 15) == 9)");
            w_.begin()
                .put("PI_SEND(")
                .put(flag)
                .put(", F_KEEP, F_SWAP, F_NOWAIT, F_DEC, F_NULL);")
                .end();
            w_.close();
            return;
        }
        w_.begin()
            .put("HANDLER_GLOBALS(header.nh.len) = ")
            .put(pair.len)
            .put(";")
            .end();
        switch (variant % 3) {
          case 0: {
            const char* opcode =
                kOpcodeLanes[static_cast<std::size_t>(
                                 rng_.below(kOpcodeCount))]
                    .first;
            emitNiSend(opcode, flag, "F_NOWAIT");
            break;
          }
          case 1:
            w_.begin()
                .put("PI_SEND(")
                .put(flag)
                .put(", F_KEEP, F_SWAP, F_NOWAIT, F_DEC, F_NULL);")
                .end();
            break;
          default:
            w_.begin()
                .put("IO_SEND(")
                .put(flag)
                .put(", F_KEEP, F_SWAP, F_NOWAIT, F_DEC, F_NULL);")
                .end();
            break;
        }
    }

    void
    emitNiSend(std::string_view opcode, std::string_view flag,
               std::string_view wait)
    {
        w_.begin()
            .put("NI_SEND(")
            .put(opcode)
            .put(", ")
            .put(flag)
            .put(", F_KEEP, ")
            .put(wait)
            .put(", F_DEC, F_NULL);")
            .end();
        for (int i = 0; i < kOpcodeCount; ++i)
            if (opcode == kOpcodeLanes[i].first)
                ++lane_sends_[static_cast<std::size_t>(
                    kOpcodeLanes[i].second)];
    }

    void
    emitDirSegment(SeedKind special)
    {
        switch (special) {
          case SeedKind::DirError:
            // Real bug: modified entry never written back.
            seed("dir_check", "missing-writeback", SeedClass::Error,
                 "genuine missing directory writeback");
            w_.line("DIR_LOAD();");
            w_.line("t1 = DIR_READ(state);");
            w_.line("DIR_WRITE(state, DIRTY);");
            return;
          case SeedKind::DirFpSpec:
            // Speculative modify, backs out without a NAK: flagged,
            // triaged as FP.
            seed("dir_check", "missing-writeback", SeedClass::FalsePositive,
                 "speculative back-out without NAK");
            w_.line("DIR_LOAD();");
            w_.line("DIR_WRITE(state, PENDING);");
            w_.begin().put("if (").var(tvar()).put(" > 9)").endOpen();
            if (plan_.kind == HandlerKind::Hardware)
                w_.line("FREE_DB();");
            w_.line("return;");
            w_.close();
            w_.line("DIR_WRITEBACK();");
            return;
          case SeedKind::DirFpAbs:
            // Abstraction error: entry address computed manually, so the
            // checker never sees a DIR_LOAD.
            seed("dir_check", "use-before-load", SeedClass::FalsePositive,
                 "manual directory address computation");
            w_.line("t2 = DIR_BASE + (t0 << 3);");
            w_.line("t1 = DIR_READ(state);");
            w_.line("DIR_WRITEBACK();");
            return;
          default:
            break;
        }
        // The common correct shape.
        w_.line("DIR_LOAD();");
        w_.line("t1 = DIR_READ(state);");
        w_.open("if (t1 == DIRTY)");
        w_.line("DIR_WRITE(state, CLEAN);");
        w_.line("DIR_WRITEBACK();");
        w_.close();
    }

    void
    emitAllocSegment(bool debug_fp)
    {
        w_.line("db = ALLOCATE_DB();");
        if (debug_fp) {
            seed("alloc_check", "unchecked-alloc", SeedClass::FalsePositive,
                 "debug print of buffer before failure check");
            w_.line("DEBUG_PRINT(db);");
        }
        w_.open("if (db == 0)");
        w_.line("return;");
        w_.close();
        w_.line("MISCBUS_WRITE_DB(t0, t1);");
        w_.line("FREE_DB();");
    }

    void
    emitSendWaitSegment(bool raw_poll_fp)
    {
        bool pi = rng_.chance(1, 2);
        w_.line("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;");
        w_.begin()
            .put(pi ? "PI_SEND" : "IO_SEND")
            .put("(F_NODATA, F_KEEP, F_SWAP, F_WAIT, F_DEC, F_NULL);")
            .end();
        if (raw_poll_fp) {
            // Abstraction-barrier violation: the handler waits by polling
            // the status register directly, invisibly to the checker.
            seed("send_wait", "missing-wait", SeedClass::FalsePositive,
                 "raw status-register poll instead of wait macro");
            w_.begin()
                .put("while (")
                .put(pi ? "PI_STATUS_REG()" : "IO_STATUS_REG()")
                .put(" == 0)")
                .endOpen();
            std::int64_t src = tvar();
            std::int64_t dst = tvar();
            w_.begin().var(dst).put(" = ").var(src).put(" + 1;").end();
            w_.close();
        } else {
            w_.line(pi ? "WAIT_FOR_PI_REPLY();" : "WAIT_FOR_IO_REPLY();");
        }
    }

    // ---- seeded special shapes -------------------------------------------

    /** Seeds that must appear early (before ordinary segments). */
    void
    emitSeededPreamble()
    {
        if (plan_.has(SeedKind::BmUseful)) {
            // Handoff path: deliberately keep the buffer for a subsequent
            // handler; the annotation documents it.
            seed("buffer_mgmt", "", SeedClass::UsefulAnnotation,
                 "no_free_needed on buffer-handoff path");
            w_.begin().put("if (").var(tvar()).put(" > 11)").endOpen();
            w_.line("no_free_needed();");
            w_.line("return;");
            w_.close();
        }
    }

    int
    workItemCount() const
    {
        int n = plan_.branches + plan_.reads + plan_.send_segments +
                plan_.dir_segments + plan_.alloc_segments +
                plan_.sendwait_segments;
        if (plan_.has(SeedKind::MsglenFpPair))
            ++n;
        if (plan_.has(SeedKind::BmDoubleFree) ||
            plan_.has(SeedKind::BmMinor))
            ++n;
        if ((plan_.has(SeedKind::DirError) ||
             plan_.has(SeedKind::DirFpSpec) ||
             plan_.has(SeedKind::DirFpAbs)) &&
            plan_.dir_segments == 0)
            ++n;
        if (plan_.has(SeedKind::LanesError))
            ++n;
        if (plan_.calls_recursive_helper)
            ++n;
        return n;
    }

    /**
     * Emit the `index`-th work item. Order: branches first (they spread
     * paths through the whole body), then segments, then seeded shapes.
     */
    void
    emitWorkItem(int index)
    {
        if (index < plan_.branches) {
            emitBranchBlock(10);
            return;
        }
        index -= plan_.branches;

        if (index < plan_.reads) {
            bool bug = plan_.has(SeedKind::RaceError) && index == 0;
            bool fp = plan_.has(SeedKind::RaceFp) && index == 0;
            if (bug)
                seed("wait_for_db", "buffer-not-synchronized",
                     SeedClass::Error, "read without fill synchronization");
            if (fp)
                seed("wait_for_db", "buffer-not-synchronized",
                     SeedClass::FalsePositive,
                     "intentional unsynchronized debug read");
            emitReadSegment(bug || fp);
            return;
        }
        index -= plan_.reads;

        if (index < plan_.send_segments) {
            bool mismatch =
                plan_.has(SeedKind::MsglenError) && index == 0;
            emitSendSegment(send_variant_++, mismatch);
            return;
        }
        index -= plan_.send_segments;

        if (index < plan_.dir_segments) {
            SeedKind special = SeedKind::HookMissing; // sentinel: none
            if (index == 0) {
                if (plan_.has(SeedKind::DirError))
                    special = SeedKind::DirError;
                else if (plan_.has(SeedKind::DirFpSpec))
                    special = SeedKind::DirFpSpec;
                else if (plan_.has(SeedKind::DirFpAbs))
                    special = SeedKind::DirFpAbs;
            }
            emitDirSegment(special);
            return;
        }
        index -= plan_.dir_segments;

        if (index < plan_.alloc_segments) {
            bool fp = plan_.has(SeedKind::AllocFp) && index == 0;
            emitAllocSegment(fp);
            return;
        }
        index -= plan_.alloc_segments;

        if (index < plan_.sendwait_segments) {
            bool fp = plan_.has(SeedKind::SendWaitFp) && index == 0;
            emitSendWaitSegment(fp);
            return;
        }
        index -= plan_.sendwait_segments;

        // Seeded one-off shapes, in a fixed order.
        if (plan_.has(SeedKind::MsglenFpPair) && index-- == 0) {
            emitMsglenFpPair();
            return;
        }
        if ((plan_.has(SeedKind::BmDoubleFree) ||
             plan_.has(SeedKind::BmMinor)) &&
            index-- == 0) {
            emitConditionalEarlyFree();
            return;
        }
        if ((plan_.has(SeedKind::DirError) ||
             plan_.has(SeedKind::DirFpSpec) ||
             plan_.has(SeedKind::DirFpAbs)) &&
            plan_.dir_segments == 0 && index-- == 0) {
            if (plan_.has(SeedKind::DirError))
                emitDirSegment(SeedKind::DirError);
            else if (plan_.has(SeedKind::DirFpSpec))
                emitDirSegment(SeedKind::DirFpSpec);
            else
                emitDirSegment(SeedKind::DirFpAbs);
            return;
        }
        if (plan_.has(SeedKind::LanesError) && index-- == 0) {
            emitLanesBug();
            return;
        }
        if (plan_.calls_recursive_helper && index-- == 0) {
            w_.begin().put("retry_spin_").put(profile_.name).put("();").end();
            return;
        }
        emitFiller(1);
    }

    void
    emitMsglenFpPair()
    {
        // The coma shape: length chosen by the same run-time condition as
        // the send's has-data flag; 2 of the 4 static paths are
        // impossible, and the checker reports both.
        seed("msglen_check", "data-send-zero-len", SeedClass::FalsePositive,
             "run-time-correlated length/flag, impossible path");
        seed("msglen_check", "nodata-send-nonzero-len",
             SeedClass::FalsePositive,
             "run-time-correlated length/flag, impossible path");
        w_.open("if (use_data == 1)");
        w_.line("HANDLER_GLOBALS(header.nh.len) = LEN_WORD;");
        w_.close();
        w_.open("else");
        w_.line("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;");
        w_.close();
        emitFiller(4);
        w_.open("if (use_data == 1)");
        w_.line("PI_SEND(F_DATA, F_KEEP, F_SWAP, F_NOWAIT, F_DEC, "
                "F_NULL);");
        w_.close();
        w_.open("else");
        w_.line("PI_SEND(F_NODATA, F_KEEP, F_SWAP, F_NOWAIT, F_DEC, "
                "F_NULL);");
        w_.close();
    }

    /** Mid-body conditional free; the ending free makes it a double free. */
    void
    emitConditionalEarlyFree()
    {
        SeedClass cls = plan_.has(SeedKind::BmMinor)
                            ? SeedClass::Minor
                            : SeedClass::Error;
        seed("buffer_mgmt", "double-free", cls,
             "conditional early free shadowed by the unconditional "
             "ending free");
        w_.open("if ((t0 & 15) == 3)");
        w_.line("FREE_DB();");
        w_.close();
    }

    void
    emitLanesBug()
    {
        // One send here plus one in the helper on the same lane, with an
        // allowance of one (the generator caps this handler's allowance).
        // The violating send — and so the diagnostic — is in the helper.
        seed("lanes", "quota-exceeded", SeedClass::Error,
             "helper send exceeds the handler's lane allowance",
             "lanes_helper_" + profile_.name);
        w_.line("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;");
        emitNiSend("MSG_INVAL", "F_NODATA", "F_NOWAIT");
        w_.begin().put("lanes_helper_").put(profile_.name).put("();").end();
    }

    // ---- endings ----------------------------------------------------------

    void
    emitEnding()
    {
        if (plan_.has(SeedKind::HookMinor))
            return;

        if (plan_.has(SeedKind::MaybeFree)) {
            emitMaybeFreeEnding();
            return;
        }
        if (plan_.has(SeedKind::BmUseless)) {
            emitUselessAnnotationEnding();
            return;
        }
        if (plan_.has(SeedKind::BmLeak)) {
            seed("buffer_mgmt", "leak",
                 plan_.has(SeedKind::BmMinor) ? SeedClass::Minor
                                              : SeedClass::Error,
                 "rare path exits without freeing the buffer");
            w_.open("if ((t0 & 15) != 7)");
            w_.line("FREE_DB();");
            w_.line("return;");
            w_.close();
            // Fall through (one payload in sixteen): the low-grade leak
            // that "only deadlocks the system after several days".
            return;
        }

        bool holds_buffer = plan_.kind == HandlerKind::Hardware ||
                            is_freeing_helper_;
        if (holds_buffer)
            w_.line("FREE_DB();");
    }

    void
    emitMaybeFreeEnding()
    {
        // Silent with the Section 6.1 refinement; a 2-error cascade per
        // site without it (the ablation bench measures exactly this).
        // Deliberately NOT ledgered: with value-sensitivity these sites
        // need no annotation at all — that is the point of the
        // refinement.
        static const char* kHelpers[] = {"MAYBE_FREE_DB_A",
                                         "MAYBE_FREE_DB_B",
                                         "MAYBE_FREE_DB_C",
                                         "MAYBE_FREE_DB_D"};
        const char* helper =
            kHelpers[static_cast<std::size_t>(rng_.below(4))];
        w_.begin().put("if (").put(helper).put("())").endOpen();
        w_.begin().var(tvar()).put(" = 1;").end();
        w_.close();
        w_.open("else");
        w_.line("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;");
        emitNiSend("MSG_ACK", "F_NODATA", "F_NOWAIT");
        w_.line("FREE_DB();");
        w_.close();
    }

    void
    emitUselessAnnotationEnding()
    {
        // Data-dependent free in an unlisted helper: the checker cannot
        // see it, so the author silences the leak report. Needed only
        // because the analysis is imprecise — a "useless" annotation.
        seed("buffer_mgmt", "", SeedClass::UselessAnnotation,
             "suppression after data-dependent free helper");
        w_.begin().put("free_if_urgent_").put(profile_.name).put("();").end();
        w_.line("no_free_needed();");
    }

  public:
    /** Mark this function as a registered freeing helper. */
    void setFreeingHelper() { is_freeing_helper_ = true; }

  private:
    const ProtocolProfile& profile_;
    const HandlerPlan& plan_;
    Rng rng_;
    Ledger& ledger_;
    CodeWriter& w_;
    int nvars_ = 2;
    int send_variant_ = 0;
    bool is_freeing_helper_ = false;
    std::array<int, flash::kLaneCount> lane_sends_{0, 0, 0, 0};

    void
    emitPassthruBody()
    {
        // Pass-thru handlers: "1-3 instructions".
        w_.line("PASSTHRU_FORWARD(t0);");
        if (plan_.kind == HandlerKind::Hardware)
            w_.line("FREE_DB();");
    }
};

// -------------------------------------------------------------------------
// Protocol-level planning
// -------------------------------------------------------------------------

class ProtocolGenerator
{
  public:
    explicit ProtocolGenerator(const ProtocolProfile& profile)
        : profile_(profile), rng_(profile.seed)
    {}

    GeneratedProtocol
    run()
    {
        out_.name = profile_.name;
        out_.spec.name = profile_.name;
        for (int i = 0; i < kOpcodeCount; ++i)
            out_.spec.setLane(kOpcodeLanes[i].first, kOpcodeLanes[i].second);
        out_.spec.deprecated.insert("LEGACY_SEND");
        out_.spec.deprecated.insert("OLD_HEADER_SET");

        plan();
        emitAll();
        emitHelpers();
        return std::move(out_);
    }

  private:
    void
    distribute(int total, std::vector<HandlerPlan*>& eligible,
               int HandlerPlan::*field)
    {
        if (eligible.empty())
            return;
        for (int i = 0; i < total; ++i)
            eligible[static_cast<std::size_t>(i) % eligible.size()]
                ->*field += 1;
    }

    void
    plan()
    {
        int index = 0;
        auto make = [&](HandlerKind kind) {
            HandlerPlan plan;
            plan.kind = kind;
            plan.name = handlerName(index++);
            if (kind == HandlerKind::Software)
                plan.name = "Sw" + plan.name;
            if (kind == HandlerKind::Normal)
                plan.name = "sub_" + plan.name;
            plan.vars = profile_.vars_per_function;
            plan.branches = static_cast<int>(
                rng_.range(std::max(0, profile_.branches_per_handler - 1),
                           profile_.branches_per_handler + 1));
            plans_.push_back(std::move(plan));
        };
        for (int i = 0; i < profile_.hw_handlers; ++i)
            make(HandlerKind::Hardware);
        for (int i = 0; i < profile_.sw_handlers; ++i)
            make(HandlerKind::Software);
        // Helpers emitted separately count against the routine budget.
        int helper_count = helperCount();
        for (int i = 0;
             i < std::max(0, profile_.normal_routines - helper_count); ++i)
            make(HandlerKind::Normal);

        // Mark pass-thru and giant handlers.
        std::vector<HandlerPlan*> hw;
        std::vector<HandlerPlan*> sw;
        std::vector<HandlerPlan*> normal;
        for (HandlerPlan& plan : plans_) {
            if (plan.kind == HandlerKind::Hardware)
                hw.push_back(&plan);
            else if (plan.kind == HandlerKind::Software)
                sw.push_back(&plan);
            else
                normal.push_back(&plan);
        }
        int passthru = static_cast<int>(hw.size()) *
                       profile_.passthru_percent / 100;
        for (int i = 0; i < passthru; ++i)
            hw[static_cast<std::size_t>(i)]->passthru = true;
        // Giants: the last hardware handlers (or routines for common).
        std::vector<HandlerPlan*>& giant_pool = hw.empty() ? normal : hw;
        for (int i = 0; i < profile_.giant_handlers &&
                        i < static_cast<int>(giant_pool.size());
             ++i) {
            HandlerPlan* giant = giant_pool[giant_pool.size() - 1 -
                                            static_cast<std::size_t>(i)];
            giant->giant = true;
            giant->target_lines = profile_.giant_loc;
            giant->branches += 2;
        }

        // Non-passthru, non-giant bodies share the remaining line budget.
        std::vector<HandlerPlan*> regular;
        std::vector<HandlerPlan*> seedable; // hardware regular
        for (HandlerPlan& plan : plans_) {
            if (plan.passthru) {
                plan.target_lines = 6;
                continue;
            }
            if (plan.giant)
                continue;
            regular.push_back(&plan);
            if (plan.kind == HandlerKind::Hardware)
                seedable.push_back(&plan);
        }
        int helper_loc = helperCount() * 8;
        int fixed_loc = passthru * 8 +
                        profile_.giant_handlers * (profile_.giant_loc + 4) +
                        helper_loc;
        int per_regular =
            regular.empty()
                ? 0
                : (profile_.target_loc - fixed_loc) /
                      static_cast<int>(regular.size());
        for (HandlerPlan* plan : regular)
            plan->target_lines = std::max(
                14, per_regular + static_cast<int>(rng_.range(-6, 6)));

        if (seedable.empty())
            seedable = normal; // common code: routines carry the seeds

        // Resource quotas.
        std::vector<HandlerPlan*> read_pool = seedable;
        distribute(profile_.db_reads, read_pool, &HandlerPlan::reads);

        // Sends need a held buffer: hardware handlers hold one from entry
        // and plain routines are outside the buffer discipline, but a
        // software handler may only send between ALLOCATE_DB and FREE_DB,
        // so software handlers take no standalone send segments.
        std::vector<HandlerPlan*> send_pool;
        for (HandlerPlan* plan : regular)
            if (plan->kind != HandlerKind::Software)
                send_pool.push_back(plan);
        distribute(profile_.send_segments, send_pool,
                   &HandlerPlan::send_segments);

        std::vector<HandlerPlan*> dir_pool;
        for (HandlerPlan* plan : regular)
            if (plan->kind == HandlerKind::Hardware)
                dir_pool.push_back(plan);
        distribute(profile_.dir_segments, dir_pool,
                   &HandlerPlan::dir_segments);

        std::vector<HandlerPlan*> sendwait_pool = seedable;
        distribute(profile_.sendwait_pairs, sendwait_pool,
                   &HandlerPlan::sendwait_segments);

        // One handler exercises the non-sending recursion fixed point.
        if (!seedable.empty())
            seedable.front()->calls_recursive_helper = true;

        assignSeeds(seedable);

        // Allocation segments go to software handlers and plain routines
        // AFTER seeding, so a routine carrying buffer-management seeds
        // (which starts in the has-buffer state) never also allocates.
        std::vector<HandlerPlan*> alloc_pool;
        for (HandlerPlan* plan : regular) {
            if (plan->kind == HandlerKind::Hardware)
                continue;
            bool buffer_seeded = false;
            for (SeedKind kind :
                 {SeedKind::BmDoubleFree, SeedKind::BmLeak,
                  SeedKind::BmMinor, SeedKind::BmUseful,
                  SeedKind::BmUseless, SeedKind::MaybeFree,
                  SeedKind::HookMinor})
                buffer_seeded |= plan->has(kind);
            if (!buffer_seeded)
                alloc_pool.push_back(plan);
        }
        distribute(profile_.alloc_sites, alloc_pool,
                   &HandlerPlan::alloc_segments);
        for (int i = 0; i < profile_.alloc_fps && !alloc_pool.empty();
             ++i) {
            HandlerPlan* plan =
                alloc_pool[static_cast<std::size_t>(i) % alloc_pool.size()];
            plan->seeds.push_back(SeedKind::AllocFp);
            if (plan->alloc_segments == 0)
                plan->alloc_segments = 1;
        }
    }

    /** Round-robin cursor over seedable handlers for bug placement. */
    HandlerPlan*
    nextSeedTarget(std::vector<HandlerPlan*>& pool)
    {
        assert(!pool.empty());
        HandlerPlan* plan = pool[seed_cursor_ % pool.size()];
        ++seed_cursor_;
        return plan;
    }

    void
    assignSeeds(std::vector<HandlerPlan*> seedable)
    {
        auto place = [&](SeedKind kind, int count,
                         std::vector<HandlerPlan*>& pool) {
            for (int i = 0; i < count && !pool.empty(); ++i)
                nextSeedTarget(pool)->seeds.push_back(kind);
        };

        // Race bugs need a read in the same handler; ensure one.
        for (int i = 0; i < profile_.race_errors && !seedable.empty();
             ++i) {
            HandlerPlan* plan = nextSeedTarget(seedable);
            plan->seeds.push_back(SeedKind::RaceError);
            if (plan->reads == 0)
                plan->reads = 1;
        }
        for (int i = 0; i < profile_.race_fps && !seedable.empty(); ++i) {
            HandlerPlan* plan = nextSeedTarget(seedable);
            plan->seeds.push_back(SeedKind::RaceFp);
            if (plan->reads == 0)
                plan->reads = 1;
        }
        for (int i = 0; i < profile_.msglen_errors && !seedable.empty();
             ++i) {
            HandlerPlan* plan = nextSeedTarget(seedable);
            plan->seeds.push_back(SeedKind::MsglenError);
            if (plan->send_segments == 0)
                plan->send_segments = 1;
        }
        place(SeedKind::MsglenFpPair, profile_.msglen_fp_pairs, seedable);
        place(SeedKind::BmDoubleFree, profile_.bm_double_free, seedable);
        place(SeedKind::BmLeak, profile_.bm_leak, seedable);
        place(SeedKind::BmUseful, profile_.bm_useful_annotations, seedable);
        place(SeedKind::BmUseless, profile_.bm_useless_annotations,
              seedable);
        place(SeedKind::MaybeFree, profile_.maybe_free_sites, seedable);
        place(SeedKind::LanesError, profile_.lanes_errors, seedable);
        place(SeedKind::HookMissing, profile_.hooks_missing, seedable);
        place(SeedKind::DirError, profile_.dir_errors, seedable);
        place(SeedKind::DirFpSpec, profile_.dir_fp_speculative, seedable);
        place(SeedKind::DirFpAbs, profile_.dir_fp_abstraction, seedable);
        place(SeedKind::SendWaitFp, profile_.sendwait_fps, seedable);
        for (HandlerPlan& plan : plans_) {
            if (plan.has(SeedKind::SendWaitFp) &&
                plan.sendwait_segments == 0)
                plan.sendwait_segments = 1;
        }

        // Minor buffer violations live in never-invoked handlers.
        for (int i = 0; i < profile_.bm_minor && !seedable.empty(); ++i) {
            HandlerPlan* plan = nextSeedTarget(seedable);
            plan->seeds.push_back(SeedKind::BmMinor);
            plan->name += "Unused";
        }
        // Unimplemented-routine minors (sci).
        for (int i = 0; i < profile_.hooks_minor; ++i) {
            HandlerPlan stub;
            stub.kind = HandlerKind::Normal;
            stub.name = "unimpl_" + profile_.name + "_" +
                        std::to_string(i);
            stub.target_lines = 4;
            stub.seeds.push_back(SeedKind::HookMinor);
            plans_.push_back(std::move(stub));
        }
    }

    int
    helperCount() const
    {
        // retry_spin + free_if_urgent + lanes helpers + deferred dir
        // subroutines.
        return 2 + profile_.lanes_errors + profile_.dir_fp_subroutine;
    }

    void
    emitAll()
    {
        for (HandlerPlan& plan : plans_) {
            // The common code has no handlers, but its buffer-management
            // seeds still need functions the checker analyzes: register
            // seeded routines in the freeing table.
            bool as_freeing_helper =
                plan.kind == HandlerKind::Normal &&
                (plan.has(SeedKind::BmDoubleFree) ||
                 plan.has(SeedKind::BmLeak) || plan.has(SeedKind::BmMinor) ||
                 plan.has(SeedKind::BmUseful) ||
                 plan.has(SeedKind::BmUseless) ||
                 plan.has(SeedKind::MaybeFree));

            FunctionEmitter emitter(profile_, plan, rng_.fork(),
                                    out_.ledger, writer_);
            if (as_freeing_helper) {
                emitter.setFreeingHelper();
                out_.spec.freeing_routines.insert(plan.name);
            }
            GeneratedFile file;
            file.function = plan.name;
            file.name = profile_.name + "/" + plan.name + ".c";
            file.source = emitter.emit();
            out_.files.push_back(std::move(file));

            flash::HandlerSpec hs;
            hs.name = plan.name;
            hs.kind = plan.kind;
            auto lanes = emitter.laneSends();
            for (int lane = 0; lane < flash::kLaneCount; ++lane)
                hs.lane_allowance[static_cast<std::size_t>(lane)] =
                    std::max(1, lanes[static_cast<std::size_t>(lane)]);
            if (plan.has(SeedKind::LanesError)) {
                // The helper's extra send must NOT be covered: the seeded
                // bug is that the allowance assumes only local sends.
            }
            out_.spec.addHandler(hs);
        }
    }

    void
    addHelper(const std::string& fn_name, std::string_view body_lines)
    {
        CodeWriter& w = writer_;
        w.clear();
        w.begin()
            .put("/* ")
            .put(profile_.name)
            .put(" protocol: helper routine */")
            .end();
        w.begin().put("void ").put(fn_name).put("(void)").endOpen();
        while (!body_lines.empty()) {
            std::size_t eol = body_lines.find('\n');
            w.line(body_lines.substr(0, eol));
            body_lines.remove_prefix(eol == std::string_view::npos
                                         ? body_lines.size()
                                         : eol + 1);
        }
        w.close();
        GeneratedFile file;
        file.function = fn_name;
        file.name = profile_.name + "/" + fn_name + ".c";
        file.source = w.take();
        out_.files.push_back(std::move(file));

        flash::HandlerSpec hs;
        hs.name = fn_name;
        hs.kind = HandlerKind::Normal;
        out_.spec.addHandler(hs);
    }

    void
    emitHelpers()
    {
        // Non-sending recursion: the fixed-point rule must stay silent.
        addHelper("retry_spin_" + profile_.name,
                  "PROC_HOOK();\n"
                  "int t0 = 1;\n"
                  "if (RETRY_NEEDED()) {\n"
                  "    retry_spin_" + profile_.name + "();\n"
                  "}");

        // Data-dependent free helper backing the useless annotations.
        addHelper("free_if_urgent_" + profile_.name,
                  "PROC_HOOK();\n"
                  "int t0 = URGENCY_LEVEL();\n"
                  "if (t0 > 3) {\n"
                  "    FREE_DB();\n"
                  "}");

        // Lanes-bug helpers: one extra send on the overflowing lane.
        for (int i = 0; i < profile_.lanes_errors; ++i) {
            addHelper("lanes_helper_" + profile_.name,
                      "PROC_HOOK();\n"
                      "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;\n"
                      "NI_SEND(MSG_INVAL, F_NODATA, F_KEEP, F_NOWAIT, "
                      "F_DEC, F_NULL);");
        }

        // Deferred directory subroutines (Table 6's main FP source): each
        // modifies the loaded entry and relies on the caller's writeback,
        // but lacks the expects_dir_writeback() annotation.
        for (int i = 0; i < profile_.dir_fp_subroutine; ++i) {
            std::string fn_name = "upd_sharers_" + profile_.name + "_" +
                                  std::to_string(i);
            SeededItem item;
            item.protocol = profile_.name;
            item.handler = fn_name;
            item.checker = "dir_check";
            item.rule = "missing-writeback";
            item.cls = SeedClass::FalsePositive;
            item.description =
                "unannotated subroutine defers writeback to caller";
            out_.ledger.add(item);
            addHelper(fn_name, "PROC_HOOK();\n"
                               "DIR_LOAD();\n"
                               "DIR_WRITE(sharers, 1);");
            out_.spec.dir_deferred_routines.insert(fn_name);
        }
    }

    const ProtocolProfile& profile_;
    Rng rng_;
    std::vector<HandlerPlan> plans_;
    std::size_t seed_cursor_ = 0;
    GeneratedProtocol out_;
    /**
     * One buffer for every file of the protocol. The sources are its
     * exact-size copies, so no per-file growth buffers are freed between
     * them on the heap (a buffer per file raised the daemon's peak RSS
     * by about 0.5 MiB).
     */
    CodeWriter writer_;
};

} // namespace

int
GeneratedProtocol::totalLoc() const
{
    int loc = 0;
    for (const GeneratedFile& file : files)
        loc += static_cast<int>(
            std::count(file.source.begin(), file.source.end(), '\n'));
    return loc;
}

GeneratedProtocol
generateProtocol(const ProtocolProfile& profile)
{
    ProtocolGenerator generator(profile);
    return generator.run();
}

LoadedProtocol
loadProtocol(const ProtocolProfile& profile)
{
    LoadedProtocol loaded;
    loaded.gen = generateProtocol(profile);
    // Recovery mode: a generator bug that emits a malformed handler
    // poisons that declaration and degrades the run instead of aborting
    // the whole protocol check.
    loaded.program = std::make_unique<lang::Program>(/*recover=*/true);
    for (const GeneratedFile& file : loaded.gen.files) {
        lang::TranslationUnit& tu =
            loaded.program->addSource(file.name, file.source);
        loaded.file_function[tu.file_id] = file.function;
    }
    return loaded;
}

} // namespace mc::corpus
