#ifndef MCHECK_FLASH_PROTOCOL_SPEC_H
#define MCHECK_FLASH_PROTOCOL_SPEC_H

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mc::flash {

/** Number of virtual network lanes on a FLASH node (Section 7). */
inline constexpr int kLaneCount = 4;

/** How a routine is invoked (Section 2.1 / Section 6). */
enum class HandlerKind : std::uint8_t
{
    /** Run by hardware on message arrival; starts owning a data buffer. */
    Hardware,
    /** Scheduled by software; starts without a data buffer. */
    Software,
    /** An ordinary subroutine. */
    Normal,
};

const char* handlerKindName(HandlerKind kind);

/** Static description of one handler, from the protocol specification. */
struct HandlerSpec
{
    std::string name;
    HandlerKind kind = HandlerKind::Normal;
    /**
     * Lane allowance: how many sends per lane the hardware guarantees
     * space for before the handler runs (Section 7).
     */
    std::array<int, kLaneCount> lane_allowance{1, 1, 1, 1};
    /** Handler asserts it does not need the stack (Section 8). */
    bool no_stack = false;
};

/**
 * The protocol-writer-supplied knowledge the checkers consume: handler
 * classification, lane assignments, and the routine tables the buffer
 * management and directory checkers keep (Section 6: "The extension keeps
 * a table of routines...").
 */
class ProtocolSpec
{
  public:
    std::string name;

    /** Register a handler (or normal routine) specification. */
    void addHandler(HandlerSpec spec);

    /** Spec for `fn_name`, or nullptr if unknown (treated as Normal). */
    const HandlerSpec* handler(std::string_view fn_name) const;

    HandlerKind
    kindOf(std::string_view fn_name) const
    {
        const HandlerSpec* spec = handler(fn_name);
        return spec ? spec->kind : HandlerKind::Normal;
    }

    bool
    isHandler(std::string_view fn_name) const
    {
        HandlerKind kind = kindOf(fn_name);
        return kind == HandlerKind::Hardware ||
               kind == HandlerKind::Software;
    }

    const std::map<std::string, HandlerSpec, std::less<>>& handlers() const
    {
        return handlers_;
    }

    /** Map an NI message opcode (MSG_*) to its lane. -1 if unknown. */
    int laneOf(std::string_view opcode) const;

    /** Assign `opcode` to `lane`. */
    void setLane(const std::string& opcode, int lane);

    const std::map<std::string, int, std::less<>>& opcodeLanes() const
    {
        return opcode_lanes_;
    }

    /**
     * Routines that consume and free the current buffer when called
     * ("calls to routines that expect buffers and free them").
     */
    std::set<std::string, std::less<>> freeing_routines;

    /** Routines that use the buffer without freeing it. */
    std::set<std::string, std::less<>> buffer_using_routines;

    /**
     * Subroutines that modify the directory entry and rely on their
     * caller to write it back (Section 9's main false-positive source).
     */
    std::set<std::string, std::less<>> dir_deferred_routines;

    /** Deprecated macros/functions the restriction checker warns about. */
    std::set<std::string, std::less<>> deprecated;

  private:
    std::map<std::string, HandlerSpec, std::less<>> handlers_;
    std::map<std::string, int, std::less<>> opcode_lanes_;
};

/**
 * Stable content hash over everything a checker can read out of a spec:
 * handler classifications, lane allowances, opcode lanes, and the four
 * routine tables. Part of the analysis cache key — two runs may share
 * cached results only if the protocol knowledge fed to the checkers is
 * identical.
 */
std::uint64_t specFingerprint(const ProtocolSpec& spec);

} // namespace mc::flash

#endif // MCHECK_FLASH_PROTOCOL_SPEC_H
