#include "flash/protocol_spec.h"

#include "support/hash.h"

namespace mc::flash {

const char*
handlerKindName(HandlerKind kind)
{
    switch (kind) {
      case HandlerKind::Hardware: return "hardware";
      case HandlerKind::Software: return "software";
      case HandlerKind::Normal: return "normal";
    }
    return "?";
}

void
ProtocolSpec::addHandler(HandlerSpec spec)
{
    handlers_[spec.name] = std::move(spec);
}

const HandlerSpec*
ProtocolSpec::handler(std::string_view fn_name) const
{
    auto it = handlers_.find(fn_name);
    return it == handlers_.end() ? nullptr : &it->second;
}

int
ProtocolSpec::laneOf(std::string_view opcode) const
{
    auto it = opcode_lanes_.find(opcode);
    return it == opcode_lanes_.end() ? -1 : it->second;
}

void
ProtocolSpec::setLane(const std::string& opcode, int lane)
{
    opcode_lanes_[opcode] = lane;
}

std::uint64_t
specFingerprint(const ProtocolSpec& spec)
{
    support::Fnv1a h;
    h.str(spec.name);
    h.u64(spec.handlers().size());
    for (const auto& [name, hs] : spec.handlers()) {
        h.str(name);
        h.u8(static_cast<std::uint8_t>(hs.kind));
        for (int allowance : hs.lane_allowance)
            h.i64(allowance);
        h.u8(hs.no_stack ? 1 : 0);
    }
    h.u64(spec.opcodeLanes().size());
    for (const auto& [opcode, lane] : spec.opcodeLanes()) {
        h.str(opcode);
        h.i64(lane);
    }
    for (const auto* table :
         {&spec.freeing_routines, &spec.buffer_using_routines,
          &spec.dir_deferred_routines, &spec.deprecated}) {
        h.u64(table->size());
        for (const std::string& routine : *table)
            h.str(routine);
    }
    return h.value();
}

} // namespace mc::flash
