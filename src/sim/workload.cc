#include "sim/workload.h"

namespace mc::sim {

int
WorkloadResult::count(FailureKind kind) const
{
    int n = 0;
    for (const Failure& failure : failures)
        if (failure.kind == kind)
            ++n;
    return n;
}

int
WorkloadResult::totalLeaks() const
{
    int n = 0;
    for (const auto& [handler, leaks] : leaks_by_handler)
        n += leaks;
    return n;
}

WorkloadDriver::WorkloadDriver(const lang::Program& program,
                               const flash::ProtocolSpec& spec,
                               MagicNode::Config config, std::uint64_t seed)
    : program_(program), spec_(spec), config_(config), seed_(seed)
{
    for (const auto& [name, handler] : spec.handlers()) {
        if (handler.kind != flash::HandlerKind::Hardware)
            continue;
        if (const lang::FunctionDecl* fn = program.findFunction(name))
            handlers_.push_back(fn);
    }
}

WorkloadResult
WorkloadDriver::run(std::uint64_t messages)
{
    WorkloadResult result;
    if (handlers_.empty())
        return result;

    MagicNode node(config_, seed_ ^ 0xabcdef12ull);
    Interpreter interp(program_, spec_, node);
    support::Rng rng(seed_);

    for (std::uint64_t i = 0; i < messages; ++i) {
        const lang::FunctionDecl* handler =
            handlers_[static_cast<std::size_t>(
                rng.below(handlers_.size()))];
        std::int64_t payload = static_cast<std::int64_t>(rng.below(32));
        if (!node.deliverMessage(payload, std::string(handler->name))) {
            result.deadlocked = true;
            break;
        }
        interp.runFunction(*handler);
        if (node.finishHandler())
            ++result.leaks_by_handler[std::string(handler->name)];
        ++result.messages_handled;
    }

    result.cycles = node.cycle();
    result.failures = node.failures();
    for (const Failure& failure : result.failures) {
        auto [it, inserted] = result.first_manifestation.emplace(
            failure.kind, failure.message_index);
        (void)it;
        (void)inserted;
    }
    return result;
}

} // namespace mc::sim
