#include "global/flowgraph.h"

#include "cfg/flat_cfg.h"

#include <sstream>
#include <stdexcept>

namespace mc::global {

FunctionSummary
summarize(const std::string& name, const cfg::Cfg& cfg,
          const std::function<void(const lang::Stmt&, std::uint32_t,
                                   std::vector<Event>&)>& extract)
{
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    FunctionSummary summary;
    summary.name = name;
    summary.entry = cfg.entryId();
    summary.exit = cfg.exitId();
    summary.blocks.resize(static_cast<std::size_t>(cfg.blockCount()));
    for (const cfg::BasicBlock& bb : cfg.blocks()) {
        FunctionSummary::Block& out =
            summary.blocks[static_cast<std::size_t>(bb.id)];
        out.succs = bb.succs;
        for (std::uint32_t row = flat.stmtBegin(bb.id);
             row < flat.stmtEnd(bb.id); ++row)
            extract(*flat.stmt(row), row, out.events);
    }
    return summary;
}

void
writeSummary(std::ostream& os, const FunctionSummary& fn)
{
    os << "fn " << fn.name << " entry " << fn.entry << " exit "
       << fn.exit << " blocks " << fn.blocks.size() << '\n';
    for (std::size_t i = 0; i < fn.blocks.size(); ++i) {
        const FunctionSummary::Block& bb = fn.blocks[i];
        os << "block " << i << " succs " << bb.succs.size();
        for (int s : bb.succs)
            os << ' ' << s;
        os << '\n';
        for (const Event& ev : bb.events) {
            switch (ev.kind) {
              case Event::Kind::Call:
                os << "call " << ev.callee;
                break;
              case Event::Kind::Send:
                os << "send " << ev.lane;
                break;
              case Event::Kind::LaneWait:
                os << "lanewait " << ev.lane;
                break;
            }
            os << ' ' << ev.loc.file_id << ' ' << ev.loc.line << ' '
               << ev.loc.column << '\n';
        }
    }
    os << "end\n";
}

namespace {

[[noreturn]] void
badFormat(const std::string& line)
{
    throw std::runtime_error("malformed flow-graph line: " + line);
}

} // namespace

std::vector<FunctionSummary>
readSummaries(std::istream& is)
{
    std::vector<FunctionSummary> out;
    std::string line;
    FunctionSummary* current = nullptr;
    FunctionSummary::Block* block = nullptr;

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "fn") {
            out.emplace_back();
            current = &out.back();
            block = nullptr;
            std::string kw;
            std::size_t nblocks = 0;
            if (!(ls >> current->name >> kw >> current->entry >> kw >>
                  current->exit >> kw >> nblocks))
                badFormat(line);
            current->blocks.resize(nblocks);
        } else if (tag == "block") {
            if (!current)
                badFormat(line);
            std::size_t id = 0;
            std::size_t nsuccs = 0;
            std::string kw;
            if (!(ls >> id >> kw >> nsuccs) ||
                id >= current->blocks.size())
                badFormat(line);
            block = &current->blocks[id];
            for (std::size_t i = 0; i < nsuccs; ++i) {
                int s = 0;
                if (!(ls >> s))
                    badFormat(line);
                block->succs.push_back(s);
            }
        } else if (tag == "call" || tag == "send" || tag == "lanewait") {
            if (!block)
                badFormat(line);
            Event ev;
            if (tag == "call") {
                ev.kind = Event::Kind::Call;
                if (!(ls >> ev.callee))
                    badFormat(line);
            } else {
                ev.kind = tag == "send" ? Event::Kind::Send
                                        : Event::Kind::LaneWait;
                if (!(ls >> ev.lane))
                    badFormat(line);
            }
            if (!(ls >> ev.loc.file_id >> ev.loc.line >> ev.loc.column))
                badFormat(line);
            block->events.push_back(std::move(ev));
        } else if (tag == "end") {
            current = nullptr;
            block = nullptr;
        } else {
            badFormat(line);
        }
    }
    return out;
}

} // namespace mc::global
