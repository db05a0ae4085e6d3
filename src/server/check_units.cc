/**
 * @file
 * The shard worker's half of sharded checking.
 *
 * A worker is an `mccheck --shard-worker` process holding a Daemon;
 * `check_units` requests name explicit unit ids instead of "everything",
 * and the response carries each unit's outcome in the analysis cache's
 * encoded form. Determinism rests on three properties: unit ids index
 * the same (function x checker) grid the coordinator enumerates, the
 * per-unit pipeline below is the in-process phase-2 body verbatim
 * (same guard, same probes, same containment warnings), and results
 * travel in the cache encoding whose replay path is already proven
 * byte-neutral by the warm/cold differential suite.
 */
#include "server/check_units.h"

#include "cfg/cfg.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "checkers/unit_guard.h"
#include "corpus/generator.h"
#include "server/resident.h"
#include "support/budget.h"
#include "support/fault_injection.h"
#include "support/run_ledger.h"
#include "support/text.h"
#include "support/witness.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace mc::server {

flash::ProtocolSpec
cliFilesSpec(const lang::Program& program)
{
    flash::ProtocolSpec spec;
    spec.name = "<cli>";
    for (const lang::FunctionDecl* fn : program.functions()) {
        flash::HandlerSpec hs;
        hs.name = fn->name;
        bool camel_case =
            !fn->name.empty() &&
            std::isupper(static_cast<unsigned char>(fn->name[0]));
        if (!camel_case)
            hs.kind = flash::HandlerKind::Normal;
        else if (support::startsWith(fn->name, "Sw"))
            hs.kind = flash::HandlerKind::Software;
        else
            hs.kind = flash::HandlerKind::Hardware;
        spec.addHandler(hs);
    }
    return spec;
}

namespace {

support::BudgetLimits
unitBudget(const CheckRequest& req)
{
    support::BudgetLimits limits;
    limits.deadline = std::chrono::milliseconds(req.unit_timeout_ms);
    limits.max_steps = req.unit_max_steps;
    return limits;
}

} // namespace

JsonValue
runCheckUnits(const CheckRequest& request,
              const std::vector<std::uint64_t>& units,
              ResidentState* resident)
{
    // Process-global per-run configuration, exactly as runCheckRequest
    // installs it — the daemon's execution mutex serializes requests,
    // so the globals cannot leak across concurrent batches.
    support::setWitnessConfig(request.witness, request.witness_limit);
    metal::setDefaultMatchStrategy(request.match_strategy);

    FileReader reader =
        request.read_file ? request.read_file : FileReader(readDiskFile);

    corpus::LoadedProtocol local_proto;
    PreparedProgram prepared;
    lang::Program* program = nullptr;
    checkers::CfgCache* cfg_cache = nullptr;
    std::unique_ptr<checkers::CfgCache> local_cfgs;
    const flash::ProtocolSpec* spec = nullptr;
    flash::ProtocolSpec files_spec;

    switch (request.mode) {
      case CheckRequest::Mode::Protocol: {
        corpus::LoadedProtocol* loaded = &local_proto;
        if (resident) {
            bool reused = false;
            loaded = &resident->protocolSnapshot(request.protocol,
                                                 cfg_cache, reused);
        } else {
            local_proto =
                corpus::loadProtocol(corpus::profileByName(request.protocol));
        }
        program = &*loaded->program;
        spec = &loaded->gen.spec;
        break;
      }
      case CheckRequest::Mode::Files: {
        prepared = resident
                       ? resident->prepareFiles(request.files, reader)
                       : buildProgramOneShot(request.files, reader);
        if (!prepared.ok)
            throw std::runtime_error(prepared.error);
        program = prepared.program;
        cfg_cache = prepared.cfg_cache;
        files_spec = cliFilesSpec(*program);
        spec = &files_spec;
        break;
      }
      case CheckRequest::Mode::Metal:
        throw std::runtime_error(
            "check_units supports protocol and files modes only");
    }
    if (!cfg_cache) {
        local_cfgs = std::make_unique<checkers::CfgCache>();
        cfg_cache = local_cfgs.get();
    }

    checkers::CheckerSetOptions copts;
    copts.prune_strategy = request.prune_strategy;
    std::vector<const checkers::CheckerDef*> defs;
    for (const std::string& name : checkers::allCheckerNames())
        defs.push_back(checkers::checkerDef(name, copts));
    const std::vector<const lang::FunctionDecl*>& fns =
        program->functions();
    const std::size_t ncheckers = defs.size();
    const std::size_t nunits = fns.size() * ncheckers;

    using Clock = std::chrono::steady_clock;
    JsonValue entries = JsonValue::array();
    for (std::uint64_t u : units) {
        if (u >= nunits)
            throw std::runtime_error("unit id out of range: " +
                                     std::to_string(u));
        const std::size_t f = static_cast<std::size_t>(u) / ncheckers;
        const std::size_t c = static_cast<std::size_t>(u) % ncheckers;
        const checkers::CheckerDef& def = *defs[c];
        const std::string label = fns[f]->name + "/" + def.name();

        // Worker-process fault sites. Unlike checker.unit these are NOT
        // contained: they simulate the worker dying mid-batch (_Exit,
        // as an OOM kill or segfault would look from outside) or
        // wedging (an infinite stall under a live heartbeat thread).
        // Keyed by unit identity so the same units misbehave at any
        // shard count.
        try {
            support::fault::probe("worker.request", label);
        } catch (const support::InjectedFault&) {
            std::_Exit(9);
        }
        try {
            support::fault::probe("worker.hang", label);
        } catch (const support::InjectedFault&) {
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));
        }

        std::unique_ptr<checkers::Checker> checker = def.instantiate();
        support::DiagnosticSink scratch;
        checkers::CheckContext uctx{*program, *spec, scratch};
        support::LedgerUnitStats unit_stats;
        support::LedgerUnitScope stats_scope(&unit_stats);
        const Clock::time_point t0 = Clock::now();
        checkers::UnitGuard guard(label, unitBudget(request),
                                  /*rethrow=*/false);
        checkers::UnitOutcome outcome = guard.run([&] {
            support::fault::probe("checker.unit", label);
            const cfg::Cfg* cfg = nullptr;
            {
                std::lock_guard<std::mutex> lock(cfg_cache->mu);
                auto it = cfg_cache->cfgs.find(fns[f]);
                if (it != cfg_cache->cfgs.end())
                    cfg = &it->second;
            }
            if (!cfg) {
                cfg::Cfg built = cfg::CfgBuilder::build(*fns[f]);
                built.backEdges();
                std::lock_guard<std::mutex> lock(cfg_cache->mu);
                cfg = &cfg_cache->cfgs.emplace(fns[f], std::move(built))
                           .first->second;
            }
            checker->checkFunction(*fns[f], *cfg, uctx);
        });
        const auto elapsed = Clock::now() - t0;

        // Mirror the in-process phase-2 containment byte for byte: a
        // failed unit contributes a *fresh* instance's state and one
        // "analysis incomplete" warning; a truncated one keeps its
        // partial findings plus the "budget-exhausted" marker.
        support::DiagnosticSink unit_sink;
        if (outcome.failed) {
            checker = def.instantiate();
            checkers::warnUnitFailed(unit_sink, fns[f]->loc, def.name(),
                                     fns[f]->name, outcome.error);
        } else {
            for (const support::Diagnostic& d : scratch.diagnostics())
                unit_sink.report(d);
            if (outcome.budget_stop != support::BudgetStop::None)
                checkers::warnUnitTruncated(unit_sink, fns[f]->loc,
                                            def.name(), fns[f]->name,
                                            outcome.budget_stop);
        }

        cache::CachedUnit unit;
        unit.checker = def.name();
        unit.function = fns[f]->name;
        std::ostringstream state;
        checker->saveState(state);
        unit.state = state.str();
        for (const support::Diagnostic& d : unit_sink.diagnostics())
            unit.diags.push_back(cache::AnalysisCache::toCached(
                d, program->sourceManager()));

        JsonValue entry = JsonValue::object();
        entry.set("unit", JsonValue::number(u));
        entry.set("failed", JsonValue::boolean(outcome.failed));
        entry.set("error", JsonValue::string(outcome.error));
        entry.set("budget_stop",
                  JsonValue::string(
                      support::budgetStopName(outcome.budget_stop)));
        entry.set("wall_ms",
                  JsonValue::number(
                      std::chrono::duration<double, std::milli>(elapsed)
                          .count()));
        entry.set("visits", JsonValue::number(unit_stats.visits));
        entry.set("pruned_edges",
                  JsonValue::number(unit_stats.pruned_edges));
        entry.set("prune_cache_hits",
                  JsonValue::number(unit_stats.prune_cache_hits));
        entry.set("prune_skipped_nary",
                  JsonValue::number(unit_stats.prune_skipped_nary));
        entry.set("data", JsonValue::string(
                              cache::AnalysisCache::encodeUnit(unit)));
        entries.push(std::move(entry));
    }

    JsonValue result = JsonValue::object();
    result.set("units", std::move(entries));
    result.set("units_total",
               JsonValue::number(static_cast<std::uint64_t>(nunits)));
    return result;
}

} // namespace mc::server
