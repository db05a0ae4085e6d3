#ifndef MCHECK_TESTS_CACHE_UNIT_FIXTURES_H
#define MCHECK_TESTS_CACHE_UNIT_FIXTURES_H

#include "cache/analysis_cache.h"

#include <gtest/gtest.h>

namespace mc::cache::testing {

/**
 * A unit exercising every encoded field: escapes, traces, witness
 * steps and blocks, a truncated witness, and a second plain finding.
 */
inline CachedUnit
sampleUnit()
{
    CachedUnit unit;
    unit.checker = "lanes";
    unit.function = "PILocalGet";
    unit.state = "applied 3\nfunction PILocalGet\n  calls helper 2\n";
    CachedDiagnostic d;
    d.severity = 1;
    d.file = "sci/PILocalGet.c";
    d.line = 12;
    d.column = 5;
    d.checker = "lanes";
    d.rule = "lane-overflow";
    d.message = "message with spaces, 100% odd chars & a\ttab";
    d.trace = {"PILocalGet -> helper", "helper: SEND at line 9"};
    CachedWitnessStep step;
    step.from = "start";
    step.to = "buf checked";
    step.file = "sci/PILocalGet.c";
    step.line = 9;
    step.column = 3;
    step.note = "rule lane-overflow, addr = h->addr";
    d.wsteps.push_back(step);
    step.to = "stop";
    step.note = "rule done";
    d.wsteps.push_back(step);
    d.wblocks = {0, 2, 5};
    d.wtruncated = true;
    unit.diags.push_back(d);
    d.trace.clear();
    d.wsteps.clear();
    d.wblocks.clear();
    d.wtruncated = false;
    d.severity = 0;
    d.message = "second finding";
    unit.diags.push_back(d);
    return unit;
}

inline void
expectSameUnit(const CachedUnit& a, const CachedUnit& b)
{
    EXPECT_EQ(a.checker, b.checker);
    EXPECT_EQ(a.function, b.function);
    EXPECT_EQ(a.state, b.state);
    ASSERT_EQ(a.diags.size(), b.diags.size());
    for (std::size_t i = 0; i < a.diags.size(); ++i) {
        EXPECT_EQ(a.diags[i].severity, b.diags[i].severity);
        EXPECT_EQ(a.diags[i].file, b.diags[i].file);
        EXPECT_EQ(a.diags[i].line, b.diags[i].line);
        EXPECT_EQ(a.diags[i].column, b.diags[i].column);
        EXPECT_EQ(a.diags[i].checker, b.diags[i].checker);
        EXPECT_EQ(a.diags[i].rule, b.diags[i].rule);
        EXPECT_EQ(a.diags[i].message, b.diags[i].message);
        EXPECT_EQ(a.diags[i].trace, b.diags[i].trace);
        EXPECT_EQ(a.diags[i].wblocks, b.diags[i].wblocks);
        EXPECT_EQ(a.diags[i].wtruncated, b.diags[i].wtruncated);
        ASSERT_EQ(a.diags[i].wsteps.size(), b.diags[i].wsteps.size());
        for (std::size_t s = 0; s < a.diags[i].wsteps.size(); ++s) {
            const CachedWitnessStep& ws = a.diags[i].wsteps[s];
            const CachedWitnessStep& bs = b.diags[i].wsteps[s];
            EXPECT_EQ(ws.from, bs.from);
            EXPECT_EQ(ws.to, bs.to);
            EXPECT_EQ(ws.file, bs.file);
            EXPECT_EQ(ws.line, bs.line);
            EXPECT_EQ(ws.column, bs.column);
            EXPECT_EQ(ws.note, bs.note);
        }
    }
}

} // namespace mc::cache::testing

#endif // MCHECK_TESTS_CACHE_UNIT_FIXTURES_H
