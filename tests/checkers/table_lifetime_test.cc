/**
 * @file
 * Transition tables live exactly as long as the walk that uses them:
 * checking fresh programs over and over on one thread must not pin the
 * tables (or the mask indices) of programs that are already gone.
 */
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

namespace mc::checkers {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MCHECK_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MCHECK_SANITIZED_ALLOCATOR 1
#endif
#endif

/** This process's peak resident set so far, in KiB (Linux units). */
long
peakRssKiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** Load bitvector afresh and check it with every checker on this thread. */
void
checkFreshBitvector()
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    auto set = makeAllCheckers();
    support::DiagnosticSink sink;
    ParallelRunOptions options;
    options.jobs = 1; // no pool threads: every walk runs on this thread
    runCheckersParallel(*loaded.program, loaded.gen.spec, set.pointers(),
                        sink, options);
}

TEST(TableLifetime, RepeatRunsDoNotGrowPeakRss)
{
#ifdef MCHECK_SANITIZED_ALLOCATOR
    GTEST_SKIP() << "sanitizer allocators quarantine freed memory";
#endif
    // The warm-up run pays for everything that is meant to stay: the
    // checker definitions, the interner, the allocator's arenas.
    checkFreshBitvector();
    const long before = peakRssKiB();
    for (int run = 0; run < 20; ++run)
        checkFreshBitvector();
    const long growth = peakRssKiB() - before;
    EXPECT_LT(growth, 8L * 1024) << "peak RSS grew by " << growth << " KiB";
}

} // namespace
} // namespace mc::checkers
