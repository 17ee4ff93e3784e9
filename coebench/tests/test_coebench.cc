/**
 * @file
 * Tests of the benchmark itself: span self-time arithmetic, metric
 * aggregation, seeded trace generation and the correctness ledger.
 *
 * Build and run:
 *   cmake -S coebench -B build-coebench && \
 *   cmake --build build-coebench -j --target coebench_tests && \
 *   build-coebench/coebench_tests
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "aggregate.h"
#include "spans.h"
#include "workloads.h"

using namespace coebench;

namespace {

Span
span(const char *name, std::int64_t start, std::int64_t end,
     std::int32_t parent)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

} // namespace

// ---------------------------------------------------------- self time

TEST(SelfTime, LeafIsItsDuration)
{
    const std::vector<Span> spans{span("a", 10, 35, -1)};
    EXPECT_EQ(selfTimesNs(spans), (std::vector<std::int64_t>{25}));
}

TEST(SelfTime, NestedChildrenSubtractOnlyFromTheirParent)
{
    // root [0,100] > child [10,60] > grandchild [20,50]
    const std::vector<Span> spans{span("root", 0, 100, -1),
                                  span("child", 10, 60, 0),
                                  span("grand", 20, 50, 1)};
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 50); // 100 - child's 50; the grandchild is inside
    EXPECT_EQ(self[1], 20); // 50 - 30
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[0] + self[1] + self[2], 100);
}

TEST(SelfTime, BackToBackChildrenAreNotDoubleCounted)
{
    // Children share their boundary instants: [10,20] [20,30] [30,45].
    const std::vector<Span> spans{span("root", 0, 50, -1),
                                  span("a", 10, 20, 0),
                                  span("b", 20, 30, 0),
                                  span("c", 30, 45, 0)};
    EXPECT_EQ(selfTimesNs(spans)[0], 15);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenUseTheUnion)
{
    // [10,30] and [20,40] overlap: union [10,40]. [90,120] overhangs
    // the parent's end and is clipped to [90,100].
    const std::vector<Span> spans{span("root", 0, 100, -1),
                                  span("a", 10, 30, 0),
                                  span("b", 20, 40, 0),
                                  span("c", 90, 120, 0)};
    EXPECT_EQ(selfTimesNs(spans)[0], 100 - 30 - 10);
}

TEST(SelfTime, RangeIgnoresParentsBeforeIt)
{
    const std::vector<Span> spans{span("old", 0, 10, -1),
                                  span("root", 20, 60, -1),
                                  span("kid", 30, 40, 1)};
    EXPECT_EQ(selfTimesNs(spans, 1), (std::vector<std::int64_t>{30, 10}));
    const auto totals = totalsByName(spans, 1);
    EXPECT_EQ(totals.count("old"), 0u);
    EXPECT_EQ(totals.at("root").selfNs, 30);
    EXPECT_EQ(totals.at("root").calls, 1);
    EXPECT_EQ(totals.at("kid").calls, 1);
}

TEST(SpanRecorder, ParentFollowsTheOpenSpanAndRunIdIsKept)
{
    SpanRecorder rec;
    rec.setRun(7);
    {
        const ScopedSpan outer(&rec, "outer");
        { const ScopedSpan a(&rec, "a"); }
        { const ScopedSpan b(&rec, "b"); }
    }
    { const ScopedSpan next(&rec, "next"); }
    const std::vector<Span> &s = rec.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[3].parent, -1);
    for (const Span &x : s) {
        EXPECT_EQ(x.run, 7);
        EXPECT_LE(x.startNs, x.endNs);
    }
    EXPECT_LE(s[1].endNs, s[2].startNs);
    const auto totals = totalsByName(s);
    EXPECT_EQ(totals.at("outer").selfNs + totals.at("a").selfNs +
                  totals.at("b").selfNs,
              s[0].endNs - s[0].startNs);
    rec.truncate(1);
    EXPECT_EQ(rec.spans().size(), 1u);
}

TEST(SpanRecorder, NullRecorderRecordsNothing)
{
    const ScopedSpan s(nullptr, "ignored");
    SUCCEED();
}

// -------------------------------------------------------- aggregation

TEST(Aggregate, Median)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Aggregate, AnswersPoolBySummingBeforeDividing)
{
    Answer a;
    a.calls = 1;
    a.arrivals = 100;
    a.images = 90;
    a.rejected = 10;
    a.makespanS = 10.0;
    a.sloMet = 45;
    a.switches = 9;
    a.gpuHits = 3;
    a.gpuAccesses = 4;
    a.latencyMs = {1.0, 2.0, 3.0};
    Answer b;
    b.calls = 1;
    b.arrivals = 300;
    b.images = 300;
    b.makespanS = 30.0;
    b.sloMet = 300;
    b.switches = 3;
    b.gpuHits = 1;
    b.gpuAccesses = 4;
    b.latencyMs = {4.0, 5.0};

    Answer pooled;
    pooled.merge(a);
    pooled.merge(b);
    EXPECT_TRUE(a.conserved());
    EXPECT_TRUE(pooled.conserved());
    EXPECT_DOUBLE_EQ(pooled.throughput(), 390.0 / 40.0);
    EXPECT_DOUBLE_EQ(pooled.goodput(), 345.0 / 40.0);
    EXPECT_DOUBLE_EQ(pooled.servedShare(), 390.0 / 400.0);
    EXPECT_DOUBLE_EQ(pooled.switchesPerImage(), 12.0 / 390.0);
    EXPECT_DOUBLE_EQ(pooled.gpuHitRate(), 0.5);
    EXPECT_DOUBLE_EQ(pooled.latencyPercentile(50.0), 3.0);
    EXPECT_DOUBLE_EQ(pooled.latencyPercentile(100.0), 5.0);
    EXPECT_EQ(pooled.calls, 2);
    // Ratios of empty denominators are 0, not NaN.
    EXPECT_DOUBLE_EQ(Answer().throughput(), 0.0);
}

TEST(Aggregate, FingerprintSeesEveryFieldAndOrder)
{
    Answer a;
    a.images = 5;
    a.latencyMs = {1.0, 2.0};
    Answer b = a;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.digest = 1;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b = a;
    b.latencyMs = {2.0, 1.0};
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b = a;
    b.busyS = 1e-12;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ------------------------------------------------------------- ledger

TEST(CheckLedger, ForcedDigestMismatchFailsThatCallsArrivals)
{
    Answer first;
    first.arrivals = first.images = 1000;
    first.digest = 0xABCDEF;
    Answer diverged = first;
    diverged.digest = 0xABCDEE; // forced mismatch

    CheckLedger ledger;
    EXPECT_TRUE(ledger.record(0, first.arrivals, first.conserved(),
                              first.fingerprint()));
    EXPECT_TRUE(ledger.record(0, first.arrivals, first.conserved(),
                              first.fingerprint()));
    EXPECT_FALSE(ledger.record(0, diverged.arrivals, diverged.conserved(),
                               diverged.fingerprint()));
    EXPECT_EQ(ledger.attempted(), 3000);
    EXPECT_EQ(ledger.failed(), 1000);
    EXPECT_FALSE(ledger.correct());
    EXPECT_EQ(ledger.problems().size(), 1u);
}

TEST(CheckLedger, SlotsHaveTheirOwnReferences)
{
    CheckLedger ledger;
    EXPECT_TRUE(ledger.record(0, 10, true, 111));
    EXPECT_TRUE(ledger.record(1, 10, true, 222));
    EXPECT_TRUE(ledger.record(0, 10, true, 111));
    EXPECT_TRUE(ledger.record(1, 10, true, 222));
    EXPECT_TRUE(ledger.correct());
}

TEST(CheckLedger, LostArrivalsAndRunLevelFailuresCountAsFailed)
{
    Answer leaky;
    leaky.arrivals = 50;
    leaky.images = 48;
    leaky.rejected = 1; // one arrival unaccounted for
    CheckLedger ledger;
    EXPECT_FALSE(ledger.record(0, leaky.arrivals, leaky.conserved(),
                               leaky.fingerprint()));
    EXPECT_EQ(ledger.failed(), 50);
    ledger.record(1, 70, true, 5);
    ledger.failAll("trace schema check failed");
    EXPECT_EQ(ledger.failed(), ledger.attempted());
}

// ------------------------------------------------------------ workloads

TEST(Workloads, NamesRoundTrip)
{
    for (WorkloadKind k :
         {WorkloadKind::EngineLine, WorkloadKind::Static4x,
          WorkloadKind::OnlineSlo, WorkloadKind::PreemptTraced}) {
        WorkloadKind back = WorkloadKind::EngineLine;
        ASSERT_TRUE(parseWorkload(workloadName(k), back));
        EXPECT_EQ(back, k);
    }
    WorkloadKind unused = WorkloadKind::EngineLine;
    EXPECT_FALSE(parseWorkload("nope", unused));
}

TEST(Workloads, SeedChangesTheTraceButNotItsShape)
{
    for (WorkloadKind k :
         {WorkloadKind::EngineLine, WorkloadKind::OnlineSlo,
          WorkloadKind::PreemptTraced}) {
        SCOPED_TRACE(workloadName(k));
        const coserve::CoEModel model = buildModel(k);
        const coserve::Trace a = makeTrace(k, model, 1);
        const coserve::Trace again = makeTrace(k, model, 1);
        const coserve::Trace b = makeTrace(k, model, 2);
        ASSERT_FALSE(a.arrivals.empty());
        ASSERT_FALSE(b.arrivals.empty());

        // Same seed, same inputs.
        ASSERT_EQ(a.size(), again.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a.arrivals[i].time, again.arrivals[i].time);
            EXPECT_EQ(a.arrivals[i].component, again.arrivals[i].component);
        }

        // Another seed: different component sequence...
        std::size_t differ = 0;
        for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
            differ += a.arrivals[i].component != b.arrivals[i].component;
        EXPECT_GT(differ, a.size() / 4);

        // ...but the same shape: volume, span and request classes.
        const double ratio = static_cast<double>(b.size()) /
                             static_cast<double>(a.size());
        EXPECT_NEAR(ratio, 1.0, 0.1);
        const double spanA =
            coserve::toSeconds(a.arrivals.back().time -
                               a.arrivals.front().time);
        const double spanB =
            coserve::toSeconds(b.arrivals.back().time -
                               b.arrivals.front().time);
        EXPECT_NEAR(spanB / spanA, 1.0, 0.05);
        std::set<coserve::RequestClass> clsA, clsB;
        for (const auto &x : a.arrivals)
            clsA.insert(x.cls);
        for (const auto &x : b.arrivals)
            clsB.insert(x.cls);
        EXPECT_EQ(clsA, clsB);
    }
}

TEST(Workloads, PartSeedsAreDistinctAndStable)
{
    std::set<std::uint64_t> seen;
    for (std::size_t p = 0; p < 32; ++p)
        seen.insert(partSeed(1, p));
    EXPECT_EQ(seen.size(), 32u);
    EXPECT_EQ(partSeed(3, 5), partSeed(3, 5));
    EXPECT_NE(partSeed(3, 5), partSeed(4, 5));
}

TEST(Workloads, TracedEngineReproducesTheUntracedAnswer)
{
    // The timing decorators wrap the very scheduler and eviction
    // objects makeCoServeEngine builds, so tracing must not move the
    // simulated answer.
    SetupTimes times;
    std::unique_ptr<Workload> wl = Workload::setUp(
        WorkloadKind::EngineLine, 11, ::testing::TempDir(), times);
    EXPECT_GT(times.total(), 0.0);
    HostSample plainHost, tracedHost;
    const Answer plain = wl->serve(1, nullptr, plainHost);
    SpanRecorder rec;
    const Answer traced = wl->serve(1, &rec, tracedHost);
    EXPECT_TRUE(plain.conserved());
    EXPECT_EQ(plain.fingerprint(), traced.fingerprint());
    const auto totals = totalsByName(rec.spans());
    ASSERT_EQ(totals.count("ServingEngine::run"), 1u);
    EXPECT_EQ(totals.at("ServingEngine::run").calls, 1);
    EXPECT_GE(totals.at("Scheduler::dispatch").calls, plain.arrivals);
    EXPECT_GT(plainHost.wallS, 0.0);
}
