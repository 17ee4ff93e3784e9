/**
 * @file
 * Tests for the SLO-aware serving layer (src/slo + its threading
 * through workload, runtime and cluster): the streaming quantile
 * sketch, EDF-within-priority queue order and its interaction with
 * work stealing, the admission controller, the SLO trace generators,
 * steal-aware shared-tier hints, end-to-end engine accounting, and
 * the online coordinator's admission + autoscaling.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/report.h"
#include "runtime/memory_tier.h"
#include "runtime/queue.h"
#include "slo/admission.h"
#include "slo/quantile_sketch.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace coserve {
namespace {

// ------------------------------------------------- QuantileSketch

TEST(QuantileSketchTest, TracksQuantilesWithinRelativeError)
{
    QuantileSketch sketch(0.01);
    // Deterministic skewed stream: latencies 1..4000 ms, squared
    // spacing so the tail is sparse (like real latency tails).
    std::vector<double> xs;
    for (int i = 1; i <= 2000; ++i) {
        const double x = 0.001 * i * i;
        xs.push_back(x);
        sketch.add(x);
    }
    std::sort(xs.begin(), xs.end());
    for (double q : {0.5, 0.95, 0.99}) {
        const double exact =
            xs[static_cast<std::size_t>(q * (xs.size() - 1))];
        const double est = sketch.quantile(q);
        EXPECT_NEAR(est, exact, exact * 0.03)
            << "q=" << q; // 1% sketch + nearest-rank slack
    }
    EXPECT_EQ(sketch.count(), 2000u);
    EXPECT_DOUBLE_EQ(sketch.min(), 0.001);
    EXPECT_DOUBLE_EQ(sketch.max(), 4000.0);
}

TEST(QuantileSketchTest, MergeMatchesCombinedStream)
{
    QuantileSketch a(0.01), b(0.01), combined(0.01);
    for (int i = 0; i < 500; ++i) {
        const double xa = 1.0 + i * 0.5;
        const double xb = 200.0 + i * 2.0;
        a.add(xa);
        combined.add(xa);
        b.add(xb);
        combined.add(xb);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    for (double q : {0.25, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q)) << q;
}

TEST(QuantileSketchTest, EmptyAndZeroHandling)
{
    QuantileSketch s;
    EXPECT_EQ(s.quantile(0.5), 0.0);
    s.add(0.0);
    s.add(0.0);
    s.add(10.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_NEAR(s.quantile(1.0), 10.0, 10.0 * 0.021);
}

// ------------------------------------------- EDF queue pop order

Request
slotRequest(RequestId id, ExpertId expert, RequestClass cls,
            Time deadline)
{
    Request r;
    r.id = id;
    r.imageId = id;
    r.component = 0;
    r.expert = expert;
    r.cls = cls;
    r.deadline = deadline;
    return r;
}

TEST(SloQueueTest, ClasslessQueueKeepsHeadOrder)
{
    RequestQueue q;
    q.pushGrouped(slotRequest(0, 3, RequestClass::None, kTimeNever), 10);
    q.pushGrouped(slotRequest(1, 5, RequestClass::None, kTimeNever), 10);
    q.pushGrouped(slotRequest(2, 3, RequestClass::None, kTimeNever), 10);
    EXPECT_FALSE(q.sloOrdered());
    EXPECT_EQ(q.nextBatchExpert(), 3);
    EXPECT_EQ(q.prefetchExpert(), q.nextDistinctExpert());

    std::vector<Request> batch;
    q.popBatchFor(q.nextBatchExpert(), 8, batch);
    ASSERT_EQ(batch.size(), 2u); // grouped: both expert-3 requests
    EXPECT_EQ(batch[0].id, 0);
    EXPECT_EQ(batch[1].id, 2);
    EXPECT_EQ(q.nextBatchExpert(), 5);
}

TEST(SloQueueTest, EdfWithinPriorityPopOrder)
{
    RequestQueue q;
    // Arrival order: best-effort, batch (late deadline), interactive
    // (late), interactive (early, different expert).
    q.pushGrouped(slotRequest(0, 1, RequestClass::BestEffort, kTimeNever),
                  10);
    q.pushGrouped(slotRequest(1, 2, RequestClass::Batch, seconds(9)), 10);
    q.pushGrouped(
        slotRequest(2, 3, RequestClass::Interactive, seconds(5)), 10);
    q.pushGrouped(
        slotRequest(3, 4, RequestClass::Interactive, seconds(2)), 10);
    EXPECT_TRUE(q.sloOrdered());

    // Highest priority first; EDF inside the class.
    EXPECT_EQ(q.nextBatchExpert(), 4);
    // The batch that runs after expert 4: the other interactive.
    EXPECT_EQ(q.prefetchExpert(), 3);

    std::vector<Request> batch;
    q.popBatchFor(4, 8, batch);
    EXPECT_EQ(q.nextBatchExpert(), 3);
    q.popBatchFor(3, 8, batch);
    EXPECT_EQ(q.nextBatchExpert(), 2); // batch class before best-effort
    q.popBatchFor(2, 8, batch);
    EXPECT_EQ(q.nextBatchExpert(), 1);
    q.popBatchFor(1, 8, batch);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.sloOrdered());
    EXPECT_EQ(q.pendingWork(), 0);
}

TEST(SloQueueTest, UrgentGroupMemberPullsWholeGroup)
{
    RequestQueue q;
    // Expert 7's group holds a best-effort member and an interactive
    // member (grouped insertion puts them adjacent); the interactive
    // one makes the whole group pop first.
    q.pushGrouped(slotRequest(0, 5, RequestClass::Batch, seconds(3)), 10);
    q.pushGrouped(slotRequest(1, 7, RequestClass::BestEffort, kTimeNever),
                  10);
    q.pushGrouped(
        slotRequest(2, 7, RequestClass::Interactive, seconds(8)), 10);
    EXPECT_EQ(q.nextBatchExpert(), 7);
    std::vector<Request> batch;
    q.popBatchFor(7, 8, batch);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 1);
    EXPECT_EQ(batch[1].id, 2);
    EXPECT_EQ(q.countForExpert(7), 0);
    EXPECT_EQ(q.countForExpert(5), 1);
}

// --------------------------- stealFromTail x EDF (satellite test)

TEST(SloQueueTest, StealFromTailKeepsHeadAndGroupsUnderEdf)
{
    RequestQueue q;
    // Mixed-urgency queue: head group (expert 1), a hot interactive
    // group (expert 2), and a best-effort tail (expert 3).
    q.pushGrouped(slotRequest(0, 1, RequestClass::Batch, seconds(4)), 5);
    q.pushGrouped(
        slotRequest(1, 2, RequestClass::Interactive, seconds(1)), 5);
    q.pushGrouped(
        slotRequest(2, 2, RequestClass::Interactive, seconds(2)), 5);
    q.pushGrouped(slotRequest(3, 3, RequestClass::BestEffort, kTimeNever),
                  5);
    q.pushGrouped(slotRequest(4, 3, RequestClass::BestEffort, kTimeNever),
                  5);
    ASSERT_TRUE(q.sloOrdered());
    ASSERT_EQ(q.size(), 5u);

    // Steal everything stealable: the head request must survive.
    std::vector<Request> loot;
    const int got = q.stealFromTail(8, loot);
    EXPECT_EQ(got, 4);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.headExpert(), 1);
    EXPECT_EQ(q.nextBatchExpert(), 1); // EDF selection still works

    // Group index integrity after tail-stealing urgent entries.
    EXPECT_EQ(q.countForExpert(1), 1);
    EXPECT_EQ(q.countForExpert(2), 0);
    EXPECT_EQ(q.countForExpert(3), 0);
    EXPECT_FALSE(q.containsExpert(2));
    EXPECT_EQ(q.pendingWork(), 5);

    // The queue remains fully usable: EDF re-activates on new urgent
    // work and popBatchFor drains cleanly.
    q.pushGrouped(
        slotRequest(5, 9, RequestClass::Interactive, seconds(1)), 5);
    EXPECT_TRUE(q.sloOrdered());
    EXPECT_EQ(q.nextBatchExpert(), 9);
    std::vector<Request> batch;
    q.popBatchFor(9, 8, batch);
    q.popBatchFor(1, 8, batch);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingWork(), 0);
}

TEST(SloQueueTest, FifoQueuePopsTheUrgentRunNotTheFirst)
{
    // FIFO (pushBack) queue with two disjoint runs of expert 1: the
    // head run is old deadline-less work, the tail run holds the
    // interactive request that makes expert 1 the EDF pick. The pop
    // must serve the urgent run — not invert behind the stale one.
    RequestQueue q;
    q.pushBack(slotRequest(0, 1, RequestClass::None, kTimeNever), 5);
    q.pushBack(slotRequest(1, 2, RequestClass::None, kTimeNever), 5);
    q.pushBack(
        slotRequest(2, 1, RequestClass::Interactive, seconds(1)), 5);
    EXPECT_EQ(q.nextBatchExpert(), 1);
    std::vector<Request> batch;
    q.popBatchFor(1, 8, batch);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].id, 2); // the urgent member, not the head
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.headExpert(), 1);
    EXPECT_EQ(q.countForExpert(1), 1);

    // Regression: popping the run that held GroupInfo::last must hand
    // the role to the surviving earlier member — a dangling index
    // aborted the next pop (and corrupted grouped insertion).
    q.pushGrouped(
        slotRequest(3, 1, RequestClass::Interactive, seconds(1)), 5);
    EXPECT_EQ(q.countForExpert(1), 2);
    q.popBatchFor(1, 8, batch);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 0);
    EXPECT_EQ(batch[1].id, 3); // grouped right behind the survivor
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.headExpert(), 2);
}

TEST(SloQueueTest, StealFilterSeesDeadlines)
{
    RequestQueue q;
    q.pushGrouped(slotRequest(0, 1, RequestClass::None, kTimeNever), 5);
    q.pushGrouped(
        slotRequest(1, 2, RequestClass::Interactive, seconds(1)), 5);
    q.pushGrouped(slotRequest(2, 3, RequestClass::BestEffort, kTimeNever),
                  5);
    // A deadline-aware filter (the coordinator's at-risk pass) takes
    // only the request that would violate.
    std::vector<Request> loot;
    const int got = q.stealFromTail(8, loot, [](const Request &r) {
        return r.deadline != kTimeNever && r.deadline < seconds(2);
    });
    EXPECT_EQ(got, 1);
    ASSERT_EQ(loot.size(), 1u);
    EXPECT_EQ(loot[0].id, 1);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.countForExpert(2), 0);
}

// ------------------------------ cached pop order vs. a scan oracle

/** Strict "more urgent than": higher priority, then earlier EDF. */
bool
refMoreUrgent(const Request &a, int prio, Time deadline)
{
    const int p = priorityOf(a.cls);
    return p > prio || (p == prio && a.deadline < deadline);
}

/**
 * A plain vector of queued requests with the pop order the queue had
 * before it cached the pair: every query scans from the front.
 */
struct RefQueue
{
    std::vector<Request> items;
    bool plainInserts = false;

    bool
    urgent() const
    {
        return std::any_of(items.begin(), items.end(), [](const Request &r) {
            return r.deadline != kTimeNever || priorityOf(r.cls) != 0;
        });
    }

    void
    pushBack(const Request &r)
    {
        plainInserts = true;
        items.push_back(r);
    }

    void
    pushGrouped(const Request &r)
    {
        for (std::size_t i = items.size(); i-- > 0;) {
            if (items[i].expert == r.expert) {
                items.insert(items.begin() + static_cast<long>(i) + 1, r);
                return;
            }
        }
        items.push_back(r);
    }

    /** The first request of maximal urgency names the expert. */
    ExpertId
    best() const
    {
        if (items.empty())
            return kNoExpert;
        if (!urgent())
            return items.front().expert;
        const Request *top = &items.front();
        for (const Request &r : items) {
            if (refMoreUrgent(r, priorityOf(top->cls), top->deadline))
                top = &r;
        }
        return top->expert;
    }

    /** The two-slot scan over distinct experts; answers the runner-up. */
    ExpertId
    prefetch() const
    {
        if (!urgent()) {
            for (const Request &r : items) {
                if (r.expert != items.front().expert)
                    return r.expert;
            }
            return kNoExpert;
        }
        ExpertId best = kNoExpert, second = kNoExpert;
        int bestPrio = 0, secondPrio = 0;
        Time bestDl = kTimeNever, secondDl = kTimeNever;
        for (const Request &r : items) {
            if (r.expert == best) {
                if (refMoreUrgent(r, bestPrio, bestDl)) {
                    bestPrio = priorityOf(r.cls);
                    bestDl = r.deadline;
                }
            } else if (r.expert == second) {
                if (refMoreUrgent(r, secondPrio, secondDl)) {
                    secondPrio = priorityOf(r.cls);
                    secondDl = r.deadline;
                    const int p = secondPrio;
                    if (p > bestPrio ||
                        (p == bestPrio && secondDl < bestDl)) {
                        std::swap(best, second);
                        std::swap(bestPrio, secondPrio);
                        std::swap(bestDl, secondDl);
                    }
                }
            } else if (best == kNoExpert ||
                       refMoreUrgent(r, bestPrio, bestDl)) {
                second = best;
                secondPrio = bestPrio;
                secondDl = bestDl;
                best = r.expert;
                bestPrio = priorityOf(r.cls);
                bestDl = r.deadline;
            } else if (second == kNoExpert ||
                       refMoreUrgent(r, secondPrio, secondDl)) {
                second = r.expert;
                secondPrio = priorityOf(r.cls);
                secondDl = r.deadline;
            }
        }
        return second;
    }

    /** The run of @p e popBatchFor takes: the urgent one when FIFO. */
    std::vector<RequestId>
    popBatchFor(ExpertId e, int maxCount)
    {
        std::size_t start = 0;
        while (items[start].expert != e)
            ++start;
        if (urgent() && plainInserts) {
            std::size_t top = start;
            for (std::size_t i = start + 1; i < items.size(); ++i) {
                if (items[i].expert == e &&
                    refMoreUrgent(items[i], priorityOf(items[top].cls),
                                  items[top].deadline))
                    top = i;
            }
            start = top;
            while (start > 0 && items[start - 1].expert == e)
                --start;
        }
        std::vector<RequestId> ids;
        std::size_t end = start;
        while (end < items.size() && items[end].expert == e &&
               ids.size() < static_cast<std::size_t>(maxCount))
            ids.push_back(items[end++].id);
        items.erase(items.begin() + static_cast<long>(start),
                    items.begin() + static_cast<long>(end));
        return ids;
    }

    /** Newest first, never the head, skipping what @p allow rejects. */
    std::vector<RequestId>
    steal(int maxCount, const RequestQueue::StealFilter &allow)
    {
        std::vector<RequestId> ids;
        for (std::size_t i = items.size(); i-- > 1 &&
                                           ids.size() <
                                               static_cast<std::size_t>(
                                                   maxCount);) {
            if (allow && !allow(items[i]))
                continue;
            ids.push_back(items[i].id);
            items.erase(items.begin() + static_cast<long>(i));
        }
        return ids;
    }
};

std::vector<RequestId>
idsOf(const std::vector<Request> &reqs)
{
    std::vector<RequestId> ids;
    for (const Request &r : reqs)
        ids.push_back(r.id);
    return ids;
}

/**
 * Seeded random pushes, pops, steals and drains over all four classes,
 * with deadlines from a set of three so that (priority, deadline)
 * ties across experts are common. After every step the queue must
 * agree with the scan oracle on both picks, and on the requests each
 * removal takes.
 */
void
runPopOrderOracle(std::uint64_t seed, bool fifo)
{
    RequestQueue q;
    RefQueue ref;
    Rng rng(seed);
    const RequestClass classes[] = {
        RequestClass::Interactive, RequestClass::Batch,
        RequestClass::BestEffort, RequestClass::None};
    RequestId nextId = 0;
    std::vector<Request> out;
    for (int step = 0; step < 4000; ++step) {
        const double op = rng.uniform();
        if (op < 0.55) {
            const RequestClass cls = classes[rng.uniformInt(4)];
            const std::uint64_t dl = rng.uniformInt(4);
            const Time deadline =
                cls == RequestClass::None || dl == 3
                    ? kTimeNever
                    : seconds(static_cast<double>(dl + 1));
            const Request r = slotRequest(
                nextId++, static_cast<ExpertId>(rng.uniformInt(6)), cls,
                deadline);
            if (fifo && rng.bernoulli(0.5)) {
                q.pushBack(r, 1);
                ref.pushBack(r);
            } else {
                q.pushGrouped(r, 1);
                ref.pushGrouped(r);
            }
        } else if (op < 0.85) {
            if (q.empty())
                continue;
            const int maxCount = 1 + static_cast<int>(rng.uniformInt(4));
            const ExpertId e = q.nextBatchExpert();
            ASSERT_EQ(e, ref.best()) << "seed " << seed << " step " << step;
            q.popBatchFor(e, maxCount, out);
            ASSERT_EQ(idsOf(out), ref.popBatchFor(e, maxCount))
                << "seed " << seed << " step " << step;
        } else if (op < 0.99) {
            RequestQueue::StealFilter allow;
            if (rng.bernoulli(0.5)) {
                allow = [](const Request &r) {
                    return r.deadline != kTimeNever || r.id % 3 == 0;
                };
            }
            const int maxCount = 1 + static_cast<int>(rng.uniformInt(5));
            out.clear();
            q.stealFromTail(maxCount, out, allow);
            ASSERT_EQ(idsOf(out), ref.steal(maxCount, allow))
                << "seed " << seed << " step " << step;
        } else {
            out.clear();
            q.drainAll(out);
            ASSERT_EQ(idsOf(out), idsOf(ref.items));
            ref.items.clear();
        }
        // Query on most steps, so insertions usually meet a valid
        // cached pair; skipped queries leave it to be rebuilt.
        if (rng.bernoulli(0.8)) {
            const bool prefetchFirst = rng.bernoulli(0.5);
            if (prefetchFirst) {
                ASSERT_EQ(q.prefetchExpert(), ref.prefetch())
                    << "seed " << seed << " step " << step;
            }
            ASSERT_EQ(q.nextBatchExpert(), ref.best())
                << "seed " << seed << " step " << step;
            ASSERT_EQ(q.prefetchExpert(), ref.prefetch())
                << "seed " << seed << " step " << step;
        }
        ASSERT_EQ(q.size(), ref.items.size());
        ASSERT_EQ(q.sloOrdered(), ref.urgent());
    }
    EXPECT_EQ(idsOf(q.snapshot()), idsOf(ref.items));
}

TEST(SloQueueTest, CachedPopOrderMatchesScanOracleGrouped)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5, 6})
        runPopOrderOracle(seed, /*fifo=*/false);
}

TEST(SloQueueTest, CachedPopOrderMatchesScanOracleFifo)
{
    for (std::uint64_t seed : {11, 12, 13, 14, 15, 16})
        runPopOrderOracle(seed, /*fifo=*/true);
}

// ------------------------------------------- AdmissionController

TEST(AdmissionTest, VerdictsFollowPredictedCompletion)
{
    AdmissionConfig cfg;
    cfg.enabled = true;
    cfg.downgrade = true;
    const AdmissionController ctl(cfg);

    // Feasible: predicted before deadline.
    EXPECT_EQ(ctl.assess(RequestClass::Interactive, 0, seconds(1),
                         milliseconds(500)),
              AdmissionVerdict::Admit);
    // Infeasible: downgrade when allowed.
    EXPECT_EQ(ctl.assess(RequestClass::Interactive, 0, seconds(1),
                         seconds(2)),
              AdmissionVerdict::Downgrade);
    // No deadline or classless: always admitted.
    EXPECT_EQ(ctl.assess(RequestClass::Interactive, 0, kTimeNever,
                         seconds(100)),
              AdmissionVerdict::Admit);
    EXPECT_EQ(ctl.assess(RequestClass::None, 0, seconds(1), seconds(9)),
              AdmissionVerdict::Admit);
    // Best-effort (the downgrade target) is never shed.
    EXPECT_EQ(ctl.assess(RequestClass::BestEffort, 0, seconds(1),
                         seconds(9)),
              AdmissionVerdict::Admit);

    AdmissionConfig hard = cfg;
    hard.downgrade = false;
    const AdmissionController rejecting(hard);
    EXPECT_EQ(rejecting.assess(RequestClass::Interactive, 0, seconds(1),
                               seconds(2)),
              AdmissionVerdict::Reject);

    // Slack scales the budget: 2x slack admits a 1.5x-budget miss.
    AdmissionConfig slack = cfg;
    slack.slack = 2.0;
    const AdmissionController lenient(slack);
    EXPECT_EQ(lenient.assess(RequestClass::Batch, 0, seconds(1),
                             milliseconds(1500)),
              AdmissionVerdict::Admit);
    EXPECT_EQ(lenient.assess(RequestClass::Batch, 0, seconds(1),
                             milliseconds(2500)),
              AdmissionVerdict::Downgrade);

    const AdmissionController off{AdmissionConfig{}};
    EXPECT_EQ(off.assess(RequestClass::Interactive, 0, seconds(1),
                         seconds(9)),
              AdmissionVerdict::Admit);
}

// --------------------------------------------- trace generators

TEST(SloTraceTest, MultiTenantTraceIsSortedClassedAndDeterministic)
{
    const CoEModel model = buildBoard(tinyBoard());
    TenantSpec interactive;
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 50.0;
    interactive.latencyBudget = milliseconds(200);
    interactive.diurnalAmplitude = 0.8;
    interactive.diurnalPeriod = seconds(10);
    TenantSpec bursty;
    bursty.cls = RequestClass::BestEffort;
    bursty.ratePerSec = 20.0;
    bursty.arrivals = ArrivalProcess::MMPP;
    bursty.mmppBurstFactor = 8.0;

    const Trace a =
        generateSloTrace(model, {interactive, bursty}, seconds(30), 7);
    const Trace b =
        generateSloTrace(model, {interactive, bursty}, seconds(30), 7);
    ASSERT_GT(a.size(), 500u);
    ASSERT_EQ(a.size(), b.size());

    Time prev = 0;
    std::size_t classed = 0, deadlineless = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const ImageArrival &x = a.arrivals[i];
        EXPECT_GE(x.time, prev);
        prev = x.time;
        EXPECT_LT(x.time, seconds(30));
        EXPECT_GE(x.component, 0);
        if (x.cls == RequestClass::Interactive) {
            classed += 1;
            EXPECT_EQ(x.deadline, x.time + milliseconds(200));
        } else {
            EXPECT_EQ(x.cls, RequestClass::BestEffort);
            EXPECT_EQ(x.deadline, kTimeNever);
            deadlineless += 1;
        }
        EXPECT_EQ(x.time, b.arrivals[i].time);
        EXPECT_EQ(x.component, b.arrivals[i].component);
    }
    EXPECT_GT(classed, 0u);
    EXPECT_GT(deadlineless, 0u);
}

TEST(SloTraceTest, MmppTaskArrivalsAreMonotoneAndBursty)
{
    const CoEModel model = buildBoard(tinyBoard());
    TaskSpec task;
    task.name = "mmpp";
    task.numImages = 2000;
    task.interarrival = milliseconds(10);
    task.arrivals = ArrivalProcess::MMPP;
    task.mmppBurstFactor = 16.0;
    task.seed = 3;
    const Trace t = generateTrace(model, task);
    ASSERT_EQ(t.size(), 2000u);
    Time prev = 0;
    std::size_t shortGaps = 0;
    for (const ImageArrival &a : t.arrivals) {
        EXPECT_GE(a.time, prev);
        if (a.time - prev < milliseconds(2))
            shortGaps += 1;
        prev = a.time;
    }
    // Burst states compress gaps far below the calm mean.
    EXPECT_GT(shortGaps, 200u);
}

// --------------------------------- shared-tier steal hint (satellite)

TEST(SloSharedTierTest, HintProtectsUpcomingLoadsFromEviction)
{
    SharedCpuTier tier(300);
    ASSERT_TRUE(tier.admit(1, 100, 0));
    ASSERT_TRUE(tier.admit(2, 100, 0));
    ASSERT_TRUE(tier.admit(3, 100, 0));
    // Expert 1 is the LRU victim-to-be; a steal hint refreshes it.
    EXPECT_EQ(tier.hintUpcomingLoads({1, 99}), 1u);
    EXPECT_EQ(tier.stealHintsProtected(), 1);
    // New admission must evict someone — not the hinted expert.
    ASSERT_TRUE(tier.admit(4, 100, 0));
    EXPECT_TRUE(tier.holds(1));
    EXPECT_FALSE(tier.holds(2)); // oldest unhinted entry paid
    EXPECT_TRUE(tier.holds(4));
}

// ------------------------------------------------ report gating

TEST(SloReportTest, StealSectionGatedOnFeatureFlag)
{
    ClusterResult r;
    r.label = "gate";
    r.routing = "least-loaded";
    r.images = 10;
    r.makespan = seconds(1);
    r.stolenRequests = 7; // e.g. autoscale evacuations miscounted
    r.stolenFromReplica = {7};
    r.stolenToReplica = {0};
    r.replicas.resize(1);
    r.workStealingEnabled = false;
    EXPECT_EQ(summarize(r).find("stolen"), std::string::npos);
    r.workStealingEnabled = true;
    EXPECT_NE(summarize(r).find("7 requests stolen"), std::string::npos);
    // No SLO traffic -> no SLO section.
    EXPECT_EQ(summarize(r).find("SLO goodput"), std::string::npos);
}

// ---------------------------------------------- end-to-end engine

class SloServingFixture : public ::testing::Test
{
  protected:
    SloServingFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        cfg_ = coserveConfig(
            ctx_,
            coserveExecutorLayout(ctx_, 1, 0,
                                  (minCount + maxCount) / 2),
            "slo-engine");

        TenantSpec interactive;
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 40.0;
        interactive.latencyBudget = milliseconds(500);
        TenantSpec batch;
        batch.cls = RequestClass::Batch;
        batch.ratePerSec = 30.0;
        batch.latencyBudget = seconds(3);
        TenantSpec bestEffort;
        bestEffort.cls = RequestClass::BestEffort;
        bestEffort.ratePerSec = 10.0;
        bestEffort.arrivals = ArrivalProcess::MMPP;
        bestEffort.mmppBurstFactor = 6.0;
        trace_ = generateSloTrace(model_,
                                  {interactive, batch, bestEffort},
                                  seconds(15), 0x510);
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

TEST_F(SloServingFixture, EngineTracksPerClassStats)
{
    auto engine = makeCoServeEngine(ctx_, cfg_);
    const RunResult r = engine->run(trace_);
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_TRUE(r.slo.any());
    EXPECT_EQ(r.slo.completed(),
              static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.slo.sloMet() + r.slo.violated(), r.slo.completed());
    // Per-class sketches saw every completion.
    std::uint64_t sketched = 0;
    for (const SloClassStats &c : r.slo.perClass)
        sketched += c.latencyMs.count();
    EXPECT_EQ(sketched, static_cast<std::uint64_t>(r.slo.completed()));
    EXPECT_GT(r.slo.goodput(r.makespan), 0.0);
    // The report prints the SLO section for classed runs.
    EXPECT_NE(summarize(r).find("SLO goodput"), std::string::npos);
}

TEST_F(SloServingFixture, AdmissionRejectsInfeasibleDeadlines)
{
    EngineConfig cfg = cfg_;
    cfg.admission.enabled = true;
    cfg.admission.downgrade = false;

    // Impossible budgets: every classed-with-deadline arrival must be
    // rejected, and the run must still reconcile.
    Trace impossible = trace_;
    std::int64_t deadlined = 0;
    for (ImageArrival &a : impossible.arrivals) {
        if (a.deadline != kTimeNever) {
            a.deadline = a.time + 1; // 1 ns budget
            deadlined += 1;
        }
    }
    auto engine = makeCoServeEngine(ctx_, cfg);
    const RunResult r = engine->run(impossible);
    EXPECT_EQ(r.slo.rejected(), deadlined);
    EXPECT_EQ(r.images,
              static_cast<std::int64_t>(impossible.size()) - deadlined);
    EXPECT_EQ(r.slo.downgraded(), 0);
}

TEST_F(SloServingFixture, DowngradeKeepsDeadlineAccounting)
{
    EngineConfig cfg = cfg_;
    cfg.admission.enabled = true; // downgrade on (default)

    Trace impossible = trace_;
    std::int64_t deadlined = 0;
    for (ImageArrival &a : impossible.arrivals) {
        if (a.deadline != kTimeNever) {
            a.deadline = a.time + 1;
            deadlined += 1;
        }
    }
    auto engine = makeCoServeEngine(ctx_, cfg);
    const RunResult r = engine->run(impossible);
    // Everything runs (downgraded, not dropped)...
    EXPECT_EQ(r.images, static_cast<std::int64_t>(impossible.size()));
    EXPECT_EQ(r.slo.downgraded(), deadlined);
    // ...but late completions count as violations under best-effort,
    // never as met: goodput cannot be inflated by shedding.
    EXPECT_EQ(r.slo.of(RequestClass::BestEffort).violated, deadlined);
}

TEST_F(SloServingFixture, ClasslessTraceKeepsSloEmpty)
{
    Trace plain = trace_;
    for (ImageArrival &a : plain.arrivals) {
        a.cls = RequestClass::None;
        a.deadline = kTimeNever;
    }
    auto engine = makeCoServeEngine(ctx_, cfg_);
    const RunResult r = engine->run(plain);
    EXPECT_FALSE(r.slo.any());
    EXPECT_EQ(summarize(r).find("SLO goodput"), std::string::npos);
}

// ------------------------------------------------ cluster online

class SloClusterFixture : public SloServingFixture
{
  protected:
    ClusterConfig
    onlineConfig(bool autoscale) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, 4, RoutingPolicy::LeastLoaded, "slo-cluster");
        cc.workStealing.enabled = true;
        cc.admission.enabled = true;
        if (autoscale) {
            cc.autoscale.enabled = true;
            cc.autoscale.interval = milliseconds(500);
            cc.autoscale.cooldown = seconds(1);
            cc.autoscale.minReplicas = 1;
        }
        return cc;
    }
};

TEST_F(SloClusterFixture, OnlineSloServingReconcilesAndIsDeterministic)
{
    for (bool autoscale : {false, true}) {
        ClusterEngine a(onlineConfig(autoscale));
        ClusterEngine b(onlineConfig(autoscale));
        const ClusterResult ra = a.run(trace_, runWithMode(RunMode::Online));
        const ClusterResult rb = b.run(trace_, runWithMode(RunMode::Online));

        // The decision stream (routes + admission verdicts + scale
        // actions) must match before any aggregate does.
        EXPECT_EQ(ra.decisionDigest, rb.decisionDigest);

        // Conservation: completed + rejected == arrivals.
        EXPECT_EQ(ra.images + ra.slo.rejected(),
                  static_cast<std::int64_t>(trace_.size()));
        EXPECT_EQ(ra.slo.completed() +
                      static_cast<std::int64_t>(
                          ra.slo.rejected()),
                  static_cast<std::int64_t>(trace_.size()));

        // Bit-identical run to run, autoscale included.
        EXPECT_EQ(ra.images, rb.images);
        EXPECT_EQ(ra.makespan, rb.makespan);
        EXPECT_EQ(ra.eventsExecuted, rb.eventsExecuted);
        EXPECT_EQ(ra.slo.rejected(), rb.slo.rejected());
        EXPECT_EQ(ra.slo.downgraded(), rb.slo.downgraded());
        EXPECT_EQ(ra.slo.violated(), rb.slo.violated());
        EXPECT_EQ(ra.autoscaleActivations, rb.autoscaleActivations);
        EXPECT_EQ(ra.autoscaleQuiesces, rb.autoscaleQuiesces);
        EXPECT_EQ(ra.autoscaleEvacuated, rb.autoscaleEvacuated);
        EXPECT_DOUBLE_EQ(ra.avgActiveReplicas, rb.avgActiveReplicas);
        EXPECT_DOUBLE_EQ(ra.slo.goodput(ra.makespan),
                         rb.slo.goodput(rb.makespan));

        if (autoscale) {
            EXPECT_TRUE(ra.autoscaleEnabled);
            EXPECT_GT(ra.avgActiveReplicas, 0.0);
            EXPECT_LE(ra.avgActiveReplicas, 4.0);
        } else {
            EXPECT_FALSE(ra.autoscaleEnabled);
        }
    }
}

TEST_F(SloClusterFixture, AutoscaleStartupCoversHeterogeneousCluster)
{
    // Replica 0 was never profiled for ResNet101 (every classifier's
    // arch): an autoscaler starting with only replica 0 active must
    // grow the initial active set until every component chain is
    // servable, or the router aborts on the first arrival.
    const LatencyModel full = LatencyModel::calibrated(device_);
    LatencyModel partial;
    for (ArchId arch : {ArchId::YoloV5m, ArchId::YoloV5l}) {
        for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU})
            partial.setParams(arch, proc, full.params(arch, proc));
    }
    CoServeContext partialCtx(device_, model_, std::move(partial), {});

    ClusterConfig cc = heterogeneousCluster(
        {{&partialCtx, cfg_}, {&ctx_, cfg_}},
        RoutingPolicy::LeastLoaded, "hetero-scale");
    cc.autoscale.enabled = true;
    cc.autoscale.interval = milliseconds(500);
    cc.autoscale.minReplicas = 1;
    cc.autoscale.startReplicas = 1; // replica 0 alone cannot serve

    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
}

TEST_F(SloClusterFixture, QuiesceEvacuatesQueuedWork)
{
    // Force a quiesce while queues are non-empty: thresholds that
    // always consider the cluster scale-down-able, stealing off so
    // the evacuated counter is unambiguous.
    ClusterConfig cc = homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::LeastLoaded, "evac");
    cc.autoscale.enabled = true;
    cc.autoscale.interval = milliseconds(250);
    cc.autoscale.cooldown = milliseconds(250);
    cc.autoscale.minReplicas = 1;
    cc.autoscale.startReplicas = 4; // start full, drain down to 1
    cc.autoscale.violationLow = 2.0; // any violation rate passes
    cc.autoscale.backlogLow = 1000;  // any backlog passes
    cc.autoscale.backlogHigh = 100000;
    cc.autoscale.violationHigh = 2.0; // never scale up

    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.autoscaleQuiesces, 3); // down to minReplicas
    EXPECT_GT(r.autoscaleEvacuated, 0);
    // Evacuations must not leak into the (stealing-off) steal section.
    EXPECT_FALSE(r.workStealingEnabled);
    EXPECT_EQ(r.stolenRequests, 0);
    EXPECT_EQ(summarize(r).find("stolen"), std::string::npos);
    EXPECT_NE(summarize(r).find("autoscale:"), std::string::npos);
}

} // namespace
} // namespace coserve
