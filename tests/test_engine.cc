/**
 * @file
 * Integration tests for the serving engine on a small board and a tiny
 * device: completion, determinism, prefetch overlap, cache tier, the
 * effect of grouped scheduling on switch counts, and the tie order of
 * arrivals against engine events.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baselines/evictions.h"
#include "baselines/schedulers.h"
#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "core/coserve.h"
#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "runtime/engine.h"
#include "workload/generator.h"

namespace coserve {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;

/** Shared fixture: tiny board on the tiny NUMA test device. */
class EngineFixture : public ::testing::Test
{
  protected:
    EngineFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          truth_(LatencyModel::calibrated(device_)),
          footprint_(FootprintModel::calibrated(device_)),
          usage_(UsageProfile::exact(model_))
    {
        TaskSpec task;
        task.name = "tiny";
        task.numImages = 300;
        task.seed = 5;
        trace_ = generateTrace(model_, task);
    }

    EngineConfig
    smallConfig(int gpuExecs, std::int64_t gpuPoolMB) const
    {
        EngineConfig cfg;
        cfg.label = "test";
        cfg.device = device_;
        for (int i = 0; i < gpuExecs; ++i) {
            ExecutorConfig e;
            e.kind = ProcKind::GPU;
            e.poolBytes = gpuPoolMB * kMB / gpuExecs;
            e.batchMemBytes = 800 * kMB / gpuExecs;
            cfg.executors.push_back(e);
        }
        EngineConfig tmp = cfg;
        fillMaxBatchTable(cfg, truth_);
        return cfg;
    }

    RunResult
    runWith(EngineConfig cfg, std::unique_ptr<Scheduler> sched,
            std::unique_ptr<EvictionPolicy> evict)
    {
        ServingEngine engine(std::move(cfg), model_, truth_, footprint_,
                             usage_, std::move(sched), std::move(evict));
        return engine.run(trace_);
    }

    DeviceSpec device_;
    CoEModel model_;
    LatencyModel truth_;
    FootprintModel footprint_;
    UsageProfile usage_;
    Trace trace_;
};

TEST_F(EngineFixture, AllImagesComplete)
{
    const RunResult r =
        runWith(smallConfig(1, 800),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_EQ(r.images, 300);
    EXPECT_GE(r.inferences, r.images);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GE(r.makespan, trace_.arrivals.back().time);
}

TEST_F(EngineFixture, NoSwitchesWhenEverythingFits)
{
    // 15 experts * ~190 MiB < 4 GiB: the preload holds the whole pool.
    const RunResult r =
        runWith(smallConfig(1, 4000),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_EQ(r.switches.total(), 0);
    EXPECT_EQ(r.switches.evictions, 0);
}

TEST_F(EngineFixture, SwitchesHappenUnderPressure)
{
    const RunResult r =
        runWith(smallConfig(1, 800), // ~4 experts of 15 fit
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_GT(r.switches.total(), 0);
    EXPECT_GT(r.switches.evictions, 0);
    EXPECT_GT(r.switches.bytesLoaded, 0);
}

TEST_F(EngineFixture, DeterministicAcrossRuns)
{
    const RunResult a =
        runWith(smallConfig(2, 1200),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    const RunResult b =
        runWith(smallConfig(2, 1200),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.switches.total(), b.switches.total());
    EXPECT_EQ(a.inferences, b.inferences);
    EXPECT_EQ(a.assignments, b.assignments);
}

TEST_F(EngineFixture, GroupedInsertionReducesSwitches)
{
    const RunResult plain =
        runWith(smallConfig(1, 800),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    const RunResult grouped =
        runWith(smallConfig(1, 800),
                std::make_unique<RoundRobinScheduler>(true),
                std::make_unique<LruEviction>());
    EXPECT_LT(grouped.switches.total(), plain.switches.total());
    EXPECT_LT(grouped.makespan, plain.makespan);
}

TEST_F(EngineFixture, PrefetchOverlapsLoads)
{
    EngineConfig withPf = smallConfig(1, 800);
    withPf.prefetch = true;
    EngineConfig noPf = smallConfig(1, 800);
    noPf.prefetch = false;

    const RunResult a = runWith(std::move(withPf),
                                std::make_unique<RoundRobinScheduler>(true),
                                std::make_unique<TwoStageEviction>());
    const RunResult b = runWith(std::move(noPf),
                                std::make_unique<RoundRobinScheduler>(true),
                                std::make_unique<TwoStageEviction>());
    EXPECT_GT(a.switches.prefetchLoads, 0);
    EXPECT_EQ(b.switches.prefetchLoads, 0);
    // Overlapping switches with execution shortens the run.
    EXPECT_LE(a.makespan, b.makespan);
}

TEST_F(EngineFixture, CacheTierServesRepeatLoads)
{
    EngineConfig cfg = smallConfig(1, 800);
    cfg.cpuCacheTier = true;
    cfg.cpuCacheBytes = 2000 * kMB;
    const RunResult r = runWith(std::move(cfg),
                                std::make_unique<FcfsSingleScheduler>(),
                                std::make_unique<LruEviction>());
    EXPECT_GT(r.switches.loadsFromCache, 0);
    EXPECT_GT(r.switches.demotions, 0);

    const RunResult noCache =
        runWith(smallConfig(1, 800),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_LT(r.makespan, noCache.makespan);
}

TEST_F(EngineFixture, BatchingDisabledMeansSingletons)
{
    EngineConfig cfg = smallConfig(1, 1200);
    cfg.batching = false;
    const RunResult r = runWith(std::move(cfg),
                                std::make_unique<RoundRobinScheduler>(true),
                                std::make_unique<LruEviction>());
    for (const ExecutorStats &es : r.executors)
        EXPECT_LE(es.avgBatchSize, 1.0 + 1e-9);
}

TEST_F(EngineFixture, LatencySamplesMatchInferences)
{
    const RunResult r =
        runWith(smallConfig(1, 800),
                std::make_unique<FcfsSingleScheduler>(),
                std::make_unique<LruEviction>());
    EXPECT_EQ(r.requestLatencyMs.count(),
              static_cast<std::size_t>(r.inferences));
    EXPECT_EQ(r.inferenceLatencyMs.count(),
              static_cast<std::size_t>(r.inferences));
    EXPECT_GT(r.requestLatencyMs.mean(), 0.0);
}

TEST_F(EngineFixture, ExecutorStatsConsistent)
{
    const RunResult r =
        runWith(smallConfig(2, 1200),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());
    std::int64_t requests = 0, switches = 0;
    for (const ExecutorStats &es : r.executors) {
        requests += es.requests;
        switches += es.switches.total();
        EXPECT_GE(es.busyTime, 0);
    }
    EXPECT_EQ(requests, r.inferences);
    EXPECT_EQ(switches, r.switches.total());
}

TEST_F(EngineFixture, EngineIsSingleUse)
{
    ServingEngine engine(smallConfig(1, 800), model_, truth_, footprint_,
                         usage_, std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.run(trace_);
    EXPECT_DEATH(engine.run(trace_), "single-use");
}

TEST_F(EngineFixture, DependencyAwareBeatsFcfsUnderPressure)
{
    EngineConfig cfgA = smallConfig(2, 1200);
    cfgA.prefetch = true;
    const RunResult coserve =
        runWith(std::move(cfgA),
                std::make_unique<DependencyAwareScheduler>(),
                std::make_unique<TwoStageEviction>());

    EngineConfig cfgB = smallConfig(2, 1200);
    cfgB.prefetch = false;
    cfgB.preloadByUsage = false;
    const RunResult fcfs =
        runWith(std::move(cfgB),
                std::make_unique<RoundRobinScheduler>(false),
                std::make_unique<LruEviction>());

    EXPECT_GT(coserve.throughput, fcfs.throughput);
    EXPECT_LT(coserve.switches.total(), fcfs.switches.total());
}

TEST_F(EngineFixture, PredictLoadTimeSemantics)
{
    ServingEngine engine(smallConfig(1, 4000), model_, truth_,
                         footprint_, usage_,
                         std::make_unique<FcfsSingleScheduler>(),
                         std::make_unique<LruEviction>());
    engine.run(trace_); // preloads everything (pool holds all experts)
    // Resident expert: zero switch latency (Section 4.2).
    EXPECT_EQ(engine.predictLoadTime(0, 0), 0);
}

// ------------------------------------------------- arrival event order

/**
 * A hand-made trace whose schedule hinges on (time, seq) tie-breaks:
 * arrivals in triples at one instant, one arrival listed after later
 * ones (out of order), and a triple landing exactly on a batch
 * completion instant. Arrivals take their sequence numbers when
 * run() starts, so at every shared instant they run before any engine
 * event. The pins are the schedule of putting every arrival into the
 * event heap up front; feeding arrivals one at a time must not move
 * them.
 */
class ArrivalOrderFixture : public ::testing::Test
{
  protected:
    ArrivalOrderFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        // One GPU and one CPU executor with a mid-range GPU expert
        // count: the run switches experts, spreads work over both
        // executors, and the tie at the completion instant shows in
        // the switch counts.
        const auto [minCount, maxCount] = gpuExpertCountBounds(ctx_, 1, 1);
        const int count = (minCount + maxCount) / 2;
        cfg_ = coserveConfig(ctx_, coserveExecutorLayout(ctx_, 1, 1, count),
                             "arrival-order");
        TaskSpec task;
        task.name = "arrival-order";
        task.numImages = 40;
        task.seed = 3;
        source_ = generateTrace(model_, task);

        // 30 arrivals in triples, one instant every 4 ms; the triple
        // at 16 ms loses its first arrival to the end of the list.
        for (std::size_t i = 0; i < 30; ++i) {
            ImageArrival a = source_.arrivals[i];
            a.time = milliseconds(4) * static_cast<Time>(i / 3);
            head_.arrivals.push_back(a);
        }
        const ImageArrival late = head_.arrivals[12];
        head_.arrivals.erase(head_.arrivals.begin() + 12);
        head_.arrivals.push_back(late);
    }

    RunResult
    runEngine(const Trace &trace) const
    {
        return makeCoServeEngine(ctx_, cfg_)->run(trace);
    }

    /**
     * head_, then a triple at @p completion (the head's last batch
     * completion) and a pair 4 ms later. Fed one at a time, the second
     * and third arrivals of the triple enter the event heap only after
     * that completion was scheduled.
     */
    Trace
    fullTrace(Time completion) const
    {
        Trace t = head_;
        for (std::size_t i = 30; i < 35; ++i) {
            ImageArrival a = source_.arrivals[i];
            a.time = completion + (i < 33 ? 0 : milliseconds(4));
            // The triple shares one classifier, so whether all three
            // are queued when the completion picks the next batch
            // decides that batch's size.
            if (i < 33)
                a.component = source_.arrivals[30].component;
            t.arrivals.push_back(a);
        }
        return t;
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace source_;
    Trace head_;
};

// The head's last batch completes here: fullTrace() lands three
// arrivals on that instant.
constexpr Time kHeadCompletion = 1596407488;

TEST_F(ArrivalOrderFixture, EngineRunKeepsTieOrder)
{
    ASSERT_EQ(runEngine(head_).makespan, kHeadCompletion);
    const RunResult r = runEngine(fullTrace(kHeadCompletion));
    EXPECT_EQ(r.images, 35);
    EXPECT_EQ(r.makespan, 3127407488);
    EXPECT_EQ(r.switches.total(), 11);
    EXPECT_EQ(r.switches.evictions, 13);
    EXPECT_EQ(r.assignments,
              (std::vector<int>{0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0,
                                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}));
}

TEST_F(ArrivalOrderFixture, OnlineSingleReplicaKeepsTieOrder)
{
    // Cluster runs take time-sorted traces; the stable sort puts the
    // out-of-order arrival back inside its triple.
    Trace sorted = fullTrace(kHeadCompletion);
    std::stable_sort(sorted.arrivals.begin(), sorted.arrivals.end(),
                     [](const ImageArrival &x, const ImageArrival &y) {
                         return x.time < y.time;
                     });
    ClusterConfig cc = homogeneousCluster(
        ctx_, cfg_, 1, RoutingPolicy::LeastLoaded, "arrival-order");
    cc.onlineRouting = true;
    const ClusterResult r = ClusterEngine(std::move(cc)).run(sorted, {});
    EXPECT_EQ(r.images, 35);
    EXPECT_EQ(r.makespan, 3127407488);
    EXPECT_EQ(r.switches.total(), 11);
    EXPECT_EQ(r.switches.evictions, 13);
    EXPECT_EQ(r.decisionDigest, 0xdc805454838e70c5ULL);
    ASSERT_EQ(r.replicas.size(), 1u);
    EXPECT_EQ(r.replicas[0].assignments,
              (std::vector<int>{0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0,
                                1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0}));
}

} // namespace
} // namespace coserve
