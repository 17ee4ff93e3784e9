/**
 * @file
 * Tests for the cluster serving layer: pinned static routing,
 * routing-policy behavior, single-replica equivalence with
 * ServingEngine, run-to-run agreement of the threaded static path
 * (also under epoch sampling), ClusterResult aggregation math, the
 * pinned decision streams of one run per coordinator path (the golden
 * matrix) and the tie order at a fault instant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
#include "replay/decision_log.h"
#include "workload/generator.h"

namespace coserve {
namespace {

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Tiny board + tiny device cluster fixture. */
class ClusterFixture : public ::testing::Test
{
  protected:
    ClusterFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        TaskSpec task;
        task.name = "tiny-cluster";
        task.numImages = 400;
        task.seed = 7;
        trace_ = generateTrace(model_, task);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        const int count = (minCount + maxCount) / 2;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, count), "replica");
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

TEST_F(ClusterFixture, StaticRunServesEveryRequestExactlyOnce)
{
    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(
            homogeneousCluster(ctx_, cfg_, 4, policy));
        const std::vector<std::size_t> assignment =
            cluster.routeTrace(trace_);
        ASSERT_EQ(assignment.size(), trace_.size());
        std::vector<std::int64_t> routed(4, 0);
        for (std::size_t replica : assignment) {
            ASSERT_LT(replica, 4u);
            routed[replica] += 1;
        }

        // Every arrival is served once, on the replica it was
        // routed to.
        const ClusterResult r =
            cluster.run(trace_, runWithMode(RunMode::Static));
        EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
        EXPECT_EQ(r.imagesPerReplica, routed);
    }
}

TEST_F(ClusterFixture, RoundRobinCyclesThroughReplicas)
{
    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 3, RoutingPolicy::RoundRobin));
    const std::vector<std::size_t> assignment =
        cluster.routeTrace(trace_);
    for (std::size_t i = 0; i < assignment.size(); ++i)
        EXPECT_EQ(assignment[i], i % 3);
}

TEST_F(ClusterFixture, ExpertAffinityIsStickyPerComponent)
{
    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::ExpertAffinity));
    const std::vector<std::size_t> assignment =
        cluster.routeTrace(trace_);

    std::map<ComponentId, std::size_t> home;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
        const ComponentId c = trace_.arrivals[i].component;
        const auto [it, inserted] = home.insert({c, assignment[i]});
        EXPECT_EQ(it->second, assignment[i])
            << "component " << c << " moved between replicas";
    }
    // The tiny board has several components; they should not all
    // collapse onto a single replica.
    std::set<std::size_t> used(assignment.begin(), assignment.end());
    EXPECT_GT(used.size(), 1u);
}

TEST_F(ClusterFixture, LeastLoadedUsesAllReplicasUnderLoad)
{
    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::LeastLoaded));
    const std::vector<std::size_t> assignment =
        cluster.routeTrace(trace_);
    std::set<std::size_t> used(assignment.begin(), assignment.end());
    EXPECT_EQ(used.size(), 4u);
}

TEST_F(ClusterFixture, RouterSelectionMatchesPolicyNames)
{
    EXPECT_STREQ(toString(RoutingPolicy::RoundRobin), "round-robin");
    EXPECT_STREQ(toString(RoutingPolicy::LeastLoaded), "least-loaded");
    EXPECT_STREQ(toString(RoutingPolicy::ExpertAffinity),
                 "expert-affinity");

    std::vector<ReplicaView> views = {{&ctx_, &cfg_}};
    EXPECT_STREQ(makeRouter(RoutingPolicy::RoundRobin, model_, views)
                     ->name(),
                 "round-robin");
    EXPECT_STREQ(makeRouter(RoutingPolicy::LeastLoaded, model_, views)
                     ->name(),
                 "least-loaded");
    EXPECT_STREQ(
        makeRouter(RoutingPolicy::ExpertAffinity, model_, views)->name(),
        "expert-affinity");
}

TEST_F(ClusterFixture, SingleReplicaReproducesServingEngine)
{
    // A one-replica static cluster drives the same engine lifecycle as
    // ServingEngine::run, so the replica's whole RunResult must match
    // the lone engine's. Second input: arrivals in triples sharing one
    // instant, one listed out of order, and a triple of one component
    // landing exactly on the head's last batch completion, then
    // stable-sorted (cluster runs take time-sorted traces).
    Trace ties;
    for (std::size_t i = 0; i < 30; ++i) {
        ImageArrival a = trace_.arrivals[i];
        a.time = milliseconds(4) * static_cast<Time>(i / 3);
        ties.arrivals.push_back(a);
    }
    const ImageArrival late = ties.arrivals[12];
    ties.arrivals.erase(ties.arrivals.begin() + 12);
    ties.arrivals.push_back(late);
    const Time completion = makeCoServeEngine(ctx_, cfg_)->run(ties).makespan;
    for (std::size_t i = 30; i < 35; ++i) {
        ImageArrival a = trace_.arrivals[i];
        a.time = completion + (i < 33 ? 0 : milliseconds(4));
        if (i < 33)
            a.component = trace_.arrivals[30].component;
        ties.arrivals.push_back(a);
    }
    std::stable_sort(ties.arrivals.begin(), ties.arrivals.end(),
                     [](const ImageArrival &x, const ImageArrival &y) {
                         return x.time < y.time;
                     });

    for (const Trace *trace : {&trace_, &ties}) {
        const RunResult direct = makeCoServeEngine(ctx_, cfg_)->run(*trace);
        for (RoutingPolicy policy :
             {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
              RoutingPolicy::ExpertAffinity}) {
            SCOPED_TRACE(std::string(toString(policy)) +
                         (trace == &ties ? " / ties" : " / generated"));
            ClusterEngine cluster(homogeneousCluster(ctx_, cfg_, 1, policy));
            const ClusterResult r = cluster.run(*trace, {});
            EXPECT_EQ(r.images, direct.images);
            EXPECT_DOUBLE_EQ(r.throughput, direct.throughput);
            ASSERT_EQ(r.replicas.size(), 1u);

            const RunResult &rep = r.replicas[0];
            EXPECT_EQ(rep.images, direct.images);
            EXPECT_EQ(rep.inferences, direct.inferences);
            EXPECT_EQ(rep.makespan, direct.makespan);
            EXPECT_EQ(rep.eventsExecuted, direct.eventsExecuted);
            EXPECT_EQ(rep.requestLatencyMs.raw(),
                      direct.requestLatencyMs.raw());
            EXPECT_EQ(rep.assignments, direct.assignments);
            const SwitchCounters &a = rep.switches;
            const SwitchCounters &b = direct.switches;
            EXPECT_EQ(a.loadsFromSsd, b.loadsFromSsd);
            EXPECT_EQ(a.loadsFromCache, b.loadsFromCache);
            EXPECT_EQ(a.prefetchLoads, b.prefetchLoads);
            EXPECT_EQ(a.evictions, b.evictions);
            EXPECT_EQ(a.demotions, b.demotions);
            EXPECT_EQ(a.bytesLoaded, b.bytesLoaded);
        }
    }
}

TEST_F(ClusterFixture, RepeatedStaticRunsAgree)
{
    // Replicas step on their own threads; the result must not depend
    // on how the host schedules them.
    ClusterEngine first(homogeneousCluster(
        ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult a = first.run(trace_, {});

    ClusterEngine second(homogeneousCluster(
        ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult b = second.run(trace_, {});

    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.switches.total(), b.switches.total());
    EXPECT_EQ(a.imagesPerReplica, b.imagesPerReplica);
    // A clean static run digests its pinned route stream: one Route
    // record per arrival.
    EXPECT_EQ(a.decisionDigest, b.decisionDigest);
    EXPECT_EQ(a.decisionCount,
              static_cast<std::int64_t>(trace_.size()));
}

TEST_F(ClusterFixture, SamplerCutsAreInvisible)
{
    // Every epoch-sampler tick cuts the threaded static run into one
    // more segment; the cuts must not change the schedule (the
    // straggler variant has a fault plan, so it runs in lockstep).
    // Online round-robin routes exactly like the static assignment but steps
    // the replicas in lockstep, so its sample rows must match too.
    for (const bool straggler : {false, true}) {
        RunOptions plain = runWithMode(RunMode::Static);
        if (straggler) {
            plain.faults.stragglers.push_back(
                {1, milliseconds(200), milliseconds(900), 3.0});
        }
        ClusterEngine unsampled(homogeneousCluster(
            ctx_, cfg_, 3, RoutingPolicy::RoundRobin));
        const ClusterResult a = unsampled.run(trace_, plain);

        RunOptions sampled = plain;
        sampled.telemetry.enabled = true;
        sampled.telemetry.sampleInterval = milliseconds(7);
        sampled.telemetry.metricsCsvPath =
            ::testing::TempDir() + "cluster_sampler_cuts.csv";
        ClusterEngine cut(homogeneousCluster(
            ctx_, cfg_, 3, RoutingPolicy::RoundRobin));
        const ClusterResult b = cut.run(trace_, sampled);

        EXPECT_EQ(a.images, b.images);
        EXPECT_EQ(a.makespan, b.makespan);
        EXPECT_EQ(a.switches.total(), b.switches.total());
        EXPECT_EQ(a.imagesPerReplica, b.imagesPerReplica);
        EXPECT_EQ(a.decisionDigest, b.decisionDigest);

        const std::string csv =
            readFileText(sampled.telemetry.metricsCsvPath);
        std::istringstream in(csv);
        std::string line;
        ASSERT_TRUE(std::getline(in, line)); // header
        double prevT = 0.0;
        int rows = 0;
        while (std::getline(in, line)) {
            const double t = std::stod(line.substr(0, line.find(',')));
            EXPECT_GT(t, prevT) << "sample times must advance";
            prevT = t;
            rows += 1;
        }
        EXPECT_GT(rows, 10);

        RunOptions lockstep = sampled;
        lockstep.mode = RunMode::Online;
        ClusterEngine online(homogeneousCluster(
            ctx_, cfg_, 3, RoutingPolicy::RoundRobin));
        const ClusterResult c = online.run(trace_, lockstep);
        EXPECT_EQ(a.makespan, c.makespan);
        EXPECT_EQ(a.decisionDigest, c.decisionDigest);
        EXPECT_EQ(csv, readFileText(lockstep.telemetry.metricsCsvPath));
        std::remove(sampled.telemetry.metricsCsvPath.c_str());
    }
}

TEST(ClusterResultTest, AggregationMath)
{
    RunResult a;
    a.images = 100;
    a.inferences = 130;
    a.makespan = seconds(2);
    a.switches.loadsFromSsd = 5;
    a.requestLatencyMs.add(1.0);
    a.requestLatencyMs.add(3.0);

    RunResult b;
    b.images = 50;
    b.inferences = 70;
    b.makespan = seconds(4);
    b.switches.loadsFromSsd = 2;
    b.switches.loadsFromCache = 3;
    b.requestLatencyMs.add(2.0);

    ClusterResult r;
    r.label = "agg-test";
    r.routing = "round-robin";
    aggregateClusterResult(r, {a, b});

    EXPECT_EQ(r.label, "agg-test");
    EXPECT_EQ(r.routing, "round-robin");
    EXPECT_EQ(r.images, 150);
    EXPECT_EQ(r.inferences, 200);
    EXPECT_EQ(r.makespan, seconds(4));
    EXPECT_DOUBLE_EQ(r.throughput, 150.0 / 4.0);
    EXPECT_EQ(r.switches.total(), 10);
    EXPECT_EQ(r.requestLatencyMs.count(), 3u);
    ASSERT_EQ(r.imagesPerReplica.size(), 2u);
    EXPECT_EQ(r.imagesPerReplica[0], 100);
    EXPECT_EQ(r.imagesPerReplica[1], 50);
    // Imbalance: max(100, 50) / (150 / 2) = 100 / 75.
    EXPECT_DOUBLE_EQ(r.imbalance(), 100.0 / 75.0);
    ASSERT_EQ(r.replicas.size(), 2u);
}

TEST(ClusterResultTest, EmptyClusterIsWellDefined)
{
    ClusterResult r;
    aggregateClusterResult(r, {});
    EXPECT_EQ(r.images, 0);
    EXPECT_EQ(r.makespan, 0);
    EXPECT_DOUBLE_EQ(r.throughput, 0.0);
    EXPECT_DOUBLE_EQ(r.imbalance(), 1.0);
}

TEST_F(ClusterFixture, ReplicasWithoutArrivalsProduceEmptyResults)
{
    // Two components hash-colliding onto few replicas can leave one
    // replica without work; force the situation with a one-component
    // trace on a 4-replica affinity cluster.
    Trace narrow;
    for (int i = 0; i < 32; ++i)
        narrow.arrivals.push_back(
            {milliseconds(4 * i), /*component=*/0, false});

    ClusterEngine cluster(homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::ExpertAffinity));
    const ClusterResult r = cluster.run(narrow, {});

    EXPECT_EQ(r.images, 32);
    std::int64_t nonEmpty = 0;
    for (std::int64_t n : r.imagesPerReplica)
        nonEmpty += n > 0 ? 1 : 0;
    EXPECT_EQ(nonEmpty, 1);
}

// ------------------------------------------------------ golden matrix

/** 64-bit FNV-1a of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14'695'981'039'346'656'037ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1'099'511'628'211ull;
    }
    return h;
}

/**
 * Adds a slow-GPU context (batches long enough for deadline rescues,
 * a DRAM tier so checkpoints ride the fast link) and two SLO traces to
 * the tiny cluster fixture.
 */
class GoldenFixture : public ClusterFixture
{
  protected:
    GoldenFixture()
        : slowDevice_(slowTestDevice()), slowCtx_(slowDevice_, model_),
          detectorsOnlyCtx_(slowDevice_, model_,
                            detectorsOnly(slowDevice_), {})
    {
        const auto [minCount, maxCount] =
            gpuExpertCountBounds(slowCtx_, 1, 0);
        (void)minCount;
        slowCfg_ = coserveConfig(
            slowCtx_, coserveExecutorLayout(slowCtx_, 1, 0, maxCount),
            "replica");
        slowCfg_.cpuCacheTier = true;
        slowCfg_.cpuCacheBytes = 1536ll * 1024 * 1024;

        TenantSpec interactive;
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 4.0;
        interactive.latencyBudget = milliseconds(600);
        TenantSpec batch;
        batch.cls = RequestClass::Batch;
        batch.ratePerSec = 10.0;
        batch.latencyBudget = seconds(30);
        batch.arrivals = ArrivalProcess::MMPP;
        batch.mmppBurstFactor = 10.0;
        slowSlo_ = generateSloTrace(model_, {interactive, batch},
                                    seconds(20), 0x7e3);

        interactive.ratePerSec = 40.0;
        interactive.latencyBudget = milliseconds(500);
        batch.ratePerSec = 30.0;
        batch.latencyBudget = seconds(3);
        batch.arrivals = ArrivalProcess::Poisson;
        TenantSpec bestEffort;
        bestEffort.cls = RequestClass::BestEffort;
        bestEffort.ratePerSec = 10.0;
        bestEffort.arrivals = ArrivalProcess::MMPP;
        bestEffort.mmppBurstFactor = 6.0;
        fastSlo_ = generateSloTrace(
            model_, {interactive, batch, bestEffort}, seconds(6), 0x510);
    }

    static DeviceSpec
    slowTestDevice()
    {
        DeviceSpec d = tinyTestDevice();
        d.name = "tiny-slow-compute";
        d.gpu.computeScale = 0.1;
        return d;
    }

    /** @p device's latency model without the classifier arch. */
    static LatencyModel
    detectorsOnly(const DeviceSpec &device)
    {
        const LatencyModel full = LatencyModel::calibrated(device);
        LatencyModel partial;
        for (ArchId arch : {ArchId::YoloV5m, ArchId::YoloV5l}) {
            for (ProcKind proc : {ProcKind::GPU, ProcKind::CPU})
                partial.setParams(arch, proc, full.params(arch, proc));
        }
        return partial;
    }

    /** The slow cluster with deadline rescues (and migration). */
    ClusterConfig
    preemptConfig(bool migration) const
    {
        ClusterConfig cc = homogeneousCluster(
            slowCtx_, slowCfg_, 3, RoutingPolicy::LeastLoaded, "golden");
        cc.preemption.enabled = true;
        cc.preemption.minRunQuantum = milliseconds(5);
        cc.preemption.migration = migration;
        cc.preemption.migrationMinRemaining = milliseconds(10);
        if (migration) {
            cc.workStealing.enabled = true;
            cc.workStealing.backlogThreshold = 2;
            cc.workStealing.minBacklog = milliseconds(20);
        }
        return cc;
    }

    DeviceSpec slowDevice_;
    CoServeContext slowCtx_;
    /** Never profiled for ResNet101, so it serves no classifier. */
    CoServeContext detectorsOnlyCtx_;
    EngineConfig slowCfg_;
    Trace slowSlo_;
    Trace fastSlo_;
};

/** One coordinator path: a run and the schedule it must produce. */
struct GoldenRow
{
    const char *name;
    ClusterConfig cc;
    const Trace *trace;
    RunOptions opts;
    std::uint64_t digest;
    std::int64_t decisions;
    std::int64_t images;
    std::int64_t crashLost;
    std::int64_t stolen;
    /** FNV-1a of the span-trace JSON (rows writing one), else 0. */
    std::uint64_t traceHash;
};

TEST_F(GoldenFixture, DecisionStreamsArePinnedPerCoordinatorPath)
{
    // Run-to-run agreement cannot catch a refactor that reorders the
    // coordinator's decisions the same way every time; these pins
    // can. Each row drives one path through the coordinator.
    const RunOptions statik = runWithMode(RunMode::Static);
    const RunOptions online = runWithMode(RunMode::Online);
    const Time mid = trace_.arrivals[trace_.size() / 2].time;

    std::vector<GoldenRow> rows;
    rows.push_back({"static least-loaded (threaded)",
                    homogeneousCluster(ctx_, cfg_, 4,
                                       RoutingPolicy::LeastLoaded),
                    &trace_, statik, 0xa6e5245f6dd62da9ull, 400, 400, 0,
                    0, 0});
    rows.push_back({"static + preemption", preemptConfig(false),
                    &slowSlo_, statik, 0x84ef1316dfb5ad4dull, 549, 513,
                    0, 0, 0});
    RunOptions sampled = statik;
    sampled.telemetry.enabled = true;
    sampled.telemetry.sampleInterval = milliseconds(7);
    sampled.telemetry.metricsCsvPath =
        ::testing::TempDir() + "cluster_golden_sampled.csv";
    // Sampler ticks cut the threaded run; the pins are the row above.
    rows.push_back({"static + preemption, sampled", preemptConfig(false),
                    &slowSlo_, sampled, 0x84ef1316dfb5ad4dull, 549, 513,
                    0, 0, 0});
    RunOptions faulty = statik;
    faulty.faults.crashes.push_back({1, mid});
    faulty.faults.stragglers.push_back(
        {2, milliseconds(200), milliseconds(900), 3.0});
    rows.push_back({"static + crash + straggler (lockstep)",
                    homogeneousCluster(ctx_, cfg_, 3,
                                       RoutingPolicy::LeastLoaded),
                    &trace_, faulty, 0xaddd63da6c4f4f9eull, 405, 400, 0,
                    0, 0});
    EngineConfig tiered = cfg_;
    tiered.cpuCacheTier = true;
    tiered.cpuCacheBytes = 300ll * 1024 * 1024;
    ClusterConfig shared = homogeneousCluster(
        ctx_, tiered, 4, RoutingPolicy::RoundRobin);
    shared.sharedCpu.enabled = true;
    rows.push_back({"static + shared CPU tier", shared, &trace_, statik,
                    0x7942ee9cfbc03640ull, 400, 400, 0, 0, 0});
    ClusterConfig steal = homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::LeastLoaded);
    steal.workStealing.enabled = true;
    steal.workStealing.backlogThreshold = 2;
    steal.workStealing.minBacklog = milliseconds(20);
    steal.admission.enabled = true;
    rows.push_back({"online + steal + admission", steal, &fastSlo_,
                    online, 0xe85d9ef9c46d841bull, 656, 456, 0, 21, 0});
    ClusterConfig scale = homogeneousCluster(
        ctx_, cfg_, 4, RoutingPolicy::LeastLoaded);
    scale.autoscale.enabled = true;
    scale.autoscale.interval = milliseconds(250);
    scale.autoscale.cooldown = milliseconds(250);
    scale.autoscale.minReplicas = 1;
    scale.autoscale.startReplicas = 4;
    scale.autoscale.violationLow = 2.0;
    scale.autoscale.backlogLow = 1000;
    scale.autoscale.backlogHigh = 100000;
    scale.autoscale.violationHigh = 2.0;
    rows.push_back({"online + autoscale", scale, &fastSlo_, online,
                    0x95858ab2a8d19f69ull, 467, 456, 0, 0, 0});
    RunOptions full = online;
    full.faults.crashes.push_back(
        {1, slowSlo_.arrivals[slowSlo_.size() / 2].time});
    full.faults.brownouts.push_back({2, seconds(3), seconds(9), 0.25});
    full.telemetry.enabled = true;
    full.telemetry.sampleInterval = milliseconds(500);
    full.telemetry.tracePath =
        ::testing::TempDir() + "cluster_golden_trace.json";
    full.telemetry.metricsCsvPath =
        ::testing::TempDir() + "cluster_golden_full.csv";
    rows.push_back({"online + preempt + migrate + crash + brownout",
                    preemptConfig(true), &slowSlo_, full,
                    0x04e2d18e885eaf69ull, 566, 513, 0, 11,
                    0x049d3f944c32f9fcull});
    // Two crashes leave only a replica that serves no classifier:
    // queued and checkpointed classify work and later arrivals pinned
    // to the dead replicas are lost (the "route (lost)" instants and
    // the Migrate records to the out-of-range replica).
    ClusterConfig lossy = heterogeneousCluster(
        {{&slowCtx_, slowCfg_},
         {&slowCtx_, slowCfg_},
         {&detectorsOnlyCtx_, slowCfg_}},
        RoutingPolicy::LeastLoaded, "golden-lossy");
    lossy.preemption = preemptConfig(true).preemption;
    RunOptions losing = statik;
    losing.faults.crashes.push_back(
        {0, slowSlo_.arrivals[slowSlo_.size() / 3].time});
    losing.faults.crashes.push_back(
        {1, slowSlo_.arrivals[2 * slowSlo_.size() / 3].time});
    losing.telemetry.enabled = true;
    losing.telemetry.tracePath =
        ::testing::TempDir() + "cluster_golden_lossy_trace.json";
    rows.push_back({"static + migration + crashes, lost work", lossy,
                    &slowSlo_, losing, 0x8c6f3be9a678fc17ull, 546, 150, 363,
                    0, 0x941ac0cb1ec0014cull});

    for (const GoldenRow &row : rows) {
        SCOPED_TRACE(row.name);
        ClusterEngine cluster(row.cc);
        const ClusterResult r = cluster.run(*row.trace, row.opts);
        std::uint64_t traceHash = 0;
        if (!row.opts.telemetry.tracePath.empty()) {
            traceHash = fnv1a(readFileText(row.opts.telemetry.tracePath));
            std::remove(row.opts.telemetry.tracePath.c_str());
        }
        if (!row.opts.telemetry.metricsCsvPath.empty()) {
            EXPECT_FALSE(
                readFileText(row.opts.telemetry.metricsCsvPath).empty());
            std::remove(row.opts.telemetry.metricsCsvPath.c_str());
        }
        EXPECT_EQ(r.decisionDigest, row.digest);
        EXPECT_EQ(r.decisionCount, row.decisions);
        EXPECT_EQ(r.images, row.images);
        EXPECT_EQ(r.crashLost, row.crashLost);
        EXPECT_EQ(r.stolenRequests, row.stolen);
        EXPECT_EQ(traceHash, row.traceHash);
    }
}

TEST_F(ClusterFixture, FaultInstantTieOrder)
{
    // What happens at one instant t, in order: the replica events at
    // t run, then the crash scheduled for t, then the autoscaler's
    // control tick, then the arrival at t. Replica 0 alone is active
    // and finishes its only image at exactly t, the instant it
    // crashes; control ticks fire every t and always scale up.
    const auto config = [this](Time interval) {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, 3, RoutingPolicy::LeastLoaded);
        cc.autoscale.enabled = true;
        cc.autoscale.interval = interval;
        cc.autoscale.minReplicas = 1;
        cc.autoscale.startReplicas = 1;
        cc.autoscale.violationHigh = -1.0;
        return cc;
    };
    Trace trace;
    trace.arrivals.push_back({0, /*component=*/0, false});
    ClusterEngine probe(config(seconds(1000)));
    const Time t =
        probe.run(trace, runWithMode(RunMode::Online)).makespan;
    ASSERT_GT(t, 0);

    trace.arrivals.push_back({t, /*component=*/0, false});
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back({0, t});
    opts.recordPath = ::testing::TempDir() + "cluster_tie_order.log";
    ClusterEngine cluster(config(t));
    const ClusterResult r = cluster.run(trace, opts);

    // The completion at t ran before the crash: nothing was in flight
    // to re-home, and replica 0 keeps its image.
    EXPECT_EQ(r.images, 2);
    EXPECT_EQ(r.replicas[0].images, 1);
    EXPECT_EQ(r.crashRehomed, 0);
    EXPECT_EQ(r.crashLost, 0);

    // The crash wakes replica 1 to keep component 0 covered, the
    // control tick then wakes replica 2, and only then is the arrival
    // routed, to a live replica.
    const DecisionLog log = DecisionLog::load(opts.recordPath);
    std::vector<DecisionRecord> atT;
    for (const DecisionRecord &d : log.records()) {
        if (d.time == t)
            atT.push_back(d);
    }
    std::remove(opts.recordPath.c_str());
    ASSERT_EQ(atT.size(), 4u);
    EXPECT_EQ(atT[0].kind, DecisionKind::ScaleUp);
    EXPECT_EQ(atT[0].a, 1u);
    EXPECT_EQ(atT[1], (DecisionRecord{t, DecisionKind::Crash, 0, 0, 0}));
    EXPECT_EQ(atT[2].kind, DecisionKind::ScaleUp);
    EXPECT_EQ(atT[2].a, 2u);
    EXPECT_EQ(atT[3].kind, DecisionKind::Route);
    EXPECT_EQ(atT[3].a, 1u);
    EXPECT_NE(atT[3].b, 0u);
    EXPECT_LT(atT[3].b, 3u);
}

} // namespace
} // namespace coserve
