/**
 * @file
 * Tests for the cluster serving layer: pinned static routing,
 * routing-policy behavior, single-replica equivalence with
 * ServingEngine, run-to-run agreement of the threaded static path
 * (also under epoch sampling), and ClusterResult aggregation math.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
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
    RunResult direct;
    {
        EngineConfig cfg = cfg_;
        auto engine = makeCoServeEngine(ctx_, std::move(cfg));
        direct = engine->run(trace_);
    }

    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(
            homogeneousCluster(ctx_, cfg_, 1, policy));
        const ClusterResult r = cluster.run(trace_, {});

        EXPECT_EQ(r.images, direct.images);
        EXPECT_EQ(r.inferences, direct.inferences);
        EXPECT_EQ(r.makespan, direct.makespan);
        EXPECT_DOUBLE_EQ(r.throughput, direct.throughput);
        EXPECT_EQ(r.switches.total(), direct.switches.total());
        ASSERT_EQ(r.replicas.size(), 1u);
        EXPECT_EQ(r.replicas[0].images, direct.images);
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

    const ClusterResult r = aggregateClusterResult(
        "agg-test", "round-robin", {a, b});

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
    const ClusterResult r =
        aggregateClusterResult("empty", "round-robin", {});
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

} // namespace
} // namespace coserve
