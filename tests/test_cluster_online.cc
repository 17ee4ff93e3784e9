/**
 * @file
 * Tests for online cluster scheduling (ClusterConfig::onlineRouting):
 * static routeTrace()/run() consistency, online-mode run-to-run
 * determinism, work-stealing counter reconciliation,
 * the least-loaded router's round-up parallelism division, and the
 * expert-affinity router's capability fallback on heterogeneous
 * clusters.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
#include "workload/generator.h"

namespace coserve {
namespace {

/**
 * A hardware truth covering only @p archs of the calibrated table:
 * contexts built on it are partially profiled, so capability-aware
 * routing/stealing must keep the other architectures away.
 */
LatencyModel
partialLatencyModel(const DeviceSpec &device,
                    std::initializer_list<ArchId> archs,
                    std::initializer_list<ProcKind> procs = {
                        ProcKind::GPU, ProcKind::CPU})
{
    const LatencyModel full = LatencyModel::calibrated(device);
    LatencyModel partial;
    for (ArchId arch : archs) {
        for (ProcKind proc : procs)
            partial.setParams(arch, proc, full.params(arch, proc));
    }
    return partial;
}

/** Tiny board + tiny device cluster fixture (cf. test_cluster.cc). */
class OnlineClusterFixture : public ::testing::Test
{
  protected:
    OnlineClusterFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        TaskSpec task;
        task.name = "tiny-online";
        task.numImages = 400;
        task.seed = 11;
        trace_ = generateTrace(model_, task);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        const int count = (minCount + maxCount) / 2;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, count), "replica");
    }

    ClusterConfig
    onlineConfig(int replicas, bool stealing) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, replicas, RoutingPolicy::LeastLoaded, "online");
        // The legacy mode switch: RunOptions{} (RunMode::Auto) must
        // honor it, which this fixture's run(trace, {}) calls cover.
        cc.onlineRouting = true;
        cc.workStealing.enabled = stealing;
        return cc;
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

// ------------------------------------------------ static-mode contract

TEST_F(OnlineClusterFixture, StaticRunMatchesRouteTraceAssignment)
{
    // Static mode routes with a fresh (deterministic) router both in
    // routeTrace() and inside run(): per-replica image counts must
    // equal the counts the public assignment implies.
    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine router(homogeneousCluster(ctx_, cfg_, 3, policy));
        const std::vector<std::size_t> assignment =
            router.routeTrace(trace_);
        std::vector<std::int64_t> expected(3, 0);
        for (std::size_t r : assignment)
            expected[r] += 1;

        ClusterEngine cluster(homogeneousCluster(ctx_, cfg_, 3, policy));
        const ClusterResult result = cluster.run(trace_, {});
        ASSERT_EQ(result.imagesPerReplica.size(), 3u);
        EXPECT_EQ(result.imagesPerReplica, expected)
            << "policy " << toString(policy);
        EXPECT_EQ(result.stolenRequests, 0);
    }
}

// -------------------------------------------------- online-mode basics

TEST_F(OnlineClusterFixture, OnlineModeServesEveryImage)
{
    ClusterEngine cluster(onlineConfig(4, /*stealing=*/false));
    const ClusterResult r = cluster.run(trace_, {});
    EXPECT_EQ(r.images, 400);
    EXPECT_GT(r.makespan, 0);
    EXPECT_EQ(r.stolenRequests, 0);
    ASSERT_EQ(r.replicas.size(), 4u);
    std::int64_t total = 0;
    for (std::int64_t n : r.imagesPerReplica)
        total += n;
    EXPECT_EQ(total, 400);
    // The saturating trace must not collapse onto one replica.
    std::int64_t used = 0;
    for (std::int64_t n : r.imagesPerReplica)
        used += n > 0 ? 1 : 0;
    EXPECT_GT(used, 1);
}

TEST_F(OnlineClusterFixture, OnlineModeDeterministicAcrossRuns)
{
    // Online coordination is lockstep on the shared virtual clock; two
    // runs of one config must agree on every metric — stealing and a
    // cluster-shared CPU tier (whose access order the coordinator
    // serializes) included.
    for (bool stealing : {false, true}) {
        for (bool sharedTier : {false, true}) {
            ClusterConfig ca = onlineConfig(3, stealing);
            ClusterConfig cb = onlineConfig(3, stealing);
            if (sharedTier) {
                for (ClusterConfig *cc : {&ca, &cb}) {
                    cc->sharedCpu.enabled = true;
                    cc->sharedCpu.bytes = 512ll * 1024 * 1024;
                }
            }
            ClusterEngine a(std::move(ca));
            ClusterEngine b(std::move(cb));
            const ClusterResult ra = a.run(trace_, {});
            const ClusterResult rb = b.run(trace_, {});

            // Equal decision digests subsume every aggregate check
            // below — kept anyway as the diagnostic breakdown.
            EXPECT_EQ(ra.decisionDigest, rb.decisionDigest);
            EXPECT_EQ(ra.decisionCount, rb.decisionCount);
            EXPECT_EQ(ra.images, rb.images);
            EXPECT_EQ(ra.makespan, rb.makespan);
            EXPECT_EQ(ra.inferences, rb.inferences);
            EXPECT_EQ(ra.eventsExecuted, rb.eventsExecuted);
            EXPECT_EQ(ra.switches.total(), rb.switches.total());
            EXPECT_EQ(ra.switches.bytesLoaded, rb.switches.bytesLoaded);
            EXPECT_EQ(ra.imagesPerReplica, rb.imagesPerReplica);
            EXPECT_EQ(ra.stolenRequests, rb.stolenRequests);
            EXPECT_EQ(ra.stolenFromReplica, rb.stolenFromReplica);
            EXPECT_EQ(ra.stolenToReplica, rb.stolenToReplica);
            EXPECT_DOUBLE_EQ(ra.throughput, rb.throughput);
            ASSERT_EQ(ra.replicas.size(), rb.replicas.size());
            for (std::size_t i = 0; i < ra.replicas.size(); ++i) {
                EXPECT_EQ(ra.replicas[i].makespan,
                          rb.replicas[i].makespan);
                EXPECT_EQ(ra.replicas[i].eventsExecuted,
                          rb.replicas[i].eventsExecuted);
            }
        }
    }
}

// ----------------------------------------------------- work stealing

/** A slower clone of the tiny device (same memory, 4x slower procs). */
DeviceSpec
tinySlowDevice()
{
    DeviceSpec d = tinyTestDevice();
    d.name = "tiny-slow";
    d.gpu.computeScale = 0.25;
    d.cpu.computeScale = 0.25;
    d.ssdBps /= 4;
    return d;
}

TEST_F(OnlineClusterFixture, StealCountersReconcile)
{
    // Fast + slow replica pair: the least-loaded router still
    // backlogs the slow replica under a saturating trace, and the
    // fast one steals once idle. Aggressive knobs force steals on the
    // small test trace.
    CoServeContext slowCtx(tinySlowDevice(), model_);
    const auto [minCount, maxCount] = gpuExpertCountBounds(slowCtx, 1, 0);
    const EngineConfig slowCfg = coserveConfig(
        slowCtx,
        coserveExecutorLayout(slowCtx, 1, 0, (minCount + maxCount) / 2),
        "slow");

    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&slowCtx, slowCfg}}, RoutingPolicy::LeastLoaded,
        "steal");
    cc.workStealing.enabled = true;
    cc.workStealing.backlogThreshold = 2;
    cc.workStealing.minBacklog = milliseconds(20);

    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));

    EXPECT_EQ(r.images, 400);
    ASSERT_EQ(r.stolenFromReplica.size(), 2u);
    ASSERT_EQ(r.stolenToReplica.size(), 2u);
    std::int64_t from = 0, to = 0;
    for (std::size_t i = 0; i < 2; ++i) {
        from += r.stolenFromReplica[i];
        to += r.stolenToReplica[i];
    }
    EXPECT_EQ(from, r.stolenRequests);
    EXPECT_EQ(to, r.stolenRequests);
    EXPECT_GT(r.stolenRequests, 0);
}

TEST_F(OnlineClusterFixture, StealingRespectsReplicaCapability)
{
    // Replica 1 was never profiled for ResNet101 (every classifier's
    // arch): routing keeps classify work away from it, so it idles
    // and steals. Pre-fix it stole classify requests too and the
    // dispatch aborted in the scheduler's latency estimate; now the
    // steal filter only hands it work it can serve, and the run must
    // complete.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::YoloV5m, ArchId::YoloV5l}),
        {});

    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&partialCtx, cfg_}}, RoutingPolicy::LeastLoaded,
        "partial-steal");
    cc.workStealing.enabled = true;
    cc.workStealing.backlogThreshold = 2;
    cc.workStealing.minBacklog = milliseconds(20);
    ClusterEngine cluster(std::move(cc));

    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, 400);
    // Whatever it stole must have been servable — completing without
    // a COSERVE_CHECK abort is the regression assertion; the counters
    // must still reconcile.
    ASSERT_EQ(r.stolenToReplica.size(), 2u);
    EXPECT_EQ(r.stolenFromReplica[0] + r.stolenFromReplica[1],
              r.stolenRequests);
    EXPECT_EQ(r.stolenToReplica[0] + r.stolenToReplica[1],
              r.stolenRequests);
}

// --------------------------------------- least-loaded rounding bugfix

TEST(ReplicaAdditionalLatencyTest, RoundsParallelismDivisionUp)
{
    // Regression: integer Time division truncated sub-parallelism
    // estimates to zero, so every replica predicted zero added cost
    // and the finish/add tie-break degenerated.
    EXPECT_EQ(replicaAdditionalLatency(3, 0, 8), 1);
    EXPECT_EQ(replicaAdditionalLatency(1, 1, 64), 1);
    EXPECT_EQ(replicaAdditionalLatency(7, 5, 4), 3);
    EXPECT_EQ(replicaAdditionalLatency(8, 0, 4), 2);
    // Exact divisions and the degenerate parallelism are unchanged.
    EXPECT_EQ(replicaAdditionalLatency(8, 4, 4), 3);
    EXPECT_EQ(replicaAdditionalLatency(5, 0, 1), 5);
    EXPECT_EQ(replicaAdditionalLatency(0, 0, 4), 0);
    // Zero parallelism is clamped rather than dividing by zero.
    EXPECT_EQ(replicaAdditionalLatency(5, 0, 0), 5);
}

// ------------------------------------- affinity capability fallback

TEST_F(OnlineClusterFixture, AffinityRouterAvoidsIncapableReplica)
{
    // Replica 1's context was never profiled for ResNet101 — the arch
    // of every classifier — so perf().has() is false there and the
    // affinity hash must fall through to a capable replica instead of
    // pinning components onto a replica that cannot serve them.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::YoloV5m, ArchId::YoloV5l}),
        {});
    EXPECT_FALSE(
        partialCtx.perf().has(ArchId::ResNet101, ProcKind::GPU));

    // Every routing policy must honor the capability rule.
    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(heterogeneousCluster(
            {{&ctx_, cfg_}, {&partialCtx, cfg_}, {&ctx_, cfg_}},
            policy, "partial"));
        const std::vector<std::size_t> assignment =
            cluster.routeTrace(trace_);
        ASSERT_EQ(assignment.size(), trace_.size());
        std::set<std::size_t> used;
        for (std::size_t r : assignment) {
            EXPECT_NE(r, 1u)
                << toString(policy)
                << " routed an arrival to the incapable replica";
            used.insert(r);
        }
        // The fallback must not collapse everything onto one replica.
        EXPECT_EQ(used.size(), 2u) << toString(policy);
    }
}

TEST_F(OnlineClusterFixture, CapabilityChecksEveryExecutorKind)
{
    // Asymmetric profiling: every arch known on GPU, none on CPU. A
    // replica that *also* runs a CPU executor estimates dispatch cost
    // on it, so it must count as incapable even though its GPU could
    // serve the request (pre-fix the primary-processor-only check let
    // arrivals through and the CPU-executor estimate aborted).
    CoServeContext asymCtx(
        device_, model_,
        partialLatencyModel(device_,
                            {ArchId::ResNet101, ArchId::YoloV5m,
                             ArchId::YoloV5l},
                            {ProcKind::GPU}),
        {});
    ASSERT_TRUE(asymCtx.perf().has(ArchId::ResNet101, ProcKind::GPU));
    ASSERT_FALSE(asymCtx.perf().has(ArchId::ResNet101, ProcKind::CPU));

    EngineConfig mixed = cfg_;
    ExecutorConfig cpu;
    cpu.kind = ProcKind::CPU;
    cpu.poolBytes = cfg_.executors.front().poolBytes;
    cpu.batchMemBytes = cfg_.executors.front().batchMemBytes;
    mixed.executors.push_back(cpu);

    for (RoutingPolicy policy :
         {RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded,
          RoutingPolicy::ExpertAffinity}) {
        ClusterEngine cluster(heterogeneousCluster(
            {{&ctx_, cfg_}, {&asymCtx, mixed}}, policy, "asym"));
        for (std::size_t r : cluster.routeTrace(trace_)) {
            ASSERT_EQ(r, 0u)
                << toString(policy)
                << " routed to a replica with an unprofiled "
                   "executor kind";
        }
    }
}

TEST_F(OnlineClusterFixture, CapabilityCoversTheDetectionChain)
{
    // The inverse gap: a context profiled for ResNet101 (every
    // classifier) but for no detector arch. Chains stay
    // replica-local, so routing a component *with* a detector there
    // would abort when the detect child dispatches — chain
    // capability must keep those components away while detector-less
    // components may still land there.
    CoServeContext partialCtx(
        device_, model_,
        partialLatencyModel(device_, {ArchId::ResNet101}), {});

    ClusterEngine router(heterogeneousCluster(
        {{&ctx_, cfg_}, {&partialCtx, cfg_}},
        RoutingPolicy::ExpertAffinity, "chain"));
    const std::vector<std::size_t> assignment =
        router.routeTrace(trace_);
    bool sawDetectorless = false;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
        const ComponentType &comp =
            model_.component(trace_.arrivals[i].component);
        if (comp.detector != kNoExpert)
            EXPECT_NE(assignment[i], 1u)
                << "detector-bearing component on chain-incapable "
                   "replica";
        else if (assignment[i] == 1u)
            sawDetectorless = true;
    }
    EXPECT_TRUE(sawDetectorless)
        << "no detector-less component used the partial replica";

    // End to end (online + stealing): the steal filter applies the
    // same chain rule, so the run completes without an abort.
    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&partialCtx, cfg_}},
        RoutingPolicy::LeastLoaded, "chain-steal");
    cc.workStealing.enabled = true;
    cc.workStealing.backlogThreshold = 2;
    cc.workStealing.minBacklog = milliseconds(20);
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r =
        cluster.run(trace_, runWithMode(RunMode::Online));
    EXPECT_EQ(r.images, 400);
}

TEST_F(OnlineClusterFixture, AffinityHeteroNumaUmaClusterServes)
{
    // Mixed NUMA/UMA cluster with full capability: the affinity
    // router's capability scan must keep the original hash behavior
    // and the cluster must serve every image end to end.
    DeviceSpec uma = tinyTestDevice();
    uma.name = "tiny-uma";
    uma.arch = MemArch::UMA;
    uma.cpuMemoryBytes = 0;
    uma.pciBps = 0;
    CoServeContext umaCtx(uma, model_);
    const auto [minCount, maxCount] = gpuExpertCountBounds(umaCtx, 1, 0);
    const EngineConfig umaCfg = coserveConfig(
        umaCtx,
        coserveExecutorLayout(umaCtx, 1, 0, (minCount + maxCount) / 2),
        "uma");

    ClusterConfig cc = heterogeneousCluster(
        {{&ctx_, cfg_}, {&umaCtx, umaCfg}},
        RoutingPolicy::ExpertAffinity, "numa-uma");
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r = cluster.run(trace_, {});
    EXPECT_EQ(r.images, 400);
    std::int64_t total = 0;
    for (std::int64_t n : r.imagesPerReplica)
        total += n;
    EXPECT_EQ(total, 400);
}

} // namespace
} // namespace coserve
