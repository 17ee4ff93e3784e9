/**
 * @file
 * Cluster quickstart: scale CoServe out to four replicas.
 *
 * Builds a toy CoE model, runs the offline phase once, then serves a
 * saturating workload with 1 and 4 CoServe replicas behind the
 * least-loaded cluster dispatcher, printing the aggregate metrics and
 * the per-replica load split — first with static (pinned-route)
 * dispatch, then with the online coordinator (live-load routing +
 * cross-replica work stealing).
 *
 *   ./cluster_quickstart
 */

#include <cstdio>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/report.h"
#include "util/strutil.h"
#include "workload/generator.h"

using namespace coserve;

namespace {

void
report(const ClusterResult &r)
{
    std::printf("\n[%s, %s] %lld images in %s -> %.1f img/s "
                "(%lld switches, wall %.0f ms)\n",
                r.label.c_str(), r.routing.c_str(),
                static_cast<long long>(r.images),
                formatTime(r.makespan).c_str(), r.throughput,
                static_cast<long long>(r.switches.total()),
                r.wallSeconds * 1e3);
    for (std::size_t i = 0; i < r.replicas.size(); ++i)
        std::printf("  replica %zu: %lld images, %lld switches\n", i,
                    static_cast<long long>(r.replicas[i].images),
                    static_cast<long long>(
                        r.replicas[i].switches.total()));
}

} // namespace

int
main()
{
    // 1. Model + offline phase (shared by all replicas of a device).
    BoardSpec spec = tinyBoard();
    spec.name = "cluster-board";
    spec.numComponents = 48;
    spec.numDetectionExperts = 6;
    const CoEModel model = buildBoard(spec);
    const CoServeContext ctx(numaRtx3080Ti(), model);

    // 2. One replica's engine layout: 2 GPU executors, casual split.
    const auto [minCount, maxCount] = gpuExpertCountBounds(ctx, 2, 0);
    const int gpuExperts = (minCount + maxCount) / 2;
    const EngineConfig cfg = coserveConfig(
        ctx, coserveExecutorLayout(ctx, 2, 0, gpuExperts), "replica");

    // 3. A workload heavy enough to saturate a single replica: 4,000
    //    images arriving every millisecond.
    TaskSpec task;
    task.name = "cluster-demo";
    task.numImages = 4000;
    task.interarrival = milliseconds(1);
    const Trace trace = generateTrace(model, task);

    // 4. One replica vs. a 4-replica cluster, same workload.
    ClusterEngine single(homogeneousCluster(
        ctx, cfg, 1, RoutingPolicy::LeastLoaded, "single"));
    const ClusterResult one = single.run(trace, RunOptions{});
    report(one);

    ClusterEngine cluster(homogeneousCluster(
        ctx, cfg, 4, RoutingPolicy::LeastLoaded, "cluster-of-4"));
    const ClusterResult four = cluster.run(trace, RunOptions{});
    report(four);

    std::printf("\nscale-out speedup: %.2fx aggregate throughput\n",
                four.throughput / one.throughput);

    // 5. The same cluster with online scheduling: each arrival is
    //    routed at its arrival time from live replica state, and idle
    //    replicas steal queued work from backlogged siblings.
    ClusterConfig online = homogeneousCluster(
        ctx, cfg, 4, RoutingPolicy::LeastLoaded, "online-cluster");
    online.workStealing.enabled = true;
    ClusterEngine onlineCluster(std::move(online));
    const ClusterResult live =
        onlineCluster.run(trace, runWithMode(RunMode::Online));
    std::printf("\n%s", summarize(live).c_str());
    std::printf("online vs static: %.2fx throughput\n",
                live.throughput / four.throughput);
    return 0;
}
