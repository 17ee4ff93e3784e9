/**
 * @file
 * Cluster-level request routing.
 *
 * A ReplicaRouter decides, for every incoming image, which serving
 * replica handles it — *before* the replica's own dependency-aware
 * scheduler picks an executor queue. Three policies:
 *
 *  - RoundRobin       arrival i -> replica i mod N; the baseline
 *                     front-end of Samba-style deployments.
 *  - LeastLoaded      predicted-makespan balancing: the same K/B +
 *                     switch-latency estimate the dependency-aware
 *                     scheduler uses per executor (Section 4.2),
 *                     lifted to replica granularity with a residency
 *                     approximation per replica.
 *  - ExpertAffinity   requests hash by their classification expert, so
 *                     all images of one component type land on the
 *                     replica that already holds that expert resident
 *                     (minimizes cluster-wide expert switches).
 */

#ifndef COSERVE_CLUSTER_ROUTER_H
#define COSERVE_CLUSTER_ROUTER_H

#include <memory>
#include <vector>

#include "core/coserve.h"
#include "util/logging.h"
#include "workload/trace.h"

namespace coserve {

/** Cluster dispatch policies. */
enum class RoutingPolicy
{
    RoundRobin,
    LeastLoaded,
    ExpertAffinity,
};

/** Display name matching bench legends. */
const char *toString(RoutingPolicy policy);

/** What a router may inspect about one replica. */
struct ReplicaView
{
    /** Offline products of the replica's device (not owned). */
    const CoServeContext *ctx = nullptr;
    /** The replica's resolved engine configuration (not owned). */
    const EngineConfig *cfg = nullptr;
};

/** Routes each incoming image to exactly one replica. */
class ReplicaRouter
{
  public:
    virtual ~ReplicaRouter() = default;

    /** @return display name for reports. */
    virtual const char *name() const = 0;

    /** @return replica index in [0, numReplicas) for @p arrival. */
    virtual std::size_t route(const ImageArrival &arrival) = 0;

    /**
     * Online overload: route @p arrival using live replica load
     * snapshots (@p views, one per replica in construction order)
     * instead of the router's private model of replica state. The
     * base implementation ignores the views and falls back to
     * route(), so offline-only policies keep working in online mode.
     */
    virtual std::size_t
    routeLive(const ImageArrival &arrival,
              const std::vector<ReplicaLoadView> &views)
    {
        (void)views;
        return route(arrival);
    }

    /**
     * Whether routeLive() actually reads the views: a coordinator may
     * skip the per-arrival snapshot work for policies that fall back
     * to the offline route().
     */
    virtual bool usesLiveViews() const { return false; }
};

/**
 * Capability check: whether @p view's context was profiled for
 * @p arch on *every* processor kind the replica runs — the
 * dependency-aware scheduler estimates each executor's cost on
 * dispatch, so one unprofiled executor kind aborts the replica even
 * if another kind could serve the request. A heterogeneous cluster
 * may hold replicas that cannot serve some architectures; routers and
 * the work-stealing filter must both honor this single rule.
 */
inline bool
capable(const ReplicaView &view, ArchId arch)
{
    bool any = false;
    for (const ExecutorConfig &e : view.cfg->executors) {
        if (!view.ctx->perf().has(arch, e.kind))
            return false;
        any = true;
    }
    return any;
}

/**
 * Whole-chain capability: request chains stay replica-local, so a
 * routed arrival must be servable end to end — the classify stage
 * AND the detect child a non-defective classification may spawn.
 */
inline bool
chainCapable(const ReplicaView &view, const CoEModel &model,
             ComponentId component)
{
    const ComponentType &comp = model.component(component);
    if (!capable(view, model.expert(comp.classifier).arch))
        return false;
    return comp.detector == kNoExpert ||
           capable(view, model.expert(comp.detector).arch);
}

/**
 * The static capability of a fixed replica set, computed once when a
 * router or coordinator is built: the capable() and chainCapable()
 * verdicts for every (replica, architecture) and (replica, component)
 * pair, and the processor kind each replica's replica-level estimates
 * price work on. Per-arrival callers index these tables instead of
 * re-walking executor lists and perf matrices.
 */
class ReplicaCapabilities
{
  public:
    ReplicaCapabilities(const std::vector<ReplicaView> &replicas,
                        const CoEModel &model);

    /** @return capable(replicas[@p replica], @p arch). */
    bool
    serves(std::size_t replica, ArchId arch) const
    {
        return arch_[replica * static_cast<std::size_t>(kNumArchIds) +
                     static_cast<std::size_t>(arch)] != 0;
    }

    /** @return chainCapable(replicas[@p replica], model, @p component). */
    bool
    chainServes(std::size_t replica, ComponentId component) const
    {
        COSERVE_CHECK(component >= 0 &&
                          static_cast<std::size_t>(component) <
                              numComponents_,
                      "component id out of range: ", component);
        return chain_[replica * numComponents_ +
                      static_cast<std::size_t>(component)] != 0;
    }

    /**
     * Processor kind replica-level estimates use for @p replica: GPU
     * when it runs any GPU executor, else CPU.
     */
    ProcKind
    estimateProc(std::size_t replica) const
    {
        return proc_[replica];
    }

  private:
    std::size_t numComponents_;
    std::vector<char> arch_;
    std::vector<char> chain_;
    std::vector<ProcKind> proc_;
};

/**
 * Replica-level additional-latency estimate used by the least-loaded
 * router: the (execution + switch) cost spread over the replica's
 * executor parallelism. Rounded *up* — plain integer Time division
 * truncates sub-parallelism estimates to zero, which collapses the
 * router's finish/additional-latency tie-break into a degenerate
 * arg-min over equal keys.
 */
inline Time
replicaAdditionalLatency(Time execPart, Time switchPart,
                         std::size_t parallelism)
{
    const Time par = static_cast<Time>(parallelism > 0 ? parallelism : 1);
    return (execPart + switchPart + par - 1) / par;
}

/**
 * Build a router over @p replicas for @p model. Views are copied; the
 * contexts/configs they point to must outlive the router.
 */
std::unique_ptr<ReplicaRouter>
makeRouter(RoutingPolicy policy, const CoEModel &model,
           std::vector<ReplicaView> replicas);

} // namespace coserve

#endif // COSERVE_CLUSTER_ROUTER_H
