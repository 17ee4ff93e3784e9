#include "cluster/router.h"

#include <algorithm>

#include "core/scheduler.h"
#include "util/logging.h"

namespace coserve {

const char *
toString(RoutingPolicy policy)
{
    switch (policy) {
    case RoutingPolicy::RoundRobin:
        return "round-robin";
    case RoutingPolicy::LeastLoaded:
        return "least-loaded";
    case RoutingPolicy::ExpertAffinity:
        return "expert-affinity";
    }
    return "?";
}

ReplicaCapabilities::ReplicaCapabilities(
    const std::vector<ReplicaView> &replicas, const CoEModel &model)
    : numComponents_(model.numComponents())
{
    arch_.reserve(replicas.size() * static_cast<std::size_t>(kNumArchIds));
    chain_.reserve(replicas.size() * numComponents_);
    for (const ReplicaView &view : replicas) {
        for (int a = 0; a < kNumArchIds; ++a)
            arch_.push_back(capable(view, static_cast<ArchId>(a)) ? 1 : 0);
        for (std::size_t c = 0; c < numComponents_; ++c) {
            chain_.push_back(
                chainCapable(view, model, static_cast<ComponentId>(c))
                    ? 1
                    : 0);
        }
        bool hasGpu = false;
        for (const ExecutorConfig &e : view.cfg->executors)
            hasGpu = hasGpu || e.kind == ProcKind::GPU;
        proc_.push_back(hasGpu ? ProcKind::GPU : ProcKind::CPU);
    }
}

Time
liveSwitchCost(const ReplicaView &view, ArchId arch, ProcKind proc,
               const ReplicaLoadView &live, Time at)
{
    if (!view.ctx->perf().has(arch, proc))
        return 0;
    const Time load = view.ctx->perf().at(arch, proc).loadLatency;
    const Time cost = proc == ProcKind::GPU
                          ? static_cast<Time>(static_cast<double>(load) *
                                              live.gpuPressure)
                          : load;
    return cost +
           std::max<Time>(0, live.storageFreeAt - std::max(live.now, at));
}

LiveEstimate
liveEstimate(const ReplicaView &view, ProcKind proc,
             const ReplicaLoadView &live, ExpertId expert, Time at)
{
    const ArchId arch = view.ctx->model().expert(expert).arch;
    const bool joins = live.queued(expert);
    LiveEstimate est;
    est.cost = DependencyAwareScheduler::execEstimate(
        &view.ctx->perf(), &view.ctx->truth(), arch, proc, joins);
    if (!joins && !live.resident(expert))
        est.cost += liveSwitchCost(view, arch, proc, live, at);
    // Live per-executor loads make the offline parallelism division
    // unnecessary.
    Time soonest = live.executors.empty() ? at : kTimeNever;
    for (const ReplicaLoadView::ExecutorLoad &ex : live.executors) {
        soonest =
            std::min(soonest, std::max(at, ex.busyUntil) + ex.pendingWork);
    }
    est.finish = std::max(at, soonest) + est.cost;
    return est;
}

namespace {

/** splitmix64 finalizer: spreads dense expert ids across replicas. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * First chain-capable replica at or after @p start (wrapping): an
 * assignment must not pin a component onto a replica whose context
 * lacks a perf entry for its classifier — or for the detector its
 * chain may continue on.
 */
std::size_t
firstChainCapable(const ReplicaCapabilities &caps, std::size_t replicas,
                  ComponentId component, std::size_t start)
{
    for (std::size_t j = 0; j < replicas; ++j) {
        const std::size_t i = (start + j) % replicas;
        if (caps.chainServes(i, component))
            return i;
    }
    panic("no replica can serve component ",
          static_cast<int>(component));
}

class RoundRobinRouter : public ReplicaRouter
{
  public:
    RoundRobinRouter(const CoEModel &model,
                     const std::vector<ReplicaView> &replicas)
        : caps_(replicas, model), numReplicas_(replicas.size()),
          last_(numReplicas_ - 1) // first arrival starts at 0
    {}

    const char *name() const override { return "round-robin"; }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        // The wheel continues from the previously *chosen* replica,
        // so incapable replicas are skipped without donating their
        // turn to a fixed successor (which would double that
        // replica's share). Identical to plain round-robin on a
        // fully-capable cluster.
        last_ = firstChainCapable(caps_, numReplicas_, arrival.component,
                                  (last_ + 1) % numReplicas_);
        return last_;
    }

  private:
    ReplicaCapabilities caps_;
    std::size_t numReplicas_;
    /** Replica chosen for the previous arrival (wheel position). */
    std::size_t last_;
};

class ExpertAffinityRouter : public ReplicaRouter
{
  public:
    ExpertAffinityRouter(const CoEModel &model,
                         const std::vector<ReplicaView> &replicas)
        : model_(model), caps_(replicas, model),
          numReplicas_(replicas.size())
    {}

    const char *name() const override { return "expert-affinity"; }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        const ExpertId e =
            model_.component(arrival.component).classifier;
        return capableFrom(home(e), arrival.component);
    }

    bool usesLiveViews() const override { return true; }

    std::size_t
    routeLive(const ImageArrival &arrival,
              const std::vector<ReplicaLoadView> &views) override
    {
        const ExpertId e =
            model_.component(arrival.component).classifier;
        // Prefer a replica that *actually* holds the classifier
        // resident right now — the hash is only a stateless guess at
        // that. The hashed home wins ties, and the fallback scan
        // wraps from it, so the mapping stays sticky instead of
        // biasing toward low replica indices. Quiesced replicas
        // (acceptingWork false, autoscaler) are skipped; the
        // coordinator re-homes the hashed fallback if needed.
        const std::size_t hashed = capableFrom(home(e), arrival.component);
        if (views[hashed].acceptingWork && views[hashed].resident(e))
            return hashed;
        for (std::size_t j = 1; j < numReplicas_; ++j) {
            const std::size_t i = (hashed + j) % numReplicas_;
            if (views[i].acceptingWork &&
                caps_.chainServes(i, arrival.component) &&
                views[i].resident(e))
                return i;
        }
        return hashed;
    }

  private:
    std::size_t
    home(ExpertId e) const
    {
        return static_cast<std::size_t>(
            mix64(static_cast<std::uint64_t>(e)) % numReplicas_);
    }

    std::size_t
    capableFrom(std::size_t start, ComponentId component) const
    {
        return firstChainCapable(caps_, numReplicas_, component, start);
    }

    const CoEModel &model_;
    ReplicaCapabilities caps_;
    std::size_t numReplicas_;
};

/**
 * Least-loaded by predicted makespan. Per replica we track (a) the
 * predicted completion time of the work routed so far and (b) an LRU
 * approximation of which experts are resident, sized from the
 * replica's pool bytes. Each candidate's cost is the dependency-aware
 * scheduler's execution estimate (K / K + B) plus the profiled load
 * latency when the expert is predicted non-resident, divided by the
 * replica's executor parallelism.
 */
class LeastLoadedRouter : public ReplicaRouter
{
  public:
    LeastLoadedRouter(const CoEModel &model,
                      std::vector<ReplicaView> replicas)
        : model_(model), replicas_(std::move(replicas)),
          caps_(replicas_, model_)
    {
        for (const ReplicaView &view : replicas_) {
            // Footprints are per-device: size each replica's residency
            // estimate from its own context.
            std::int64_t totalBytes = 0;
            for (const Expert &e : model_.experts())
                totalBytes += view.ctx->footprint().expertBytes(e.arch);
            const std::int64_t avgBytes =
                totalBytes /
                static_cast<std::int64_t>(model_.numExperts());

            State st;
            std::int64_t poolBytes = 0;
            for (const ExecutorConfig &e : view.cfg->executors)
                poolBytes += e.poolBytes;
            st.parallelism =
                std::max<std::size_t>(1, view.cfg->executors.size());
            st.capacity = std::max<std::size_t>(
                1, static_cast<std::size_t>(poolBytes /
                                            std::max<std::int64_t>(
                                                1, avgBytes)));
            states_.push_back(std::move(st));
        }
    }

    const char *name() const override { return "least-loaded"; }

    std::size_t
    route(const ImageArrival &arrival) override
    {
        const ExpertId expert =
            model_.component(arrival.component).classifier;
        const ArchId arch = model_.expert(expert).arch;

        std::size_t best = replicas_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            if (!caps_.chainServes(i, arrival.component))
                continue;
            const Time add = additionalLatency(i, expert, arch);
            const Time finish =
                std::max(arrival.time, states_[i].finish) + add;
            if (finish < bestFinish ||
                (finish == bestFinish && add < bestAdd)) {
                best = i;
                bestFinish = finish;
                bestAdd = add;
            }
        }
        COSERVE_CHECK(best < replicas_.size(),
                      "no replica can serve arch ",
                      static_cast<int>(arch));

        states_[best].finish = bestFinish;
        touch(states_[best], expert);
        return best;
    }

    /**
     * Online routing: replace the router's private finish model and
     * LRU residency guess with the replicas' actual state — the
     * earliest-free executor's predicted finish, and residency from
     * the live pool snapshot. The prediction itself is stateless
     * (nothing drifts between arrivals); the only cross-arrival state
     * is the sticky per-expert home used for affinity hysteresis.
     */
    bool usesLiveViews() const override { return true; }

    std::size_t
    routeLive(const ImageArrival &arrival,
              const std::vector<ReplicaLoadView> &views) override
    {
        const ExpertId expert =
            model_.component(arrival.component).classifier;
        const ArchId arch = model_.expert(expert).arch;

        std::size_t best = replicas_.size();
        Time bestFinish = kTimeNever;
        Time bestAdd = kTimeNever;
        std::vector<Time> &finishes = liveScratch_;
        finishes.assign(replicas_.size(), kTimeNever);
        for (std::size_t i = 0; i < replicas_.size(); ++i) {
            // Quiesced replicas (autoscaler) take no new work; their
            // finishes entry stays kTimeNever, which also disarms the
            // affinity hysteresis below while a home is drained.
            if (!views[i].acceptingWork ||
                !caps_.chainServes(i, arrival.component))
                continue;
            // Live residency, GPU memory pressure and storage backlog:
            // state the offline router cannot see.
            const LiveEstimate est =
                liveEstimate(replicas_[i], caps_.estimateProc(i),
                             views[i], expert, arrival.time);
            finishes[i] = est.finish;
            if (est.finish < bestFinish ||
                (est.finish == bestFinish && est.cost < bestAdd)) {
                best = i;
                bestFinish = est.finish;
                bestAdd = est.cost;
            }
        }
        COSERVE_CHECK(best < replicas_.size(),
                      "no replica can serve arch ",
                      static_cast<int>(arch));

        // Cache-affinity hysteresis: greedy finish-minimization would
        // re-home an expert on every load-balance wobble, scattering
        // copies of the hot experts across all pools (each re-homing
        // pays a load now and evicts someone else's expert later).
        // Stay with the expert's established home unless its live
        // finish trails the greedy pick by more than one switch —
        // i.e. rebalance exactly when affinity costs more than the
        // load it saves.
        if (static_cast<std::size_t>(expert) >= home_.size())
            home_.resize(static_cast<std::size_t>(expert) + 1, SIZE_MAX);
        const std::size_t h = home_[expert];
        if (h != SIZE_MAX && h != best && finishes[h] != kTimeNever &&
            finishes[h] <= bestFinish + liveSwitchCost(replicas_[h], arch,
                                                       caps_.estimateProc(h),
                                                       views[h],
                                                       arrival.time))
            best = h;
        home_[expert] = best;
        return best;
    }

  private:
    struct State
    {
        /** Predicted completion of all work routed to this replica. */
        Time finish = 0;
        /** MRU-ordered experts predicted resident (front = newest). */
        std::vector<ExpertId> resident;
        std::size_t capacity = 1;
        std::size_t parallelism = 1;
    };

    Time
    additionalLatency(std::size_t i, ExpertId expert, ArchId arch) const
    {
        const ReplicaView &view = replicas_[i];
        const State &st = states_[i];
        const ProcKind proc = caps_.estimateProc(i);

        const bool resident =
            std::find(st.resident.begin(), st.resident.end(), expert) !=
            st.resident.end();
        // A resident expert's group is likely still queued: K only.
        const Time execPart = DependencyAwareScheduler::execEstimate(
            &view.ctx->perf(), &view.ctx->truth(), arch, proc, resident);
        Time switchPart = 0;
        if (!resident && view.ctx->perf().has(arch, proc))
            switchPart = view.ctx->perf().at(arch, proc).loadLatency;

        // Executor queues inside the replica drain in parallel; the
        // division rounds up so small estimates stay > 0 (plain
        // integer division truncates them to zero and degenerates the
        // finish/add tie-break).
        return replicaAdditionalLatency(execPart, switchPart,
                                        st.parallelism);
    }

    void
    touch(State &st, ExpertId expert)
    {
        auto it = std::find(st.resident.begin(), st.resident.end(),
                            expert);
        if (it != st.resident.end())
            st.resident.erase(it);
        st.resident.insert(st.resident.begin(), expert);
        if (st.resident.size() > st.capacity)
            st.resident.resize(st.capacity);
    }

    const CoEModel &model_;
    std::vector<ReplicaView> replicas_;
    ReplicaCapabilities caps_;
    std::vector<State> states_;
    /** Live mode: each expert's current home replica (SIZE_MAX: none). */
    std::vector<std::size_t> home_;
    /** Live mode: per-arrival finish scratch (allocation-free). */
    std::vector<Time> liveScratch_;
};

} // namespace

std::unique_ptr<ReplicaRouter>
makeRouter(RoutingPolicy policy, const CoEModel &model,
           std::vector<ReplicaView> replicas)
{
    COSERVE_CHECK(!replicas.empty(), "router needs replicas");
    for (const ReplicaView &v : replicas)
        COSERVE_CHECK(v.ctx != nullptr && v.cfg != nullptr,
                      "replica view missing context or config");

    switch (policy) {
    case RoutingPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>(model, replicas);
    case RoutingPolicy::LeastLoaded:
        return std::make_unique<LeastLoadedRouter>(model,
                                                   std::move(replicas));
    case RoutingPolicy::ExpertAffinity:
        return std::make_unique<ExpertAffinityRouter>(model, replicas);
    }
    panic("unknown routing policy");
}

} // namespace coserve
