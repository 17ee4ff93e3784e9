#include "workloads.h"

#include <sys/resource.h>

#include <ctime>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "baselines/systems.h"
#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "core/scheduler.h"
#include "core/two_stage_eviction.h"
#include "hw/device.h"
#include "metrics/cluster_result.h"
#include "workload/generator.h"

namespace coebench {

using namespace coserve;

namespace {

// ------------------------------------------------------ trace shapes

/** engine_line / static_4x: the paper's production line (§5.1). */
constexpr std::size_t kLineImages = 30000;
/** online_slo: virtual length of the diurnal three-tenant trace. */
constexpr Time kSloLength = seconds(480);
/** preempt_traced: virtual length of the fig25 bursty trace. */
constexpr Time kPreemptLength = seconds(60);

BoardSpec
denseBoard()
{
    // The fig25 dense deployment: few experts, mostly resident, so
    // compute rather than loading is the long pole.
    BoardSpec s;
    s.name = "fig25-dense";
    s.numComponents = 36;
    s.numDetectionExperts = 6;
    s.headFraction = 0.4;
    s.headMass = 0.85;
    s.seed = 0x25;
    return s;
}

DeviceSpec
edgeDevice()
{
    // The Table 1 NUMA node derated to a shared operating point.
    DeviceSpec dev = numaRtx3080Ti();
    dev.name = "NUMA edge (RTX3080Ti @ 35% shared)";
    dev.gpu.computeScale = 0.35;
    return dev;
}

std::vector<TenantSpec>
sloTenants()
{
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 12.0;
    interactive.latencyBudget = milliseconds(350);
    interactive.diurnalAmplitude = 0.85;
    interactive.diurnalPeriod = seconds(60);
    TenantSpec batch;
    batch.name = "batch";
    batch.cls = RequestClass::Batch;
    batch.ratePerSec = 8.0;
    batch.latencyBudget = seconds(2);
    batch.diurnalAmplitude = 0.6;
    batch.diurnalPeriod = seconds(60);
    TenantSpec bestEffort;
    bestEffort.name = "best-effort";
    bestEffort.cls = RequestClass::BestEffort;
    bestEffort.ratePerSec = 3.0;
    bestEffort.arrivals = ArrivalProcess::MMPP;
    bestEffort.mmppBurstFactor = 6.0;
    return {interactive, batch, bestEffort};
}

std::vector<TenantSpec>
preemptTenants()
{
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.cls = RequestClass::Interactive;
    interactive.ratePerSec = 30.0;
    interactive.latencyBudget = milliseconds(500);
    interactive.arrivals = ArrivalProcess::MMPP;
    interactive.mmppBurstFactor = 6.0;
    interactive.diurnalAmplitude = 0.8;
    interactive.diurnalPeriod = seconds(60);
    TenantSpec batch;
    batch.name = "batch";
    batch.cls = RequestClass::Batch;
    // fig25 sends 50 img/s; there the replicas sit at saturation and one
    // trace's p99 ranges from 1.5 s to 33 s, too wide to repeat from
    // seed to seed.
    batch.ratePerSec = 35.0;
    batch.latencyBudget = seconds(20);
    return {interactive, batch};
}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

// ------------------------------------------------- answer reduction

void
addExecutors(const RunResult &r, Time makespan, Answer &a)
{
    for (const ExecutorStats &e : r.executors) {
        a.loadStallMs += toMilliseconds(e.loadStall);
        a.busyS += toSeconds(e.busyTime);
        a.executorS += toSeconds(makespan);
        a.batches += e.batches;
        a.batchedRequests += e.requests;
    }
}

void
addCommon(const std::vector<TierStats> &tiers, const Samples &latency,
          const SloStats &slo, Time makespan, Answer &a)
{
    for (const TierStats &t : tiers) {
        const std::int64_t acc = t.counters.hits + t.counters.misses;
        if (t.level == "gpu") {
            a.gpuHits += t.counters.hits;
            a.gpuAccesses += acc;
        } else if (t.level == "cpu-dram") {
            a.cpuHits += t.counters.hits;
            a.cpuAccesses += acc;
        }
    }
    a.calls = 1;
    a.makespanS = toSeconds(makespan);
    a.latencyMs = latency.raw();
    a.rejected = slo.rejected();
    a.downgraded = slo.downgraded();
    a.sloMet = slo.any() ? slo.sloMet() : a.images;
    a.classedCompleted = slo.completed();
    a.violated = slo.violated();
}

} // namespace

void
Answer::merge(const Answer &o)
{
    calls += o.calls;
    arrivals += o.arrivals;
    images += o.images;
    rejected += o.rejected;
    downgraded += o.downgraded;
    crashLost += o.crashLost;
    crashRehomed += o.crashRehomed;
    makespanS += o.makespanS;
    sloMet += o.sloMet;
    classedCompleted += o.classedCompleted;
    violated += o.violated;
    latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                     o.latencyMs.end());
    events += o.events;
    switches += o.switches;
    evictions += o.evictions;
    gpuHits += o.gpuHits;
    gpuAccesses += o.gpuAccesses;
    cpuHits += o.cpuHits;
    cpuAccesses += o.cpuAccesses;
    loadStallMs += o.loadStallMs;
    batches += o.batches;
    batchedRequests += o.batchedRequests;
    busyS += o.busyS;
    executorS += o.executorS;
    decisions += o.decisions;
    stolen += o.stolen;
    autoscaleActions += o.autoscaleActions;
    replicaS += o.replicaS;
    imbalanceSum += o.imbalanceSum;
    rescues += o.rescues;
    checkpointBytes += o.checkpointBytes;
    migratedGroups += o.migratedGroups;
    restoredGroups += o.restoredGroups;
    digest = Fingerprint().add(digest).add(o.digest).value();
}

std::uint64_t
Answer::fingerprint() const
{
    Fingerprint f;
    f.add(calls).add(arrivals).add(images).add(rejected).add(downgraded);
    f.add(crashLost).add(crashRehomed).add(makespanS).add(sloMet);
    f.add(classedCompleted).add(violated);
    for (double x : latencyMs)
        f.add(x);
    f.add(events).add(switches).add(evictions).add(gpuHits);
    f.add(gpuAccesses).add(cpuHits).add(cpuAccesses).add(loadStallMs);
    f.add(batches).add(batchedRequests).add(busyS).add(executorS);
    f.add(decisions).add(stolen).add(autoscaleActions).add(replicaS);
    f.add(imbalanceSum).add(rescues).add(checkpointBytes);
    f.add(migratedGroups).add(restoredGroups).add(digest);
    return f.value();
}

double
Answer::latencyPercentile(double p) const
{
    Samples s;
    for (double x : latencyMs)
        s.add(x);
    return s.percentile(p);
}

Answer
answerOf(const RunResult &r, std::int64_t arrivals)
{
    Answer a;
    a.arrivals = arrivals;
    a.images = r.images;
    a.events = static_cast<std::int64_t>(r.eventsExecuted);
    a.switches = r.switches.total();
    a.evictions = r.switches.evictions;
    addExecutors(r, r.makespan, a);
    addCommon(r.tiers, r.requestLatencyMs, r.slo, r.makespan, a);
    a.rescues = r.preemptions;
    a.checkpointBytes = r.checkpointBytes;
    a.restoredGroups = r.restoredGroups;
    return a;
}

Answer
answerOf(const ClusterResult &r, std::int64_t arrivals)
{
    Answer a;
    a.arrivals = arrivals;
    a.images = r.images;
    a.crashLost = r.crashLost;
    a.crashRehomed = r.crashRehomed;
    a.events = static_cast<std::int64_t>(r.eventsExecuted);
    a.switches = r.switches.total();
    a.evictions = r.switches.evictions;
    for (const RunResult &rep : r.replicas)
        addExecutors(rep, r.makespan, a);
    addCommon(r.tiers, r.requestLatencyMs, r.slo, r.makespan, a);
    a.decisions = r.decisionCount;
    a.stolen = r.stolenRequests;
    a.autoscaleActions = r.autoscaleActivations + r.autoscaleQuiesces;
    a.replicaS = a.makespanS * (r.autoscaleEnabled
                                    ? r.avgActiveReplicas
                                    : static_cast<double>(r.replicas.size()));
    a.imbalanceSum = r.imbalance();
    a.rescues = r.preemptions;
    a.checkpointBytes = r.checkpointBytes;
    a.migratedGroups = r.migratedGroups;
    a.restoredGroups = r.restoredGroups;
    a.digest = r.decisionDigest;
    return a;
}

// ------------------------------------------------------- workloads

bool
parseWorkload(const std::string &name, WorkloadKind &out)
{
    for (WorkloadKind k :
         {WorkloadKind::EngineLine, WorkloadKind::Static4x,
          WorkloadKind::OnlineSlo, WorkloadKind::PreemptTraced}) {
        if (name == workloadName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::EngineLine:
        return "engine_line";
      case WorkloadKind::Static4x:
        return "static_4x";
      case WorkloadKind::OnlineSlo:
        return "online_slo";
      case WorkloadKind::PreemptTraced:
        return "preempt_traced";
    }
    return "?";
}

CoEModel
buildModel(WorkloadKind kind)
{
    return buildBoard(kind == WorkloadKind::PreemptTraced ? denseBoard()
                                                          : boardA());
}

std::size_t
partsOf(WorkloadKind kind)
{
    // Enough parts that the simulated figures repeat from seed to seed:
    // the SLO workloads' tails come from rare bursts, so they pool more
    // traces than the line workloads.
    switch (kind) {
      case WorkloadKind::EngineLine:
        return 8;
      case WorkloadKind::Static4x:
        return 16;
      case WorkloadKind::OnlineSlo:
        return 32;
      case WorkloadKind::PreemptTraced:
        return 128;
    }
    return 1;
}

std::uint64_t
partSeed(std::uint64_t seed, std::size_t part)
{
    return Fingerprint().add(seed).add(static_cast<std::uint64_t>(part))
        .value();
}

Trace
makeTrace(WorkloadKind kind, const CoEModel &model, std::uint64_t seed)
{
    switch (kind) {
      case WorkloadKind::EngineLine:
      case WorkloadKind::Static4x: {
          // Fixed 4 ms cadence: arrivals outpace service, so requests
          // wait in deep per-expert groups.
          TaskSpec task = taskA2();
          task.name = "engine-line";
          task.numImages = kLineImages;
          task.seed = seed;
          return generateTrace(model, task);
      }
      case WorkloadKind::OnlineSlo:
        return generateSloTrace(model, sloTenants(),
                                kSloLength, seed);
      case WorkloadKind::PreemptTraced:
        return generateSloTrace(model, preemptTenants(),
                                kPreemptLength, seed);
    }
    throw std::logic_error("unknown workload");
}

namespace {

/** Timing decorator around the engine's Scheduler. */
class TimedScheduler : public Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<Scheduler> inner, SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }
    const char *name() const override { return inner_->name(); }
    void
    dispatch(ServingEngine &engine, const Request &req) override
    {
        const ScopedSpan span(&rec_, "Scheduler::dispatch");
        inner_->dispatch(engine, req);
    }
    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<Scheduler> inner_;
    SpanRecorder &rec_;
};

/** Timing decorator around the engine's EvictionPolicy. */
class TimedEviction : public EvictionPolicy
{
  public:
    TimedEviction(std::unique_ptr<EvictionPolicy> inner, SpanRecorder &rec)
        : inner_(std::move(inner)), rec_(rec)
    {
    }
    const char *name() const override { return inner_->name(); }
    std::optional<ExpertId>
    selectVictim(const MemoryTier &pool,
                 const EvictionContext &ctx) override
    {
        const ScopedSpan span(&rec_, "EvictionPolicy::selectVictim");
        return inner_->selectVictim(pool, ctx);
    }

  private:
    std::unique_ptr<EvictionPolicy> inner_;
    SpanRecorder &rec_;
};

/** Board, offline context and each part's trace and engine config. */
struct Inputs
{
    std::unique_ptr<CoEModel> model;
    std::unique_ptr<Harness> harness;
    std::vector<Trace> traces;
    std::vector<EngineConfig> cfgs;

    Inputs(WorkloadKind kind, std::uint64_t seed, SetupTimes &times)
    {
        std::int64_t t = nowNs();
        model = std::make_unique<CoEModel>(buildModel(kind));
        times.buildBoardS = secondsSince(t);

        t = nowNs();
        const DeviceSpec dev = kind == WorkloadKind::PreemptTraced
                                   ? edgeDevice()
                                   : numaRtx3080Ti();
        harness = std::make_unique<Harness>(dev, *model);
        times.profileS = secondsSince(t);

        for (std::size_t p = 0; p < partsOf(kind); ++p) {
            t = nowNs();
            traces.push_back(makeTrace(kind, *model, partSeed(seed, p)));
            times.generateS += secondsSince(t);

            t = nowNs();
            cfgs.push_back(resolveConfig(kind, traces.back()));
            times.planMemoryS += secondsSince(t);
        }
    }

    const CoServeContext &ctx() const { return harness->context(); }

  private:
    EngineConfig
    resolveConfig(WorkloadKind kind, const Trace &trace)
    {
        switch (kind) {
          case WorkloadKind::EngineLine:
          case WorkloadKind::Static4x:
            // CoServe Best: decay-window memory planning on a prefix of
            // the part's own trace.
            return harness->makeConfig(SystemKind::CoServeBest, trace, {});
          case WorkloadKind::OnlineSlo:
            return harness->makeConfig(SystemKind::CoServeCasual, trace,
                                       {});
          case WorkloadKind::PreemptTraced: {
              // One GPU + one CPU executor at maximum residency; the
              // CPU DRAM tier doubles as the checkpoint parking tier.
              const CoServeContext &c = ctx();
              const auto bounds = gpuExpertCountBounds(c, 1, 1);
              EngineConfig pc = coserveConfig(
                  c, coserveExecutorLayout(c, 1, 1, bounds.second),
                  "preempt-traced");
              pc.cpuCacheTier = true;
              pc.cpuCacheBytes = c.device().cpuMemoryBytes / 2;
              return pc;
          }
        }
        throw std::logic_error("unknown workload");
    }
};

class EngineWorkload : public Workload
{
  public:
    EngineWorkload(std::uint64_t seed, SetupTimes &times)
        : Workload(WorkloadKind::EngineLine),
          in_(WorkloadKind::EngineLine, seed, times)
    {
        const std::int64_t t = nowNs();
        next_ = makeCoServeEngine(in_.ctx(), in_.cfgs[0]);
        times.constructS = secondsSince(t);
    }

    Answer
    serve(std::size_t part, SpanRecorder *rec, HostSample &host) override
    {
        const EngineConfig &cfg = in_.cfgs.at(part);
        const Trace &trace = in_.traces.at(part);
        std::unique_ptr<ServingEngine> engine;
        if (rec != nullptr) {
            // The same scheduler and eviction objects makeCoServeEngine
            // builds, each behind a timing decorator.
            const CoServeContext &c = in_.ctx();
            engine = std::make_unique<ServingEngine>(
                cfg, c.model(), c.truth(), c.footprint(), c.usage(),
                std::make_unique<TimedScheduler>(
                    std::make_unique<DependencyAwareScheduler>(&c.perf()),
                    *rec),
                std::make_unique<TimedEviction>(
                    std::make_unique<TwoStageEviction>(), *rec));
        } else if (next_ && part == 0) {
            engine = std::move(next_);
        } else {
            engine = makeCoServeEngine(in_.ctx(), cfg);
        }

        RunResult r;
        const double cpu0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        {
            const ScopedSpan span(rec, "ServingEngine::run");
            r = engine->run(trace);
        }
        host.wallS = secondsSince(t0);
        host.cpuS = processCpuSeconds() - cpu0;
        double sampled = 0.0;
        for (double us : r.schedulingWallUs.raw())
            sampled += us;
        host.hostUs["scheduling_us"] = sampled;
        return answerOf(r, static_cast<std::int64_t>(trace.size()));
    }

  private:
    Inputs in_;
    /** Engine built during set-up, used by the first call on part 0. */
    std::unique_ptr<ServingEngine> next_;
};

class ClusterWorkload : public Workload
{
  public:
    ClusterWorkload(WorkloadKind kind, std::uint64_t seed,
                    const std::string &outDir, SetupTimes &times)
        : Workload(kind), in_(kind, seed, times)
    {
        const std::int64_t t = nowNs();
        for (const EngineConfig &cfg : in_.cfgs)
            ccs_.push_back(clusterConfig(kind, cfg));
        opts_ = runWithMode(kind == WorkloadKind::Static4x
                                ? RunMode::Static
                                : RunMode::Online);
        if (kind == WorkloadKind::PreemptTraced) {
            // One replica crashes halfway through the trace, and every
            // telemetry output is on.
            opts_.faults.crashes.push_back(
                {2, kPreemptLength / 2});
            opts_.telemetry.enabled = true;
            opts_.telemetry.tracePath = outDir + "/preempt_traced_trace.json";
            opts_.telemetry.metricsJsonPath =
                outDir + "/preempt_traced_metrics.json";
            opts_.telemetry.metricsCsvPath =
                outDir + "/preempt_traced_metrics.csv";
            opts_.telemetry.sampleInterval = milliseconds(500);
        }
        next_ = std::make_unique<ClusterEngine>(ccs_[0]);
        times.constructS = secondsSince(t);
    }

    Answer
    serve(std::size_t part, SpanRecorder *rec, HostSample &host) override
    {
        const Trace &trace = in_.traces.at(part);
        std::unique_ptr<ClusterEngine> cluster =
            next_ && part == 0 ? std::move(next_)
                               : std::make_unique<ClusterEngine>(ccs_[part]);
        if (rec != nullptr && kind() == WorkloadKind::Static4x) {
            // Offline routing, timed from outside as its own public
            // call: ClusterResult::wallSeconds leaves it out.
            const ScopedSpan span(rec, "ClusterEngine::routeTrace");
            const std::vector<std::size_t> route =
                cluster->routeTrace(trace);
            if (route.size() != trace.size())
                throw std::logic_error("routeTrace dropped arrivals");
        }

        ClusterResult r;
        const double cpu0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        {
            const ScopedSpan span(rec, "ClusterEngine::run");
            r = cluster->run(trace, opts_);
        }
        host.wallS = secondsSince(t0);
        host.cpuS = processCpuSeconds() - cpu0;
        host.innerWallS = r.wallSeconds;
        for (const obs::MetricSample &m : r.metrics.rows) {
            const std::string &n = m.name;
            if (n.rfind("host.", 0) == 0 && n.size() > 8 &&
                n.compare(n.size() - 3, 3, "_us") == 0)
                host.hostUs[n.substr(5)] = m.value;
        }
        if (!opts_.telemetry.tracePath.empty()) {
            std::error_code ec;
            const auto bytes =
                std::filesystem::file_size(opts_.telemetry.tracePath, ec);
            host.traceMb = ec ? 0.0 : static_cast<double>(bytes) * 1e-6;
        }
        return answerOf(r, static_cast<std::int64_t>(trace.size()));
    }

    std::string
    traceFile() const override
    {
        return opts_.telemetry.tracePath;
    }

  private:
    ClusterConfig
    clusterConfig(WorkloadKind kind, const EngineConfig &cfg) const
    {
        switch (kind) {
          case WorkloadKind::Static4x:
            return homogeneousCluster(in_.ctx(), cfg, 4,
                                      RoutingPolicy::LeastLoaded,
                                      "static-4x");
          case WorkloadKind::OnlineSlo: {
              ClusterConfig cc = homogeneousCluster(
                  in_.ctx(), cfg, 4, RoutingPolicy::LeastLoaded,
                  "online-slo");
              cc.workStealing.enabled = true;
              cc.admission.enabled = true;
              cc.admission.slack = 1.25;
              cc.autoscale.enabled = true;
              cc.autoscale.interval = seconds(1);
              cc.autoscale.cooldown = seconds(2);
              return cc;
          }
          case WorkloadKind::PreemptTraced: {
              ClusterConfig cc = homogeneousCluster(
                  in_.ctx(), cfg, 3, RoutingPolicy::LeastLoaded,
                  "preempt-traced");
              cc.workStealing.enabled = true;
              cc.admission.enabled = true;
              cc.admission.slack = 1.25;
              cc.autoscale.enabled = true;
              cc.autoscale.interval = seconds(1);
              cc.autoscale.cooldown = seconds(2);
              cc.autoscale.minReplicas = 1;
              cc.autoscale.startReplicas = 3;
              cc.preemption.enabled = true;
              cc.preemption.minRunQuantum = milliseconds(20);
              cc.preemption.maxPreemptionsPerGroup = 2;
              cc.preemption.migration = true;
              cc.preemption.migrationMinRemaining = milliseconds(20);
              return cc;
          }
          case WorkloadKind::EngineLine:
            break;
        }
        throw std::logic_error("engine_line is not a cluster");
    }

    Inputs in_;
    std::vector<ClusterConfig> ccs_;
    RunOptions opts_;
    /** Cluster built during set-up, used by the first call on part 0. */
    std::unique_ptr<ClusterEngine> next_;
};

} // namespace

std::unique_ptr<Workload>
Workload::setUp(WorkloadKind kind, std::uint64_t seed,
                const std::string &outDir, SetupTimes &times)
{
    if (kind == WorkloadKind::EngineLine)
        return std::make_unique<EngineWorkload>(seed, times);
    return std::make_unique<ClusterWorkload>(kind, seed, outDir, times);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 * 1e-6;
}

} // namespace coebench
