/**
 * @file
 * The benchmark's four workloads and the one serve call each makes.
 *
 * A workload serves partsOf() independent traces ("parts"), each derived
 * from the run's seed and each of the workload's fixed length. The
 * simulated figures a run reports pool every part's answer, so they
 * describe the workload rather than one trace realization and repeat
 * closely from seed to seed.
 *
 * setUp() builds everything a serve call needs: board build, offline
 * profiling, per-part trace generation and memory planning, and
 * engine/cluster construction, each timed. serve() then makes one
 * public serve call — ServingEngine::run or ClusterEngine::run — on a
 * freshly built engine or cluster (both are single-use), timed around
 * the whole call from outside, and reduces the result to an Answer
 * (the exact simulated figures) plus host timings.
 *
 * With a SpanRecorder, serve() records spans around each public call
 * it makes; on engine_line it also wraps the DependencyAwareScheduler
 * and TwoStageEviction that makeCoServeEngine would build in timing
 * decorators, which splits host time into dispatch, victim selection
 * and the rest of the engine.
 */

#ifndef COEBENCH_WORKLOADS_H
#define COEBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aggregate.h"
#include "spans.h"

#include "coe/coe_model.h"
#include "workload/trace.h"

namespace coserve {
struct RunResult;
struct ClusterResult;
} // namespace coserve

namespace coebench {

enum class WorkloadKind
{
    EngineLine,
    Static4x,
    OnlineSlo,
    PreemptTraced,
};

/** @return false when @p name is not a workload. */
bool parseWorkload(const std::string &name, WorkloadKind &out);
const char *workloadName(WorkloadKind kind);

/** Independent traces a run of @p kind serves and pools. */
std::size_t partsOf(WorkloadKind kind);

/** Seed of part @p part of a run seeded @p seed. */
std::uint64_t partSeed(std::uint64_t seed, std::size_t part);

/**
 * Generate @p kind's arrival trace, of the workload's fixed length,
 * from @p seed. Simulated figures depend on the length.
 */
coserve::Trace makeTrace(WorkloadKind kind, const coserve::CoEModel &model,
                         std::uint64_t seed);

/** Build the CoE model (board) @p kind serves. */
coserve::CoEModel buildModel(WorkloadKind kind);

/** Wall time of each set-up phase, seconds (summed over parts). */
struct SetupTimes
{
    double buildBoardS = 0.0;
    double profileS = 0.0;
    double generateS = 0.0;
    double planMemoryS = 0.0;
    double constructS = 0.0;

    double
    total() const
    {
        return buildBoardS + profileS + generateS + planMemoryS +
               constructS;
    }
};

/**
 * Exact simulated figures of one or more serve calls. Every field is
 * additive, so merge() pools the answers of several parts; the ratios
 * are derived from the pooled sums.
 */
struct Answer
{
    std::int64_t calls = 0;
    std::int64_t arrivals = 0;
    std::int64_t images = 0;
    std::int64_t rejected = 0;
    std::int64_t downgraded = 0;
    std::int64_t crashLost = 0;
    std::int64_t crashRehomed = 0;
    /** Simulated makespans, summed (seconds). */
    double makespanS = 0.0;
    /** Images that met their SLO; classless images have no SLO to
     *  miss, so on classless traces this is every image. */
    std::int64_t sloMet = 0;
    std::int64_t classedCompleted = 0;
    std::int64_t violated = 0;
    /** Request latencies, arrival to completion (ms). */
    std::vector<double> latencyMs;

    std::int64_t events = 0;
    std::int64_t switches = 0;
    std::int64_t evictions = 0;
    std::int64_t gpuHits = 0;
    std::int64_t gpuAccesses = 0;
    std::int64_t cpuHits = 0;
    std::int64_t cpuAccesses = 0;
    double loadStallMs = 0.0;
    std::int64_t batches = 0;
    std::int64_t batchedRequests = 0;
    double busyS = 0.0;
    double executorS = 0.0;

    std::int64_t decisions = 0;
    std::int64_t stolen = 0;
    std::int64_t autoscaleActions = 0;
    double replicaS = 0.0;
    double imbalanceSum = 0.0;

    std::int64_t rescues = 0;
    std::int64_t checkpointBytes = 0;
    std::int64_t migratedGroups = 0;
    std::int64_t restoredGroups = 0;

    /** Cluster decision digest; 0 for a lone engine. */
    std::uint64_t digest = 0;

    /** images + rejected + crash-lost == arrivals. */
    bool
    conserved() const
    {
        return images + rejected + crashLost == arrivals;
    }
    /** Pool @p o into this. */
    void merge(const Answer &o);
    /** Hash over every field: equal fingerprints, equal answers. */
    std::uint64_t fingerprint() const;

    double throughput() const { return per(images, makespanS); }
    double goodput() const { return per(sloMet, makespanS); }
    double latencyPercentile(double p) const;
    double servedShare() const { return per(images, arrivals); }
    double violationRate() const { return per(violated, classedCompleted); }
    double switchesPerImage() const { return per(switches, images); }
    double gpuHitRate() const { return per(gpuHits, gpuAccesses); }
    double cpuHitRate() const { return per(cpuHits, cpuAccesses); }
    double avgBatchSize() const { return per(batchedRequests, batches); }
    double busyShare() const { return per(busyS, executorS); }
    double avgActiveReplicas() const { return per(replicaS, makespanS); }
    double imbalance() const { return per(imbalanceSum, calls); }

  private:
    static double
    per(double num, double den)
    {
        return den > 0.0 ? num / den : 0.0;
    }
    template <typename A, typename B>
    static double
    per(A num, B den)
    {
        return per(static_cast<double>(num), static_cast<double>(den));
    }
};

Answer answerOf(const coserve::RunResult &r, std::int64_t arrivals);
Answer answerOf(const coserve::ClusterResult &r, std::int64_t arrivals);

/** Host-side measurements of one serve call. */
struct HostSample
{
    /** Wall time of the whole public serve call. */
    double wallS = 0.0;
    /** Process CPU time over the same interval (all threads). */
    double cpuS = 0.0;
    /** ClusterResult::wallSeconds (0 for a lone engine). */
    double innerWallS = 0.0;
    /** The program's own host.<phase>_us gauges (cluster runs), plus
     *  "scheduling_us": its 1-in-16 sampled dispatch time. */
    std::map<std::string, double> hostUs;
    /** Span totals by name (traced calls only). */
    std::map<std::string, SpanTotals> spans;
    /** Size of the telemetry trace file written, MB (0 if none). */
    double traceMb = 0.0;
};

class Workload
{
  public:
    /**
     * Build every input of @p kind for @p seed, timing each phase into
     * @p times. Telemetry files (preempt_traced) go under @p outDir.
     */
    static std::unique_ptr<Workload>
    setUp(WorkloadKind kind, std::uint64_t seed, const std::string &outDir,
          SetupTimes &times);

    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * One serve call on part @p part (< partsOf(kind())). With @p rec, spans
     * are recorded around the public calls (and, on engine_line,
     * around dispatch and victim selection) into it; @p rec is null
     * for untraced calls.
     */
    virtual Answer serve(std::size_t part, SpanRecorder *rec,
                         HostSample &host) = 0;

    /** Path of the telemetry trace the serve call writes, or "". */
    virtual std::string traceFile() const { return ""; }

    WorkloadKind kind() const { return kind_; }

  protected:
    explicit Workload(WorkloadKind kind) : kind_(kind) {}

  private:
    WorkloadKind kind_;
};

/** Process CPU time (all threads), seconds. */
double processCpuSeconds();

/** Peak resident set size of this process, MB (10^6 bytes). */
double peakRssMb();

} // namespace coebench

#endif // COEBENCH_WORKLOADS_H
