/**
 * @file
 * The serving engine: ties executors, channels, policies and the CoE
 * model into one runnable system (paper Figure 7).
 *
 * One engine instance executes one workload trace on one configured
 * system (a CoServe variant or a Samba-CoE baseline) over the
 * discrete-event core and returns a RunResult with the paper's metrics.
 */

#ifndef COSERVE_RUNTIME_ENGINE_H
#define COSERVE_RUNTIME_ENGINE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "coe/dependency.h"
#include "coe/usage.h"
#include "hw/transfer.h"
#include "metrics/run_result.h"
#include "model/footprint_model.h"
#include "model/latency_model.h"
#include "preempt/checkpoint_model.h"
#include "preempt/preempt.h"
#include "runtime/executor.h"
#include "runtime/expert_presence.h"
#include "runtime/memory_tier.h"
#include "runtime/policies.h"
#include "sim/channel.h"
#include "sim/event_queue.h"
#include "workload/trace.h"

namespace coserve {

/**
 * Live load snapshot of one serving engine, exposed to cluster-level
 * routers (cluster/router.h) in online-routing mode: what a replica is
 * *actually* doing right now, as opposed to the router's private model
 * of what it predicted the replica would do.
 */
struct ReplicaLoadView
{
    /** Replica virtual time at snapshot. */
    Time now = 0;
    /** Requests queued but not yet started, across all executors. */
    std::size_t queueDepth = 0;
    /** Sum of the queues' scheduler latency estimates. */
    Time backlog = 0;
    /** True when the engine has no pending events (drained). */
    bool idle = false;
    /**
     * When the replica's (serialized) storage channel frees up: a new
     * SSD load queues behind every in-flight one, so the effective
     * switch cost is the uncontended load latency plus this backlog.
     */
    Time storageFreeAt = 0;
    /** GPU load slowdown under memory pressure (engine's model). */
    double gpuPressure = 1.0;
    /**
     * Coordinator-owned routing gate (the engine never writes it):
     * false while the autoscaler has this replica quiesced — routers
     * must not send new arrivals, though in-flight work still drains.
     * fillLoadView() resets it to true; the coordinator re-applies
     * the active set after every refresh.
     */
    bool acceptingWork = true;
    /** Per-executor load components (see executors below). */
    struct ExecutorLoad
    {
        /** When the executor's running batch completes (<= now: idle). */
        Time busyUntil = 0;
        /** The queue's pending-work estimate. */
        Time pendingWork = 0;
    };
    /**
     * Per-executor predicted-finish components, in executor order: a
     * consumer at decision time `at` computes
     * max(at, busyUntil) + pendingWork — keeping the two parts
     * separate lets a cached snapshot stay exact while only the clock
     * has moved.
     */
    std::vector<ExecutorLoad> executors;
    /**
     * Per-expert membership, indexed by ExpertId (ExpertPresence::
     * kResident | kQueued bits; ids past the end are in neither set):
     *  - resident: settled in one of the replica's executor pools
     *    (loading entries excluded) — the actual resident set the
     *    offline routers only approximate with an LRU guess;
     *  - queued: demanded by at least one queued request. A new
     *    same-expert request joins the group and pays no switch — the
     *    paper's Section 4.2 condition, lifted to replica granularity.
     */
    std::vector<std::uint8_t> expertFlags;

    /** @return true when @p e is resident in an executor pool. */
    bool
    resident(ExpertId e) const
    {
        return (flagsOf(e) & ExpertPresence::kResident) != 0;
    }

    /** @return true when a queued request already demands @p e. */
    bool
    queued(ExpertId e) const
    {
        return (flagsOf(e) & ExpertPresence::kQueued) != 0;
    }

  private:
    std::uint8_t
    flagsOf(ExpertId e) const
    {
        // A negative id wraps past every size: in neither set.
        const auto i = static_cast<std::size_t>(e);
        return i < expertFlags.size() ? expertFlags[i] : 0;
    }
};

/** Single-use serving system instance. */
class ServingEngine
{
  public:
    /**
     * @param cfg resolved system configuration.
     * @param model CoE model served (must outlive the engine).
     * @param truth ground-truth execution latency model.
     * @param footprint memory footprint model.
     * @param usage expert usage profile (preload + eviction).
     * @param scheduler request scheduler (ownership transferred).
     * @param eviction eviction policy (ownership transferred).
     */
    ServingEngine(EngineConfig cfg, const CoEModel &model,
                  const LatencyModel &truth,
                  const FootprintModel &footprint,
                  const UsageProfile &usage,
                  std::unique_ptr<Scheduler> scheduler,
                  std::unique_ptr<EvictionPolicy> eviction);

    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Serve @p trace to completion; callable once per engine. An empty
     * trace is legal and yields an empty result. Arrivals take request
     * ids 0..n-1 in trace order; the trace need not be time-sorted.
     */
    RunResult run(const Trace &trace);

    // ----- run lifecycle ---------------------------------------------
    //
    // Every run follows one protocol: beginOnline() once, then any
    // interleaving of admitArrival / stepUntil / nextEventTime /
    // fillLoadView / stealRequests / injectRequest, then finishOnline()
    // once. run() is this protocol for one whole trace: beginOnline(0,
    // 1), admitArrival() per arrival, stepUntil(kTimeNever), then
    // finishOnline(). A cluster coordinator instead owns the trace: it
    // steps its replicas on the shared virtual clock, admits each
    // arrival onto the replica it routes it to, and may re-route
    // queued-but-unstarted requests between replicas (work stealing).

    /**
     * Start the run; callable once per engine: resets the scheduler
     * and preloads the pools, but schedules no arrivals.
     *
     * Request ids are allocated as @p idBase + k * @p idStride so a
     * coordinator can give each replica a disjoint id space (replica i
     * of N uses base i, stride N) — stolen requests keep their id, so
     * ids must be unique cluster-wide.
     */
    void beginOnline(RequestId idBase, RequestId idStride);

    /** Admit one arrival; its dispatch runs at @p a.time (>= now()). */
    void admitArrival(const ImageArrival &a);

    /** Timestamp of the next pending event; kTimeNever when drained. */
    Time nextEventTime() { return eq_.nextTime(); }

    /**
     * Execute all events with timestamp <= @p t and advance the clock
     * to exactly @p t (also when no events were pending). kTimeNever
     * runs to idle and leaves the clock at the last event.
     *
     * @return number of events executed — zero means the engine's
     *         observable state (beyond the clock) did not change, so
     *         a coordinator may keep its cached load view.
     */
    std::uint64_t
    stepUntil(Time t)
    {
        const std::uint64_t before = eq_.executed();
        eq_.runUntil(t);
        return eq_.executed() - before;
    }

    /**
     * Fill @p out with a live load snapshot (buffers reused): the
     * scalars, one ExecutorLoad per executor and a copy of the
     * incrementally maintained expert membership flags — O(executors
     * + experts) with no pool or queue walk.
     */
    void fillLoadView(ReplicaLoadView &out) const;

    /**
     * Total requests queued across this engine's executors — the
     * epoch sampler's cheap load probe: O(executors) per sample, with
     * no membership copy.
     */
    std::int64_t queuedRequestCount() const;

    /**
     * Accumulate this engine's GPU and CPU-DRAM hit/miss counters —
     * the numbers behind appendTierStats()'s hit rates, without
     * building TierStats rows (two string copies each) per sample.
     */
    void sampleHitCounters(std::int64_t &gpuHits,
                           std::int64_t &gpuMisses,
                           std::int64_t &cpuHits,
                           std::int64_t &cpuMisses) const;

    /**
     * Accumulate this engine's completed images, inference executions
     * and deadline rescues so far — the epoch sampler's progress
     * columns, read from the tallies the RunResult reports.
     */
    void
    sampleProgress(std::int64_t &images, std::int64_t &inferences,
                   std::int64_t &rescues) const
    {
        images += imagesDone_;
        inferences += result_.inferences;
        rescues += result_.preemptions;
    }

    /**
     * Work stealing (victim side): remove up to @p maxCount
     * queued-but-unstarted requests passing @p allow (the thief's
     * capability filter; null allows everything) from the tails of
     * this engine's executor queues — deepest queue first, never a
     * queue's head request — appending them to @p out.
     *
     * @return number of requests removed.
     */
    std::size_t stealRequests(std::size_t maxCount,
                              std::vector<Request> &out,
                              const RequestQueue::StealFilter &allow);

    /**
     * Work stealing (thief side): dispatch a request stolen from a
     * sibling replica through this engine's scheduler at the current
     * virtual time. The request keeps its original id and arrival time
     * (end-to-end latency stays measured from cluster arrival).
     */
    void injectRequest(const Request &req);

    /**
     * Finish the run and collect its metrics. Only run() checks the
     * per-engine images == arrivals invariant: with work stealing a
     * chain may complete on a different replica than it was admitted
     * to, so a cluster validates the total instead.
     */
    RunResult finishOnline();

    // ----- fault injection (cluster coordinator only) ----------------

    /**
     * Crash this replica at the current virtual time: every queued and
     * in-flight request is appended to @p out (for re-homing on
     * surviving replicas), all pending events are dropped, and the
     * engine goes permanently idle. finishOnline() still collects the
     * metrics accumulated before the crash.
     *
     * @return number of drained requests.
     */
    std::size_t crashDrain(std::vector<Request> &out);

    /** @return true once crashDrain() ran. */
    bool crashed() const { return crashed_; }

    /**
     * Straggler injection: scale every future batch's compute latency
     * by @p scale (>= 1 slows the replica down; 1.0 restores full
     * speed). Live load views reflect the stretched busy times, so
     * online routing and stealing see the straggler naturally.
     */
    void setComputeScale(double scale);

    /** @return the current compute-latency multiplier. */
    double computeScale() const { return computeScale_; }

    /**
     * Brownout injection: scale the storage channel's bandwidth for
     * future transfers (0 < @p scale <= 1 degrades; 1.0 restores).
     */
    void setStorageRateScale(double scale);

    // ----- preemption / checkpoint / live migration ------------------
    //
    // See preempt/preempt.h for the policy and the CheckpointImage
    // contract. Engine-local deadline-rescue preemption triggers from
    // admitTimed(); the cluster coordinator drives migration through
    // requestMigrateOut / takeMigratedImages / adoptCheckpoint /
    // captureCheckpoints and drains the engine's PreemptEvents into
    // its decision log after every step.

    /**
     * Checkpoint state bytes of @p exec's running batch
     * (CheckpointModel: per-image activations + descriptor).
     */
    std::int64_t checkpointStateBytes(const Executor &exec) const;

    /**
     * Estimated (uncontended) duration of moving @p bytes of
     * checkpoint state for @p exec: over the link channel into the
     * DRAM tier when one exists, else over the storage channel to disk
     * — a cold tier is honestly slower.
     */
    Time predictCheckpointTransfer(const Executor &exec,
                                   std::int64_t bytes) const;

    /**
     * Charge a checkpoint save/restore stream of @p bytes for @p exec
     * through the real channels (FIFO contention with expert loads
     * included); @p done runs at completion.
     *
     * @return the completion time.
     */
    Time chargeCheckpointTransfer(const Executor &exec,
                                  std::int64_t bytes,
                                  EventQueue::Callback done);

    /** Executor callback: a group finished its checkpoint save. */
    void onGroupCheckpointed(Executor &exec, CheckpointImage img,
                             bool migrateOut);

    /** Executor callback: a checkpointed group resumed execution. */
    void onGroupRestored(Executor &exec, int requests);

    /**
     * Crash/quiesce capture: every in-flight batch (at its last step
     * boundary), parked image and outbox image moves into @p out — no
     * transfer charged; the restoring side pays. Executor order, so
     * deterministic.
     */
    std::size_t captureCheckpoints(std::vector<CheckpointImage> &out);

    /**
     * Ask up to @p maxGroups migratable running batches to pause at
     * their next step boundary and checkpoint into the migration
     * outbox (charged saves). Images appear in takeMigratedImages()
     * once their save transfers complete.
     *
     * @return number of pause requests issued.
     */
    std::size_t requestMigrateOut(std::size_t maxGroups);

    /** Drain the migration outbox into @p out. */
    std::size_t takeMigratedImages(std::vector<CheckpointImage> &out);

    /**
     * Restore side of migration: adopt @p img onto the least-loaded
     * executor of the matching processor kind. The restore transfer
     * (and a demand load when the expert is not resident here) is
     * charged when that executor picks the image up.
     */
    void adoptCheckpoint(CheckpointImage img);

    /** @return true when any executor could migrate its batch now. */
    bool hasMigratableGroup() const;

    /** @return true when an executor of @p kind exists. */
    bool hasExecutorKind(ProcKind kind) const;

    /** Move buffered preemption decision events into @p out. */
    void drainPreemptEvents(std::vector<PreemptEvent> &out);

    // ----- API for Scheduler implementations -------------------------

    /** @return number of executors. */
    std::size_t numExecutors() const { return executors_.size(); }

    /** @return executor @p i (schedulers inspect queues/pools). */
    const Executor &executorAt(std::size_t i) const;

    /**
     * Deliver @p req to executor @p i. @p grouped selects arranged
     * insertion; @p estimate is the scheduler's predicted additional
     * latency (used for queue total-time bookkeeping).
     */
    void enqueue(std::size_t i, const Request &req, bool grouped,
                 Time estimate = 0);

    /**
     * Predicted (uncontended) switch latency if @p e had to be loaded
     * for executor @p i right now: 0 when resident or already demanded
     * by a queued request (§4.2), else the transfer-model load time.
     */
    Time predictLoadTime(std::size_t i, ExpertId e) const;

    /** Predicted execution time of one request on executor @p i. */
    Time predictUnitLatency(std::size_t i, ArchId arch) const;

    /** Current virtual time. */
    Time now() const { return eq_.now(); }

    /** @return the served CoE model. */
    const CoEModel &model() const { return model_; }

    /** @return the engine configuration. */
    const EngineConfig &config() const { return cfg_; }

    /** @return the usage profile. */
    const UsageProfile &usage() const { return usage_; }

    /** @return this replica's span-trace buffer; null when untraced. */
    obs::ReplicaTracer *tracer() const { return cfg_.tracer; }

    /**
     * Append live per-tier statistics (GPU pool, CPU pool, private
     * cache tier, disk) to @p out — the same rows finishOnline()
     * reports at end of run, readable mid-run by the epoch sampler.
     * Pure observation: never steps the engine.
     */
    void appendTierStats(std::vector<TierStats> &out) const;

    // ----- API for Executor ------------------------------------------

    /**
     * Begin loading @p e into @p exec's pool, evicting victims as
     * needed through the configured policy.
     *
     * @param isPrefetch prefetch loads may fail (return false) instead
     *        of evicting soft-pinned or unevictable entries.
     * @return true when the load was started.
     */
    bool startLoad(Executor &exec, ExpertId e, bool isPrefetch);

    /** Record completion of one inference request. */
    void onInferenceComplete(Executor &exec, const Request &req,
                             Time batchLatency);

    // ----- SLO layer -------------------------------------------------

    /**
     * Predicted completion time of @p req dispatched right now: the
     * earliest over executors of (as-is finish + Section-4.2
     * additional latency + switch), plus the detect child's execution
     * when the component chains one — the admission controller's
     * feasibility estimate. Uses the ground-truth latency model (the
     * engine has no profiled matrix), matching the scheduler's
     * fallback path.
     */
    Time predictCompletion(const Request &req) const;

    /** SLO accounting so far (admission verdicts, completions). */
    const SloStats &sloStats() const { return result_.slo; }

    /** Arrivals dropped by admission control so far. */
    std::int64_t rejectedImages() const { return imagesRejected_; }

    /** Maximum executable batch size on executor @p i for @p arch. */
    int maxExecutableBatch(const Executor &exec, ArchId arch) const;

    /** @return event queue (executors schedule completions). */
    EventQueue &eventQueue() { return eq_; }

    /** @return ground-truth latency model. */
    const LatencyModel &truth() const { return truth_; }

    /** @return footprint model. */
    const FootprintModel &footprint() const { return footprint_; }

    /** @return dependency graph of the served model. */
    const DependencyGraph &deps() const { return deps_; }

    /**
     * Slowdown of GPU expert loads when resident experts crowd the
     * GPU: with the expert pool occupying more than ~80% of GPU
     * memory, the framework allocator fragments and synchronously
     * frees/compacts on every load (the "memory contention between
     * intermediate results and experts" of Section 4.4). 1.0 when the
     * batch workspace is comfortable.
     */
    double gpuMemoryPressure() const { return gpuPressure_; }

  private:
    void validate() const;
    void preload();
    /** Next request id in this engine's (possibly strided) id space. */
    RequestId allocRequestId();
    /**
     * Take @p a's request id and event sequence number now, and queue
     * it for admission at @p a.time: appended to the arrival feed, or
     * straight into the event heap when it is earlier than the feed's
     * tail. Ids therefore still follow call order (0..n-1 in trace
     * order for run()), and the arrival ties with other events exactly
     * as if it had been scheduled here.
     */
    void scheduleArrival(const ImageArrival &a);
    /** Schedule the feed head under its reserved sequence number. */
    void scheduleFeedHead();
    /** Build the classify request for @p a under @p id and admit it. */
    void arrive(const ImageArrival &a, RequestId id);
    /**
     * Arrival-time admission: consult the controller (enabled configs
     * only), then dispatch — or drop/downgrade. Runs at the arrival's
     * virtual time, so the feasibility estimate sees live queue state.
     */
    void admitTimed(Request req);
    /**
     * Deadline rescue: scan for a preemptible lower-class batch whose
     * freed slot would let @p req meet its deadline (pause boundary +
     * checkpoint save + possible expert switch + execution <= deadline)
     * and pause the best candidate.
     *
     * @return true when a preemption was issued.
     */
    bool tryPreemptFor(const Request &req);
    /**
     * Execution cost of @p req's chain on executor @p i, per Section
     * 4.2: K when @p joins a queued same-expert group, else K + B;
     * plus the switch (predictLoadTime) and, for a classify request
     * whose component chains a detector, the detect child's K + B.
     * The ground truth stands in for the profiled matrix, exactly like
     * the scheduler's fallback path.
     */
    Time chainCost(std::size_t i, const Request &req, bool joins) const;
    void dispatchTimed(const Request &req);
    ArchId archOf(ExpertId e) const;
    /** Fastest available source for loading @p e into GPU memory. */
    LoadSource gpuLoadSource(ExpertId e) const;

    EngineConfig cfg_;
    const CoEModel &model_;
    const LatencyModel &truth_;
    const FootprintModel &footprint_;
    const UsageProfile &usage_;
    DependencyGraph deps_;

    EventQueue eq_;
    /** An arrival waiting in the feed, with its reserved id and seq. */
    struct FedArrival
    {
        ImageArrival arrival;
        RequestId id;
        std::uint64_t seq;
    };
    /**
     * Arrivals not yet admitted, sorted by (time, seq). Only the head
     * is in the event heap; when it fires it schedules the next one.
     * Each keeps the (time, seq) it would have had in the heap and the
     * head is the feed's minimum, so the event order is the same as
     * with every arrival in the heap.
     */
    std::deque<FedArrival> feed_;
    TransferModel transfer_;
    std::unique_ptr<BandwidthChannel> storage_;
    std::unique_ptr<BandwidthChannel> link_;
    /**
     * The memory-tier hierarchy. Executors of the same kind share one
     * pool tier (one GPU memory, one CPU DRAM). The GPU pool links
     * down to the CPU DRAM cache tier (private cpuCache_, or the
     * cluster's shared tier per EngineConfig::externalCpuTier), which
     * links down to the disk tier: evictions demote along the links.
     */
    /**
     * Settled residency across gpuPool_/cpuPool_ and queued demand
     * across every executor queue, kept current by the pools and
     * queues themselves (declared before them, so it outlives them).
     */
    ExpertPresence presence_;
    std::unique_ptr<ModelPool> gpuPool_;
    std::unique_ptr<ModelPool> cpuPool_;
    std::vector<std::unique_ptr<Executor>> executors_;
    /** Private CPU DRAM cache tier (disabled when external is set). */
    MemoryTier cpuCache_;
    DiskTier disk_;
    /** CPU DRAM cache tier in use: &cpuCache_ or the external tier. */
    TierBelow *cpuTier_ = nullptr;

    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<EvictionPolicy> eviction_;
    AdmissionController admission_;
    CheckpointModel ckpt_;
    /** Checkpointed groups awaiting cluster-level migration pickup. */
    std::vector<CheckpointImage> migrateOutbox_;
    /**
     * Buffered preemption decisions (see preempt.h): a cluster
     * coordinator drains them after every step; a lone run() leaves
     * them.
     */
    std::vector<PreemptEvent> preemptEvents_;

    double gpuPressure_ = 1.0;
    /** Straggler fault multiplier on batch latencies (1.0 = nominal). */
    double computeScale_ = 1.0;
    std::uint64_t loadSeq_ = 0;
    /** Dispatches seen; drives 1-in-16 scheduling-wall sampling. */
    std::uint64_t dispatchCount_ = 0;
    RequestId nextRequestId_ = 0;
    /** Id increment: a cluster's replica count, 1 for a lone run(). */
    RequestId requestIdStride_ = 1;
    std::int64_t imagesDone_ = 0;
    /** Arrivals dropped by admission (images + rejected == arrivals). */
    std::int64_t imagesRejected_ = 0;
    Time lastCompletion_ = 0;
    /** True once beginOnline() ran. */
    bool ran_ = false;
    /** True once crashDrain() ran (fault injection). */
    bool crashed_ = false;

    RunResult result_;
};

} // namespace coserve

#endif // COSERVE_RUNTIME_ENGINE_H
