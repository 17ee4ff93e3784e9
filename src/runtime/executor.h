/**
 * @file
 * Inference executor: one CPU or GPU worker with its own request queue
 * and model pool (paper Figure 7).
 *
 * The executor is an event-driven actor. Its loop:
 *   1. take the head group of same-expert requests (batch splitter
 *      bounds the batch by the maximum executable batch size, §4.2);
 *   2. if the expert is absent, issue a demand load (the engine evicts
 *      victims through the configured eviction policy, §4.3);
 *   3. execute the batch for the modelled latency;
 *   4. while executing, prefetch the next distinct expert in the queue
 *      so its switch overlaps with computation ("the expert can be
 *      loaded during the processing of a preceding request", §4.2).
 */

#ifndef COSERVE_RUNTIME_EXECUTOR_H
#define COSERVE_RUNTIME_EXECUTOR_H

#include <string>
#include <vector>

#include "metrics/run_result.h"
#include "preempt/preempt.h"
#include "runtime/config.h"
#include "runtime/pool.h"
#include "runtime/queue.h"
#include "sim/event_queue.h"
#include "workload/request.h"

namespace coserve {

class ServingEngine;

/** One inference executor (GPU or CPU). */
class Executor
{
  public:
    /**
     * @param engine owning engine (provides clock, channels, policies).
     * @param index position in the engine's executor array.
     * @param name diagnostic name ("GPU0", "CPU0", ...).
     * @param cfg memory layout for this executor.
     * @param pool model pool this executor draws experts from. Pools
     *        are shared between executors of the same processor kind
     *        (one GPU memory, one CPU DRAM); must outlive the executor.
     * @param presence engine-wide expert index the executor's queue
     *        reports queued demand to (not owned; may be null).
     */
    Executor(ServingEngine &engine, int index, std::string name,
             const ExecutorConfig &cfg, ModelPool &pool,
             ExpertPresence *presence);

    /** Insert a request (grouped or FIFO) and kick the loop. */
    void enqueue(const Request &req, bool grouped, Time estimate);

    /** Load-completion callback from the engine. */
    void onLoadFinished(ExpertId e, bool wasPrefetch);

    /** Start the next batch if idle and work is available. */
    void maybeStart();

    /** Drop the soft pin if it references @p e (eviction bookkeeping). */
    void clearSoftPinIf(ExpertId e);

    /**
     * Work stealing: remove up to @p maxCount queued-but-unstarted
     * requests passing @p allow from this queue's tail into @p out
     * (the head request stays — see RequestQueue::stealFromTail). The
     * running batch, if any, is unaffected.
     */
    int
    stealFromQueue(int maxCount, std::vector<Request> &out,
                   const RequestQueue::StealFilter &allow)
    {
        return queue_.stealFromTail(maxCount, out, allow);
    }

    /**
     * Crash support: surrender the in-flight batch (if any) into
     * @p out — its completion event never runs, the work must finish
     * elsewhere — and mark the executor idle.
     *
     * @return number of surrendered requests.
     */
    std::size_t surrenderRunning(std::vector<Request> &out);

    /** Crash support: move every queued request into @p out. */
    std::size_t
    drainQueue(std::vector<Request> &out)
    {
        return static_cast<std::size_t>(queue_.drainAll(out));
    }

    /** @return the queue (schedulers inspect it). */
    const RequestQueue &queue() const { return queue_; }

    /** @return the model pool (shared per processor kind). */
    const ModelPool &pool() const { return pool_; }

    /** @return mutable pool (engine load/evict path). */
    ModelPool &mutablePool() { return pool_; }

    /** Wake the executor after another executor's load completed. */
    void onPoolChanged();

    // ----- preemption / checkpoint / restore (src/preempt/) ----------

    /**
     * @return true when the running batch may be paused on behalf of
     *         work of priority @p byPriority under @p cfg: a batch of
     *         strictly lower class priority is executing (not itself a
     *         restore in flight or an already-pending pause) and has
     *         not exhausted its preemption budget.
     */
    bool preemptible(int byPriority, const PreemptionConfig &cfg) const;

    /**
     * Virtual time of the next step boundary at which the running
     * batch could pause under @p cfg (>= the min-run quantum);
     * kTimeNever when the batch finishes before any eligible boundary.
     */
    Time preemptPauseTime(const PreemptionConfig &cfg) const;

    /**
     * @return true when the running batch qualifies for live migration
     *         under @p cfg: pausable at a boundary with at least
     *         @p cfg.migrationMinRemaining execution time left after it.
     */
    bool migratable(const PreemptionConfig &cfg) const;

    /**
     * Pause the running batch at its next step boundary: the
     * completion event is cancelled, a pause event checkpoints the
     * group (state bytes charged through the engine's channels), and
     * the image is parked locally for later restore (@p migrateOut
     * false) or handed to the engine's migration outbox (@p migrateOut
     * true — the cluster coordinator moves it to a capable sibling).
     *
     * @return false when no eligible boundary exists (batch finishes
     *         first) — the batch runs to completion undisturbed.
     */
    bool requestPreempt(const PreemptionConfig &cfg, bool migrateOut);

    /**
     * Crash/quiesce support: capture the running batch as a checkpoint
     * image at its last *completed* step boundary (the periodic
     * boundary save is what survives a crash — work since that
     * boundary is re-executed). No transfer is charged here; the
     * restoring side pays transfer + possible expert reload.
     *
     * @return 1 when a batch was captured into @p out, else 0.
     */
    std::size_t checkpointRunning(std::vector<CheckpointImage> &out);

    /**
     * Adopt a checkpointed group for restore on this executor (local
     * un-preempt or inbound migration). Restore cost — state transfer
     * plus a demand load when the expert is no longer resident — is
     * charged when the executor picks the image up (idle, empty
     * queue).
     */
    void adoptCheckpoint(CheckpointImage img);

    /** Move every parked checkpoint image into @p out. */
    std::size_t takeParked(std::vector<CheckpointImage> &out);

    /** @return number of parked (un-restored) checkpoint images. */
    std::size_t parkedCount() const { return parked_.size(); }

    /** Crash support: flatten parked checkpoints into raw requests. */
    std::size_t surrenderParked(std::vector<Request> &out);

    /** Execution time still owed by parked (un-restored) checkpoints. */
    Time parkedWork() const;

    /** @return expert of the running batch; kNoExpert when idle. */
    ExpertId runningExpert() const { return runningExpert_; }

    /** @return requests in the running batch (0 when idle). */
    int runningCount() const
    {
        return static_cast<int>(runningBatch_.size());
    }

    /** Estimated time this executor finishes current work. */
    Time busyUntil() const { return busyUntil_; }

    /** @return true when no batch is running. */
    bool idle() const { return !executing_; }

    /** @return processor kind. */
    ProcKind kind() const { return cfg_.kind; }

    /** @return executor index in the engine. */
    int index() const { return index_; }

    /** @return batch workspace bytes. */
    std::int64_t batchMemBytes() const { return cfg_.batchMemBytes; }

    /** @return accumulated statistics. */
    const ExecutorStats &stats() const { return stats_; }

    /** @return mutable statistics (engine counters). */
    ExecutorStats &mutableStats() { return stats_; }

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    /** @param e batch expert, the caller's nextBatchExpert() pick. */
    void startBatch(ExpertId e);
    void issuePrefetch();
    /**
     * Schedule the completion of the current execution segment:
     * @p segLatency from now the batch finishes and every request
     * completes with @p metricLatency as its execution-latency sample
     * (the full batch latency — a restored batch reports the compute
     * it actually received, not just the resumed tail).
     */
    void scheduleCompletion(ExpertId e, Time segLatency,
                            Time metricLatency);
    /** Pause event body: begin the charged checkpoint save. */
    void onPauseBoundary();
    /** Save-transfer completion: park / hand off the image. */
    void onSaveDone(std::int64_t bytes);
    /** Begin restoring the front parked image (idle + empty queue). */
    void maybeRestore();
    /** Restore-transfer done / expert became resident: try to resume. */
    void maybeResumeRestored();
    /** Resume execution of the front parked image. */
    void resumeParked();

    ServingEngine &engine_;
    int index_;
    std::string name_;
    ExecutorConfig cfg_;
    ModelPool &pool_;
    RequestQueue queue_;

    bool executing_ = false;
    ExpertId softPinned_ = kNoExpert;
    Time busyUntil_ = 0;
    /**
     * Recycled batch buffer: startBatch() pops into it, parks the
     * batch in runningBatch_ for the duration of the execution, and
     * the completion hands the (cleared) buffer back — so the steady
     * path allocates no vectors. Only one batch runs at a time, so a
     * single buffer suffices.
     */
    std::vector<Request> batchScratch_;
    /**
     * The batch currently executing (empty when idle). Kept in the
     * executor — not captured in the completion event — so a crash
     * can surrender in-flight work for re-homing on a sibling replica.
     */
    std::vector<Request> runningBatch_;
    /** Start time of an outstanding demand load; -1 when none. */
    Time demandLoadStart_ = -1;
    ExecutorStats stats_;

    // ----- preemption state (inert while PreemptionConfig is off) ----

    /** Expert of the running batch; kNoExpert when idle / restoring. */
    ExpertId runningExpert_ = kNoExpert;
    /** Start time of the current execution segment. */
    Time batchStart_ = 0;
    /** (Scaled) length of the current execution segment. */
    Time batchLatency_ = 0;
    /** Full batch latency for per-request metrics (segment-invariant). */
    Time batchFullLatency_ = 0;
    /** Per-image step slice of the current segment (>= 1). */
    Time stepLen_ = 0;
    /** Highest class priority in the running batch. */
    int runningPriority_ = 0;
    /** Preemptions this group has already absorbed (hysteresis). */
    int runningPreemptions_ = 0;
    /** Completion event of the current segment (cancellable). */
    EventId completionEvent_{};
    /** A pause event is scheduled (blocks double preemption). */
    bool pausePending_ = false;
    /** The pending pause hands the image to the migration outbox. */
    bool pauseMigrate_ = false;
    /** Remaining time computed when the pause fired; -1 when none. */
    Time pendingRemaining_ = -1;
    /** A parked image's restore transfer is in flight. */
    bool restoring_ = false;
    /** The restore transfer finished (may still await the expert). */
    bool restoreTransferDone_ = false;
    /** Checkpointed groups awaiting restore on this executor. */
    std::vector<CheckpointImage> parked_;
};

} // namespace coserve

#endif // COSERVE_RUNTIME_EXECUTOR_H
