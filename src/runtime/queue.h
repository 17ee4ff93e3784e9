/**
 * @file
 * Per-executor request queue with expert-group bookkeeping.
 *
 * Supports both plain FIFO insertion (baselines) and *arranged*
 * insertion (Section 4.2, Figure 9): a new request is placed directly
 * behind the last queued request that uses the same expert, so requests
 * sharing an expert are processed together and the expert is loaded at
 * most once for the whole group.
 *
 * The queue also tracks the scheduler's per-request latency estimates
 * so the dependency-aware scheduler can predict each queue's total
 * inference time in O(1) (Figure 8).
 *
 * Implementation: an intrusive doubly-linked list over a contiguous
 * node pool with a free list, plus a flat per-expert group index
 * (experts are small dense ids). The scheduler probes every executor
 * queue on every dispatch — containsExpert() and pendingWork() are the
 * hottest reads in the system — so membership tests are array lookups
 * and the steady path performs no per-request allocation (the previous
 * std::list + std::unordered_map design paid a node allocation per
 * request and a hash walk per probe).
 *
 * Determinism audit: no hash container survives here — the PR 2
 * rewrite also removed the only iteration-order hazard this file ever
 * had (the old per-expert unordered_map group index). The flat
 * vector-indexed group table visits experts in dense-id order by
 * construction, so detlint's unordered-iter rule has nothing to flag
 * and no allow comment is needed.
 */

#ifndef COSERVE_RUNTIME_QUEUE_H
#define COSERVE_RUNTIME_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "workload/request.h"

namespace coserve {

class ExpertPresence; // runtime/expert_presence.h

/** Ordered queue of pending requests for one executor. */
class RequestQueue
{
  public:
    /** One queued request plus the scheduler's latency estimate. */
    struct Entry
    {
        Request req;
        Time estimate = 0;
    };

    /** Append at the tail (FCFS order). */
    void pushBack(const Request &req, Time estimate = 0);

    /**
     * Arranged insertion: place @p req right after the last queued
     * request using the same expert; falls back to the tail when no
     * such request exists.
     */
    void pushGrouped(const Request &req, Time estimate = 0);

    /** @return true when no requests are queued. */
    bool empty() const { return size_ == 0; }

    /** @return queued request count. */
    std::size_t size() const { return size_; }

    /** Expert of the head request; panics when empty. */
    ExpertId headExpert() const;

    /**
     * Remove and return up to @p maxCount head requests that all use
     * the head expert (one executable batch).
     */
    std::vector<Request> popBatch(int maxCount);

    /**
     * As popBatch, but *moves* the requests into @p out (cleared
     * first), so a caller-owned buffer can be recycled batch after
     * batch instead of allocating a fresh vector per batch.
     */
    void popBatchInto(int maxCount, std::vector<Request> &out);

    // ----- SLO-aware (EDF-within-priority) pop order ------------------

    /**
     * @return true when some queued request carries SLO urgency (a
     *         non-default priority or a deadline) — the gate for the
     *         EDF pop order. A queue of classless requests reports
     *         false and behaves exactly as before the SLO layer.
     */
    bool sloOrdered() const { return sloUrgent_ > 0; }

    /**
     * Expert of the next batch to execute. Plain queues (sloOrdered()
     * false) answer the head expert in O(1); SLO-ordered queues scan
     * for the group holding the most urgent request — highest class
     * priority first, earliest deadline within a priority (EDF), queue
     * position as the tie-break. The pooled intrusive layout and the
     * per-expert group index are untouched: urgency changes which
     * group *pops* next, never where requests sit. kNoExpert when
     * empty.
     */
    ExpertId nextBatchExpert() const { return bestExpert(); }

    /**
     * Prefetch target under the same order: the expert of the batch
     * that will run *after* the next one (the executor prefetches one
     * group ahead while a batch executes). Equals nextDistinctExpert()
     * for plain queues; SLO-ordered queues compute the two most
     * urgent distinct experts in one scan and answer the runner-up.
     */
    ExpertId prefetchExpert() const;

    /**
     * Pop up to @p maxCount same-expert requests of @p e: the
     * contiguous run *containing the most urgent @p e request* (the
     * whole group under grouped insertion — and the first run when
     * nothing is urgent, so popBatchFor(headExpert()) on a classless
     * queue is exactly popBatchInto()). A FIFO-interleaved queue may
     * hold several disjoint runs of @p e; starting from the urgent
     * one keeps the EDF promise that the selected request actually
     * runs in the popped batch. @p e must be queued.
     */
    void popBatchFor(ExpertId e, int maxCount, std::vector<Request> &out);

    /**
     * Expert of the first request group after the head group; used as
     * the prefetch target. kNoExpert when the queue has one group.
     */
    ExpertId nextDistinctExpert() const;

    /** Predicate selecting which requests a thief may steal. */
    using StealFilter = std::function<bool(const Request &)>;

    /**
     * Work-stealing support: remove up to @p maxCount requests from
     * the tail (newest first), appending them to @p out. The head
     * request is never stolen — the executor may have a demand load in
     * flight for its expert, and an executor with queued work must
     * keep something to run when that load lands. Requests rejected by
     * @p allow (e.g. architectures the thief cannot serve) are skipped
     * in place; a null filter allows everything.
     *
     * @return number of requests removed.
     */
    int stealFromTail(int maxCount, std::vector<Request> &out,
                      const StealFilter &allow = nullptr);

    /** @return true when some queued request uses @p e. */
    bool
    containsExpert(ExpertId e) const
    {
        return static_cast<std::size_t>(e) < groups_.size() &&
               groups_[e].count > 0;
    }

    /** @return number of queued requests using @p e. */
    int
    countForExpert(ExpertId e) const
    {
        return static_cast<std::size_t>(e) < groups_.size()
                   ? groups_[e].count
                   : 0;
    }

    /** Sum of scheduler estimates of all queued requests. */
    Time pendingWork() const { return pendingWork_; }

    /**
     * Report every queued request's arrival and departure — push,
     * pop, steal and drain alike — to @p presence (not owned; may be
     * null), keyed by its expert.
     */
    void trackPresence(ExpertPresence *presence) { presence_ = presence; }

    /**
     * Crash support: remove *every* queued request (head included,
     * unlike stealFromTail — a dead replica keeps nothing), appending
     * them to @p out in queue order.
     *
     * @return number of requests removed.
     */
    int drainAll(std::vector<Request> &out);

    /** Snapshot of queued requests in order (tests / debugging). */
    std::vector<Request> snapshot() const;

  private:
    using NodeIdx = std::int32_t;
    static constexpr NodeIdx kNil = -1;

    /** Pool-allocated list node. */
    struct Node
    {
        Entry entry;
        NodeIdx prev = kNil;
        NodeIdx next = kNil;
    };

    /** Per-expert bookkeeping, indexed by (dense, small) ExpertId. */
    struct GroupInfo
    {
        /** Pool index of the last queued request of this expert. */
        NodeIdx last = kNil;
        int count = 0;
    };

    NodeIdx allocNode(const Request &req, Time estimate);
    void linkAfter(NodeIdx pos, NodeIdx node); // pos == kNil: at head
    void unlinkHead();
    void unlinkNode(NodeIdx node);
    void noteInserted(NodeIdx node);
    void noteRemoved(NodeIdx node);
    void appendTail(const Request &req, Time estimate);
    GroupInfo &groupFor(ExpertId e);
    /** Most urgent group's expert (head group when nothing urgent). */
    ExpertId bestExpert() const;

    std::vector<Node> nodes_;
    std::vector<NodeIdx> freeNodes_;
    NodeIdx head_ = kNil;
    NodeIdx tail_ = kNil;
    std::size_t size_ = 0;
    std::vector<GroupInfo> groups_;
    ExpertPresence *presence_ = nullptr;
    Time pendingWork_ = 0;
    /**
     * Queued requests carrying SLO urgency (non-default priority or a
     * deadline). Zero — every classless trace — keeps the pop order on
     * the O(1) head-group fast path.
     */
    std::size_t sloUrgent_ = 0;
    /**
     * True once a plain (FIFO) pushBack interleaved with the queue's
     * contents. Under pure grouped insertion every expert's requests
     * are contiguous, which lets nextDistinctExpert() answer in O(1)
     * from the head group's last node; FIFO queues fall back to the
     * linear scan.
     */
    bool plainInserts_ = false;
};

} // namespace coserve

#endif // COSERVE_RUNTIME_QUEUE_H
