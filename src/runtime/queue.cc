#include "runtime/queue.h"

#include "runtime/expert_presence.h"
#include "util/logging.h"

namespace coserve {

RequestQueue::GroupInfo &
RequestQueue::groupFor(ExpertId e)
{
    COSERVE_CHECK(e >= 0, "queued request without an expert");
    if (static_cast<std::size_t>(e) >= groups_.size())
        groups_.resize(static_cast<std::size_t>(e) + 1);
    return groups_[e];
}

RequestQueue::NodeIdx
RequestQueue::allocNode(const Request &req, Time estimate)
{
    NodeIdx idx;
    if (!freeNodes_.empty()) {
        idx = freeNodes_.back();
        freeNodes_.pop_back();
    } else {
        idx = static_cast<NodeIdx>(nodes_.size());
        nodes_.emplace_back();
    }
    Node &node = nodes_[idx];
    node.entry = Entry{req, estimate};
    node.prev = kNil;
    node.next = kNil;
    return idx;
}

void
RequestQueue::linkAfter(NodeIdx pos, NodeIdx node)
{
    Node &n = nodes_[node];
    if (pos == kNil) { // insert at head
        n.prev = kNil;
        n.next = head_;
        if (head_ != kNil)
            nodes_[head_].prev = node;
        head_ = node;
        if (tail_ == kNil)
            tail_ = node;
    } else {
        Node &p = nodes_[pos];
        n.prev = pos;
        n.next = p.next;
        if (p.next != kNil)
            nodes_[p.next].prev = node;
        p.next = node;
        if (tail_ == pos)
            tail_ = node;
    }
    ++size_;
}

void
RequestQueue::unlinkHead()
{
    const NodeIdx node = head_;
    head_ = nodes_[node].next;
    if (head_ != kNil)
        nodes_[head_].prev = kNil;
    else
        tail_ = kNil;
    freeNodes_.push_back(node);
    --size_;
}

void
RequestQueue::unlinkNode(NodeIdx node)
{
    Node &n = nodes_[node];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
    freeNodes_.push_back(node);
    --size_;
}

void
RequestQueue::appendTail(const Request &req, Time estimate)
{
    const NodeIdx node = allocNode(req, estimate);
    linkAfter(tail_, node);
    noteInserted(node);
}

void
RequestQueue::pushBack(const Request &req, Time estimate)
{
    // A FIFO insertion may break expert-group contiguity (e.g. A B A),
    // which the O(1) nextDistinctExpert shortcut relies on.
    plainInserts_ = true;
    appendTail(req, estimate);
}

void
RequestQueue::pushGrouped(const Request &req, Time estimate)
{
    GroupInfo &info = groupFor(req.expert);
    if (info.count == 0) {
        appendTail(req, estimate);
        return;
    }
    const NodeIdx node = allocNode(req, estimate);
    linkAfter(info.last, node);
    noteInserted(node);
}

ExpertId
RequestQueue::headExpert() const
{
    COSERVE_CHECK(head_ != kNil, "headExpert on empty queue");
    return nodes_[head_].entry.req.expert;
}

std::vector<Request>
RequestQueue::popBatch(int maxCount)
{
    std::vector<Request> batch;
    popBatchInto(maxCount, batch);
    return batch;
}

void
RequestQueue::popBatchInto(int maxCount, std::vector<Request> &out)
{
    COSERVE_CHECK(maxCount >= 1, "batch of ", maxCount);
    COSERVE_CHECK(head_ != kNil, "popBatch on empty queue");

    out.clear();
    const ExpertId e = nodes_[head_].entry.req.expert;
    while (head_ != kNil &&
           out.size() < static_cast<std::size_t>(maxCount) &&
           nodes_[head_].entry.req.expert == e) {
        noteRemoved(head_);
        out.push_back(std::move(nodes_[head_].entry.req));
        unlinkHead();
    }
}

namespace {

/** Strict "more urgent than": higher priority, then earlier EDF. */
inline bool
moreUrgent(int prio, Time deadline, int thanPrio, Time thanDeadline)
{
    return prio > thanPrio ||
           (prio == thanPrio && deadline < thanDeadline);
}

} // namespace

ExpertId
RequestQueue::bestExpert() const
{
    if (head_ == kNil)
        return kNoExpert;
    if (sloUrgent_ == 0) {
        // Plain queue: head group pops first, exactly as pre-SLO.
        return nodes_[head_].entry.req.expert;
    }
    ExpertId best = kNoExpert;
    int bestPrio = 0;
    Time bestDeadline = kTimeNever;
    for (NodeIdx i = head_; i != kNil; i = nodes_[i].next) {
        const Request &r = nodes_[i].entry.req;
        const int prio = priorityOf(r.cls);
        if (best == kNoExpert ||
            moreUrgent(prio, r.deadline, bestPrio, bestDeadline)) {
            best = r.expert;
            bestPrio = prio;
            bestDeadline = r.deadline;
        }
    }
    return best;
}

ExpertId
RequestQueue::prefetchExpert() const
{
    if (sloUrgent_ == 0)
        return nextDistinctExpert();
    // One pass tracking the two most urgent *distinct* experts (the
    // per-expert maximum urgency decides): the runner-up is the group
    // that runs after the next one — the prefetch target.
    ExpertId best = kNoExpert, second = kNoExpert;
    int bestPrio = 0, secondPrio = 0;
    Time bestDl = kTimeNever, secondDl = kTimeNever;
    for (NodeIdx i = head_; i != kNil; i = nodes_[i].next) {
        const Request &r = nodes_[i].entry.req;
        const int prio = priorityOf(r.cls);
        if (r.expert == best) {
            if (moreUrgent(prio, r.deadline, bestPrio, bestDl)) {
                bestPrio = prio;
                bestDl = r.deadline;
            }
        } else if (r.expert == second) {
            if (moreUrgent(prio, r.deadline, secondPrio, secondDl)) {
                secondPrio = prio;
                secondDl = r.deadline;
                // The runner-up's accumulated urgency may overtake.
                if (moreUrgent(secondPrio, secondDl, bestPrio,
                               bestDl)) {
                    std::swap(best, second);
                    std::swap(bestPrio, secondPrio);
                    std::swap(bestDl, secondDl);
                }
            }
        } else if (best == kNoExpert ||
                   moreUrgent(prio, r.deadline, bestPrio, bestDl)) {
            second = best;
            secondPrio = bestPrio;
            secondDl = bestDl;
            best = r.expert;
            bestPrio = prio;
            bestDl = r.deadline;
        } else if (second == kNoExpert ||
                   moreUrgent(prio, r.deadline, secondPrio,
                              secondDl)) {
            second = r.expert;
            secondPrio = prio;
            secondDl = r.deadline;
        }
    }
    return second;
}

void
RequestQueue::popBatchFor(ExpertId e, int maxCount,
                          std::vector<Request> &out)
{
    COSERVE_CHECK(maxCount >= 1, "batch of ", maxCount);
    COSERVE_CHECK(e != kNoExpert && containsExpert(e),
                  "popBatchFor on absent expert ", e);

    out.clear();
    NodeIdx start = head_;
    while (nodes_[start].entry.req.expert != e)
        start = nodes_[start].next;
    if (sloUrgent_ > 0 && plainInserts_) {
        // A FIFO-interleaved queue may hold several disjoint runs of
        // @p e; the first run may contain only old deadline-less work
        // while the urgency that selected @p e sits in a later run.
        // Pop the run holding the most urgent member, or EDF would
        // invert behind the very request it chose to serve.
        NodeIdx urgent = start;
        int bestPrio = priorityOf(nodes_[start].entry.req.cls);
        Time bestDl = nodes_[start].entry.req.deadline;
        for (NodeIdx i = nodes_[start].next; i != kNil;
             i = nodes_[i].next) {
            const Request &r = nodes_[i].entry.req;
            if (r.expert != e)
                continue;
            const int prio = priorityOf(r.cls);
            if (moreUrgent(prio, r.deadline, bestPrio, bestDl)) {
                urgent = i;
                bestPrio = prio;
                bestDl = r.deadline;
            }
        }
        start = urgent;
        while (nodes_[start].prev != kNil &&
               nodes_[nodes_[start].prev].entry.req.expert == e)
            start = nodes_[start].prev;
    }
    // Pop the contiguous run (the whole group under grouped
    // insertion); scattered same-expert requests in other runs stay
    // in place, matching popBatchInto's head-run semantics.
    NodeIdx i = start;
    while (i != kNil && out.size() < static_cast<std::size_t>(maxCount) &&
           nodes_[i].entry.req.expert == e) {
        const NodeIdx next = nodes_[i].next;
        // Same hand-off stealFromTail performs: removing the group's
        // last occurrence while earlier (other-run) members survive
        // must re-point GroupInfo::last at the nearest earlier
        // same-expert node, or the index dangles on a freed node.
        GroupInfo &info = groups_[e];
        if (info.count > 1 && info.last == i) {
            NodeIdx p = nodes_[i].prev;
            while (p != kNil && nodes_[p].entry.req.expert != e)
                p = nodes_[p].prev;
            COSERVE_CHECK(p != kNil, "queue group lost on pop");
            info.last = p;
        }
        noteRemoved(i);
        out.push_back(std::move(nodes_[i].entry.req));
        unlinkNode(i);
        i = next;
    }
}

ExpertId
RequestQueue::nextDistinctExpert() const
{
    if (head_ == kNil)
        return kNoExpert;
    const ExpertId head = nodes_[head_].entry.req.expert;
    if (!plainInserts_) {
        // Grouped-only queue: the head group is contiguous, so the
        // first request after its last member starts the next group.
        const NodeIdx after = nodes_[groups_[head].last].next;
        return after == kNil ? kNoExpert
                             : nodes_[after].entry.req.expert;
    }
    for (NodeIdx i = nodes_[head_].next; i != kNil; i = nodes_[i].next) {
        if (nodes_[i].entry.req.expert != head)
            return nodes_[i].entry.req.expert;
    }
    return kNoExpert;
}

int
RequestQueue::stealFromTail(int maxCount, std::vector<Request> &out,
                            const StealFilter &allow)
{
    int stolen = 0;
    NodeIdx cur = tail_;
    // Walk tailward, unlinking matches; stop at the head node (never
    // stolen — see the header comment).
    while (stolen < maxCount && cur != kNil && cur != head_) {
        Node &n = nodes_[cur];
        const NodeIdx prev = n.prev;
        if (allow && !allow(n.entry.req)) {
            cur = prev;
            continue;
        }
        // noteRemoved() assumes head-order removal (group emptied =>
        // last == node): a stolen node that *is* its group's last but
        // not its only member hands that role to the nearest earlier
        // same-expert node first, then the shared bookkeeping applies.
        const ExpertId e = n.entry.req.expert;
        GroupInfo &info = groups_[e];
        if (info.count > 1 && info.last == cur) {
            NodeIdx p = prev;
            while (p != kNil && nodes_[p].entry.req.expert != e)
                p = nodes_[p].prev;
            COSERVE_CHECK(p != kNil, "queue group lost on steal");
            info.last = p;
        }
        noteRemoved(cur);
        out.push_back(std::move(n.entry.req));
        if (n.prev != kNil)
            nodes_[n.prev].next = n.next;
        if (n.next != kNil)
            nodes_[n.next].prev = n.prev;
        if (tail_ == cur)
            tail_ = n.prev;
        freeNodes_.push_back(cur);
        --size_;
        ++stolen;
        cur = prev;
    }
    return stolen;
}

int
RequestQueue::drainAll(std::vector<Request> &out)
{
    int drained = 0;
    while (head_ != kNil) {
        noteRemoved(head_);
        out.push_back(std::move(nodes_[head_].entry.req));
        unlinkHead();
        ++drained;
    }
    return drained;
}

std::vector<Request>
RequestQueue::snapshot() const
{
    std::vector<Request> out;
    out.reserve(size_);
    for (NodeIdx i = head_; i != kNil; i = nodes_[i].next)
        out.push_back(nodes_[i].entry.req);
    return out;
}

namespace {

/** Does @p r participate in the EDF-within-priority pop order? */
inline bool
sloUrgent(const Request &r)
{
    return r.deadline != kTimeNever || priorityOf(r.cls) != 0;
}

} // namespace

void
RequestQueue::noteInserted(NodeIdx node)
{
    GroupInfo &info = groupFor(nodes_[node].entry.req.expert);
    // The inserted entry is always the last occurrence of its expert:
    // appendTail places it at the tail; pushGrouped inserts right
    // after the previous last occurrence.
    info.last = node;
    info.count += 1;
    if (presence_ != nullptr)
        presence_->addQueued(nodes_[node].entry.req.expert);
    pendingWork_ += nodes_[node].entry.estimate;
    if (sloUrgent(nodes_[node].entry.req))
        sloUrgent_ += 1;
}

void
RequestQueue::noteRemoved(NodeIdx node)
{
    const ExpertId e = nodes_[node].entry.req.expert;
    COSERVE_CHECK(static_cast<std::size_t>(e) < groups_.size() &&
                      groups_[e].count > 0,
                  "queue group lost");
    GroupInfo &info = groups_[e];
    info.count -= 1;
    if (info.count == 0) {
        COSERVE_CHECK(info.last == node,
                      "group emptied but last node differs");
        info.last = kNil;
    }
    if (presence_ != nullptr)
        presence_->removeQueued(e);
    pendingWork_ -= nodes_[node].entry.estimate;
    if (sloUrgent(nodes_[node].entry.req)) {
        COSERVE_CHECK(sloUrgent_ > 0, "urgent count underflow");
        sloUrgent_ -= 1;
    }
}

} // namespace coserve
