/**
 * @file
 * Dense per-expert residency and queued-demand state of one serving
 * engine.
 *
 * The cluster coordinator asks every replica "is expert e resident?"
 * and "does a queued request already demand e?" on each arrival
 * (ReplicaLoadView, runtime/engine.h). The engine's executor pools and
 * request queues keep this index current as their state changes —
 * pools on load completion, preload insertion and eviction, queues on
 * every push, pop, steal and drain — so a load snapshot copies one
 * flag array instead of walking the pools' hash maps and every queue's
 * group table and sorting the result.
 */

#ifndef COSERVE_RUNTIME_EXPERT_PRESENCE_H
#define COSERVE_RUNTIME_EXPERT_PRESENCE_H

#include <cstdint>
#include <vector>

#include "model/expert.h"
#include "util/logging.h"

namespace coserve {

/** Incrementally maintained per-expert membership counts. */
class ExpertPresence
{
  public:
    /** flags() bit: settled (not loading) in some executor pool. */
    static constexpr std::uint8_t kResident = 1;
    /** flags() bit: demanded by at least one queued request. */
    static constexpr std::uint8_t kQueued = 2;

    /** Pre-size for expert ids [0, @p numExperts). */
    void
    reserve(std::size_t numExperts)
    {
        if (numExperts > flags_.size())
            grow(numExperts);
    }

    /** An executor pool now holds @p e settled. */
    void addResident(ExpertId e) { add(resident_, e, kResident); }

    /** An executor pool no longer holds @p e settled. */
    void removeResident(ExpertId e) { remove(resident_, e, kResident); }

    /** A request demanding @p e entered an executor queue. */
    void addQueued(ExpertId e) { add(queued_, e, kQueued); }

    /** A request demanding @p e left an executor queue. */
    void removeQueued(ExpertId e) { remove(queued_, e, kQueued); }

    /**
     * Membership bits (kResident | kQueued) indexed by ExpertId; ids
     * at or past the end are in neither set.
     */
    const std::vector<std::uint8_t> &flags() const { return flags_; }

  private:
    void
    grow(std::size_t size)
    {
        resident_.resize(size, 0);
        queued_.resize(size, 0);
        flags_.resize(size, 0);
    }

    void
    add(std::vector<std::int32_t> &counts, ExpertId e, std::uint8_t bit)
    {
        COSERVE_CHECK(e >= 0, "presence of invalid expert ", e);
        const auto i = static_cast<std::size_t>(e);
        if (i >= flags_.size())
            grow(i + 1);
        if (counts[i]++ == 0)
            flags_[i] |= bit;
    }

    void
    remove(std::vector<std::int32_t> &counts, ExpertId e,
           std::uint8_t bit)
    {
        const auto i = static_cast<std::size_t>(e);
        COSERVE_CHECK(e >= 0 && i < flags_.size() && counts[i] > 0,
                      "presence underflow for expert ", e);
        if (--counts[i] == 0)
            flags_[i] &= static_cast<std::uint8_t>(~bit);
    }

    /** Executor pools holding each expert settled (0..#pools). */
    std::vector<std::int32_t> resident_;
    /** Queued requests demanding each expert, across all queues. */
    std::vector<std::int32_t> queued_;
    std::vector<std::uint8_t> flags_;
};

} // namespace coserve

#endif // COSERVE_RUNTIME_EXPERT_PRESENCE_H
