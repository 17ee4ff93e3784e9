#include "runtime/memory_tier.h"

#include "runtime/expert_presence.h"
#include "runtime/policies.h"
#include "util/logging.h"

namespace coserve {

const char *
toString(TierLevel level)
{
    switch (level) {
      case TierLevel::Gpu: return "gpu";
      case TierLevel::CpuDram: return "cpu-dram";
      case TierLevel::Disk: return "disk";
    }
    return "?";
}

// ------------------------------------------------------------ MemoryTier

MemoryTier::MemoryTier(std::string name, std::int64_t capacityBytes,
                       TierLevel level)
    : name_(std::move(name)), level_(level), capacity_(capacityBytes)
{
    COSERVE_CHECK(capacity_ >= 0, "tier ", name_, " negative capacity");
}

MemoryTier::~MemoryTier() = default;

void
MemoryTier::setEvictionPolicy(std::unique_ptr<EvictionPolicy> policy)
{
    policy_ = std::move(policy);
}

bool
MemoryTier::resident(ExpertId e) const
{
    auto it = entries_.find(e);
    return it != entries_.end() && !it->second.loading;
}

bool
MemoryTier::loading(ExpertId e) const
{
    auto it = entries_.find(e);
    return it != entries_.end() && it->second.loading;
}

void
MemoryTier::beginLoad(ExpertId e, std::int64_t bytes, std::uint64_t seq)
{
    COSERVE_CHECK(!contains(e), "expert ", e, " already tiered in ",
                  name_);
    COSERVE_CHECK(bytes > 0 && bytes <= freeBytes(),
                  "tier ", name_, " cannot reserve ", bytes, " bytes (",
                  freeBytes(), " free)");
    TierEntry entry;
    entry.bytes = bytes;
    entry.loadSeq = seq;
    entry.loading = true;
    entry.pins = 1; // loads hard-pin themselves until completion
    entries_.emplace(e, entry);
    used_ += bytes;
    counters_.insertions += 1;
}

void
MemoryTier::finishLoad(ExpertId e, Time now)
{
    TierEntry &entry = mutableEntry(e);
    COSERVE_CHECK(entry.loading, "expert ", e, " was not loading");
    entry.loading = false;
    entry.lastUse = now;
    COSERVE_CHECK(entry.pins >= 1, "load pin lost");
    entry.pins -= 1;
    if (presence_ != nullptr)
        presence_->addResident(e);
}

void
MemoryTier::insertResident(ExpertId e, std::int64_t bytes,
                           std::uint64_t seq, Time now)
{
    COSERVE_CHECK(!contains(e), "expert ", e, " already tiered in ",
                  name_);
    COSERVE_CHECK(bytes > 0 && bytes <= freeBytes(),
                  "tier ", name_, " overflow on preload");
    TierEntry entry;
    entry.bytes = bytes;
    entry.loadSeq = seq;
    entry.lastUse = now;
    entries_.emplace(e, entry);
    used_ += bytes;
    counters_.insertions += 1;
    if (presence_ != nullptr)
        presence_->addResident(e);
}

void
MemoryTier::erase(ExpertId e)
{
    auto it = entries_.find(e);
    COSERVE_CHECK(it != entries_.end(), "evicting absent expert ", e);
    COSERVE_CHECK(it->second.pins == 0, "evicting pinned expert ", e);
    COSERVE_CHECK(!it->second.loading, "evicting in-flight expert ", e);
    used_ -= it->second.bytes;
    entries_.erase(it);
    if (presence_ != nullptr)
        presence_->removeResident(e);
}

bool
MemoryTier::evict(ExpertId e, Time now)
{
    const std::int64_t bytes = entry(e).bytes;
    erase(e);
    counters_.evictions += 1;
    if (below_ != nullptr && below_->enabled())
        return below_->admit(e, bytes, now);
    return false;
}

void
MemoryTier::touch(ExpertId e, Time now)
{
    TierEntry &entry = mutableEntry(e);
    entry.lastUse = now;
    entry.uses += 1;
}

void
MemoryTier::pin(ExpertId e)
{
    mutableEntry(e).pins += 1;
}

void
MemoryTier::unpin(ExpertId e)
{
    TierEntry &entry = mutableEntry(e);
    COSERVE_CHECK(entry.pins > 0, "unpin of unpinned expert ", e);
    entry.pins -= 1;
}

void
MemoryTier::softPin(ExpertId e)
{
    mutableEntry(e).softPinned = true;
}

void
MemoryTier::softUnpin(ExpertId e)
{
    auto it = entries_.find(e);
    if (it != entries_.end())
        it->second.softPinned = false;
}

const TierEntry &
MemoryTier::entry(ExpertId e) const
{
    auto it = entries_.find(e);
    COSERVE_CHECK(it != entries_.end(), "expert ", e, " not in tier ",
                  name_);
    return it->second;
}

TierEntry &
MemoryTier::mutableEntry(ExpertId e)
{
    auto it = entries_.find(e);
    COSERVE_CHECK(it != entries_.end(), "expert ", e, " not in tier ",
                  name_);
    return it->second;
}

bool
MemoryTier::insert(ExpertId e, std::int64_t bytes, Time now)
{
    if (capacity_ == 0 || bytes <= 0 || bytes > capacity_)
        return false;
    auto it = entries_.find(e);
    if (it != entries_.end()) {
        // Resident re-insert: adopt the new size instead of
        // double-counting the old bytes, and refresh recency.
        const std::int64_t oldBytes = it->second.bytes;
        used_ += bytes - oldBytes;
        it->second.bytes = bytes;
        it->second.lastUse = now;
        if (used_ > capacity_) {
            // The entry grew: shrink around it (it is pinned for the
            // duration so the scan cannot select it). When only
            // protected entries remain, roll the resize back rather
            // than leaving the tier over capacity.
            it->second.pins += 1;
            const bool fits = makeRoom(0, now);
            TierEntry &entry = mutableEntry(e);
            entry.pins -= 1;
            if (!fits) {
                used_ += oldBytes - entry.bytes;
                entry.bytes = oldBytes;
                return false;
            }
        }
        return true;
    }
    if (!makeRoom(bytes, now))
        return false; // everything evictable is pinned/loading: reject
    TierEntry entry;
    entry.bytes = bytes;
    entry.lastUse = now;
    entries_.emplace(e, entry);
    used_ += bytes;
    counters_.insertions += 1;
    if (presence_ != nullptr)
        presence_->addResident(e);
    return true;
}

bool
MemoryTier::makeRoom(std::int64_t need, Time now)
{
    while (used_ + need > capacity_) {
        ExpertId victim = kNoExpert;
        if (policy_) {
            EvictionContext ctx;
            ctx.now = now;
            const std::optional<ExpertId> v =
                policy_->selectVictim(*this, ctx);
            if (v)
                victim = *v;
        } else {
            // Built-in LRU: minimum lastUse among unpinned, settled
            // entries, lastUse ties broken by smallest id. The former
            // "first minimum in iteration order" picked different
            // victims under libstdc++ vs libc++ bucket orders — a
            // cross-stdlib digest divergence waiting for a tie.
            Time oldest = kTimeNever;
            // detlint:allow(unordered-iter) full-order victim selection (lastUse, then id) is independent of visit order
            for (const auto &[id, entry] : entries_) {
                if (entry.pins > 0 || entry.loading)
                    continue;
                if (entry.lastUse < oldest ||
                    (entry.lastUse == oldest &&
                     (victim == kNoExpert || id < victim))) {
                    victim = id;
                    oldest = entry.lastUse;
                }
            }
        }
        if (victim == kNoExpert)
            return false;
        evict(victim, now);
    }
    return true;
}

bool
MemoryTier::warm(ExpertId e, std::int64_t bytes)
{
    if (!enabled() || used_ + bytes > capacity_)
        return false;
    return insert(e, bytes, 0);
}

void
MemoryTier::refresh(ExpertId e, Time now)
{
    auto it = entries_.find(e);
    if (it != entries_.end())
        it->second.lastUse = now;
}

TierStats
MemoryTier::stats() const
{
    TierStats s;
    s.name = name_;
    s.level = coserve::toString(level_);
    s.capacityBytes = capacity_;
    s.usedBytes = used_;
    s.counters = counters_;
    return s;
}

// -------------------------------------------------------------- DiskTier

DiskTier::DiskTier(std::string name) : name_(std::move(name)) {}

TierStats
DiskTier::stats() const
{
    TierStats s;
    s.name = name_;
    s.level = coserve::toString(TierLevel::Disk);
    s.counters = counters_;
    return s;
}

// --------------------------------------------------------- SharedCpuTier

SharedCpuTier::SharedCpuTier(std::int64_t capacityBytes)
    : tier_(name_, capacityBytes, TierLevel::CpuDram), disk_("disk")
{
    COSERVE_CHECK(capacityBytes > 0, "shared CPU tier needs capacity");
    tier_.linkBelow(&disk_);
}

bool
SharedCpuTier::enabled() const
{
    // Capacity is immutable after construction, but taking the lock
    // keeps the thread-safety analysis airtight (no annotated-away
    // access path) and the call is far off any hot path.
    MutexLock lock(mutex_);
    return tier_.enabled();
}

bool
SharedCpuTier::holds(ExpertId e) const
{
    MutexLock lock(mutex_);
    return tier_.holds(e);
}

bool
SharedCpuTier::admit(ExpertId e, std::int64_t bytes, Time now)
{
    (void)now; // replica sim clocks are incomparable; use the tick
    MutexLock lock(mutex_);
    return tier_.admit(e, bytes, ++tick_);
}

bool
SharedCpuTier::warm(ExpertId e, std::int64_t bytes)
{
    // Delegates to the tier's own warm: preloaded entries carry the
    // oldest possible recency (0) here exactly as in a private tier,
    // so shared-vs-private comparisons start from the same priority.
    MutexLock lock(mutex_);
    return tier_.warm(e, bytes);
}

void
SharedCpuTier::refresh(ExpertId e, Time now)
{
    (void)now;
    MutexLock lock(mutex_);
    tier_.refresh(e, ++tick_);
}

bool
SharedCpuTier::lookupAndTouch(ExpertId e, Time now)
{
    (void)now; // replica sim clocks are incomparable; use the tick
    MutexLock lock(mutex_);
    if (!tier_.holds(e))
        return false;
    tier_.noteHit();
    tier_.refresh(e, ++tick_);
    return true;
}

void
SharedCpuTier::noteHit()
{
    MutexLock lock(mutex_);
    tier_.noteHit();
}

void
SharedCpuTier::noteMiss()
{
    MutexLock lock(mutex_);
    tier_.noteMiss();
}

TierStats
SharedCpuTier::stats() const
{
    MutexLock lock(mutex_);
    TierStats s = tier_.stats();
    s.shared = true;
    return s;
}

TierStats
SharedCpuTier::diskStats() const
{
    MutexLock lock(mutex_);
    return disk_.stats();
}

std::size_t
SharedCpuTier::hintUpcomingLoads(const std::vector<ExpertId> &experts)
{
    MutexLock lock(mutex_);
    std::size_t protectedCount = 0;
    for (ExpertId e : experts) {
        if (!tier_.holds(e))
            continue;
        tier_.refresh(e, ++tick_);
        protectedCount += 1;
    }
    stealHintsProtected_ += static_cast<std::int64_t>(protectedCount);
    return protectedCount;
}

std::int64_t
SharedCpuTier::stealHintsProtected() const
{
    MutexLock lock(mutex_);
    return stealHintsProtected_;
}

} // namespace coserve
