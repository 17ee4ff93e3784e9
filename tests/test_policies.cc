/**
 * @file
 * Unit tests for the eviction policies: LRU, FIFO, and CoServe's
 * two-stage dependency-aware strategy (paper Figure 10).
 */

#include <gtest/gtest.h>

#include "baselines/evictions.h"
#include "coe/dependency.h"
#include "coe/usage.h"
#include "core/two_stage_eviction.h"
#include "runtime/pool.h"

namespace coserve {
namespace {

constexpr std::int64_t kMB = 1024 * 1024;

/**
 * Model mirroring Figure 10: experts 0..3 preliminary, 4..5 subsequent.
 * Expert 4 depends on 0 and 1; expert 5 depends on 2.
 */
class EvictionFixture : public ::testing::Test
{
  protected:
    EvictionFixture()
        : model_(makeModel()), deps_(model_), usage_(makeUsage()),
          pool_("p", 1000 * kMB)
    {
        ctx_.model = &model_;
        ctx_.deps = &deps_;
        ctx_.usage = &usage_;
        ctx_.now = 100;
        ctx_.allowSoftPinned = true;
        pool_.trackDependencies(&deps_);
    }

    static CoEModel
    makeModel()
    {
        std::vector<Expert> experts;
        for (int i = 0; i < 6; ++i) {
            Expert e;
            e.id = i;
            e.name = "e" + std::to_string(i);
            e.arch = i < 4 ? ArchId::ResNet101 : ArchId::YoloV5l;
            e.role = i < 4 ? ExpertRole::Preliminary
                           : ExpertRole::Subsequent;
            e.weightBytes = archSpec(e.arch).weightBytes;
            experts.push_back(e);
        }
        std::vector<ComponentType> comps(4);
        for (int i = 0; i < 4; ++i) {
            comps[i].id = i;
            comps[i].name = "c" + std::to_string(i);
            comps[i].classifier = i;
            comps[i].imageProb = 0.25;
            comps[i].defectProb = 0.0;
        }
        comps[0].detector = 4;
        comps[1].detector = 4;
        comps[2].detector = 5;
        return CoEModel("fig10", std::move(experts), std::move(comps));
    }

    static UsageProfile
    makeUsage()
    {
        // Usage: e0 high ... e3 low; detectors in between.
        return UsageProfile({0.30, 0.20, 0.15, 0.05, 0.20, 0.10});
    }

    CoEModel model_;
    DependencyGraph deps_;
    UsageProfile usage_;
    ModelPool pool_;
    EvictionContext ctx_;
};

TEST_F(EvictionFixture, LruPicksOldest)
{
    LruEviction lru;
    pool_.insertResident(0, 10 * kMB, 1, /*now=*/50);
    pool_.insertResident(1, 10 * kMB, 2, /*now=*/10);
    pool_.insertResident(2, 10 * kMB, 3, /*now=*/90);
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(1));
}

TEST_F(EvictionFixture, LruSkipsPinned)
{
    LruEviction lru;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.insertResident(1, 10 * kMB, 2, 50);
    pool_.pin(0);
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(1));
    pool_.unpin(0);
}

TEST_F(EvictionFixture, LruHonorsSoftPinPerContext)
{
    LruEviction lru;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.insertResident(1, 10 * kMB, 2, 50);
    pool_.softPin(0);
    ctx_.allowSoftPinned = false; // prefetch context
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(1));
    ctx_.allowSoftPinned = true; // demand context may take it
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::optional<ExpertId>(0));
}

TEST_F(EvictionFixture, LruEmptyPoolReturnsNothing)
{
    LruEviction lru;
    EXPECT_EQ(lru.selectVictim(pool_, ctx_), std::nullopt);
}

TEST_F(EvictionFixture, FifoPicksFirstLoaded)
{
    FifoEviction fifo;
    pool_.insertResident(0, 10 * kMB, /*seq=*/5, 99);
    pool_.insertResident(1, 10 * kMB, /*seq=*/2, 1);
    pool_.insertResident(2, 10 * kMB, /*seq=*/9, 50);
    EXPECT_EQ(fifo.selectVictim(pool_, ctx_),
              std::optional<ExpertId>(1));
}

TEST_F(EvictionFixture, TwoStagePrefersOrphanSubsequent)
{
    // Detector 5 depends on classifier 2 which is NOT resident ->
    // stage 1 victim, even though its usage beats classifier 3.
    TwoStageEviction ts;
    pool_.insertResident(3, 10 * kMB, 1, 10); // low-usage preliminary
    pool_.insertResident(5, 20 * kMB, 2, 99); // orphan subsequent
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(5));
}

TEST_F(EvictionFixture, TwoStageKeepsSupportedSubsequent)
{
    // Detector 4's preliminary 0 is resident -> not an orphan; fall
    // back to stage 2 (lowest usage = expert 3).
    TwoStageEviction ts;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.insertResident(3, 10 * kMB, 2, 20);
    pool_.insertResident(4, 20 * kMB, 3, 30);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(3));
}

TEST_F(EvictionFixture, TwoStageOrphansByDescendingFootprint)
{
    // Both detectors orphaned: the larger one goes first (Figure 10
    // sorts stage-1 victims by descending memory footprint).
    TwoStageEviction ts;
    pool_.insertResident(4, 30 * kMB, 1, 10);
    pool_.insertResident(5, 20 * kMB, 2, 10);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(4));
}

TEST_F(EvictionFixture, TwoStageStageTwoByAscendingUsage)
{
    TwoStageEviction ts;
    pool_.insertResident(0, 10 * kMB, 1, 10); // usage 0.30
    pool_.insertResident(1, 10 * kMB, 2, 99); // usage 0.20
    pool_.insertResident(2, 10 * kMB, 3, 50); // usage 0.15
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(2));
}

TEST_F(EvictionFixture, TwoStageRespectsPins)
{
    TwoStageEviction ts;
    pool_.insertResident(5, 20 * kMB, 1, 10); // orphan subsequent
    pool_.pin(5);
    pool_.insertResident(3, 10 * kMB, 2, 20);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::optional<ExpertId>(3));
    pool_.unpin(5);
}

TEST_F(EvictionFixture, TwoStageNothingEvictable)
{
    TwoStageEviction ts;
    pool_.insertResident(0, 10 * kMB, 1, 10);
    pool_.pin(0);
    EXPECT_EQ(ts.selectVictim(pool_, ctx_), std::nullopt);
    pool_.unpin(0);
}

TEST_F(EvictionFixture, PolicyNames)
{
    EXPECT_STREQ(LruEviction().name(), "lru");
    EXPECT_STREQ(FifoEviction().name(), "fifo");
    EXPECT_STREQ(TwoStageEviction().name(), "two-stage");
}

} // namespace
} // namespace coserve
