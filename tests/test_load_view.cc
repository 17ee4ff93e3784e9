/**
 * @file
 * Differential oracle for the live replica load view.
 *
 * ServingEngine::fillLoadView() copies expert membership that the
 * engine's pools and queues maintain incrementally. This test rebuilds
 * the same snapshot from scratch — walking every executor queue's
 * requests and both executor pools' entries — and checks the two agree
 * after every step of a seeded online run that mixes admissions,
 * clock steps, work stealing, deadline-rescue preemption, live
 * migration and a replica crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "coe/board_builder.h"
#include "core/coserve.h"
#include "runtime/engine.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace coserve {
namespace {

/** The load snapshot built by walking the engine's pools and queues. */
struct ScratchView
{
    Time now = 0;
    std::size_t queueDepth = 0;
    Time backlog = 0;
    std::vector<ReplicaLoadView::ExecutorLoad> executors;
    std::set<ExpertId> resident;
    std::set<ExpertId> queued;
};

ScratchView
buildFromScratch(const ServingEngine &engine)
{
    ScratchView v;
    v.now = engine.now();
    std::vector<const ModelPool *> pools;
    for (std::size_t i = 0; i < engine.numExecutors(); ++i) {
        const Executor &exec = engine.executorAt(i);
        v.queueDepth += exec.queue().size();
        v.backlog += exec.queue().pendingWork() + exec.parkedWork();
        v.executors.push_back(
            {exec.busyUntil(), exec.queue().pendingWork()});
        for (const Request &req : exec.queue().snapshot())
            v.queued.insert(req.expert);
        if (std::find(pools.begin(), pools.end(), &exec.pool()) ==
            pools.end())
            pools.push_back(&exec.pool());
    }
    for (const ModelPool *pool : pools) {
        for (const auto &[id, entry] : pool->entries()) {
            if (!entry.loading)
                v.resident.insert(id);
        }
    }
    return v;
}

/** Tallies showing the seeded mix reached every mutation path. */
struct Coverage
{
    int checks = 0;
    int withQueued = 0;
    int withLoading = 0;
    std::size_t stolen = 0;
    std::size_t adopted = 0;
    std::size_t crashDrained = 0;
};

class LoadViewOracle : public ::testing::Test
{
  protected:
    LoadViewOracle()
        : device_(slowComputeDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        // Long batches relative to loads (a 10x-slower GPU) and a DRAM
        // tier, so deadline rescues and migrations actually fire; one
        // GPU and one CPU executor, so residency spans two pools.
        const auto bounds = gpuExpertCountBounds(ctx_, 1, 1);
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 1, bounds.second),
            "replica");
        cfg_.cpuCacheTier = true;
        cfg_.cpuCacheBytes = 1536ll * 1024 * 1024;
        cfg_.preemption.enabled = true;
        cfg_.preemption.minRunQuantum = milliseconds(5);
        cfg_.preemption.migration = true;
        cfg_.preemption.migrationMinRemaining = milliseconds(10);

        TenantSpec interactive;
        interactive.name = "interactive";
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 4.0;
        interactive.latencyBudget = milliseconds(600);
        TenantSpec batch;
        batch.name = "batch";
        batch.cls = RequestClass::Batch;
        batch.ratePerSec = 12.0;
        batch.latencyBudget = seconds(30);
        batch.arrivals = ArrivalProcess::MMPP;
        batch.mmppBurstFactor = 10.0;
        trace_ = generateSloTrace(model_, {interactive, batch},
                                  seconds(20), 0x10ad);
    }

    static DeviceSpec
    slowComputeDevice()
    {
        DeviceSpec d = tinyTestDevice();
        d.name = "tiny-slow-compute";
        d.gpu.computeScale = 0.1;
        return d;
    }

    /** Compare @p engine's live view with the from-scratch one. */
    void
    check(const ServingEngine &engine, Coverage &cov)
    {
        ReplicaLoadView live;
        engine.fillLoadView(live);
        const ScratchView ref = buildFromScratch(engine);
        cov.checks += 1;
        cov.withQueued += ref.queued.empty() ? 0 : 1;
        for (std::size_t i = 0; i < engine.numExecutors(); ++i) {
            for (const auto &[id, entry] :
                 engine.executorAt(i).pool().entries()) {
                if (entry.loading) {
                    cov.withLoading += 1;
                    break;
                }
            }
        }

        ASSERT_EQ(live.now, ref.now);
        ASSERT_EQ(live.queueDepth, ref.queueDepth);
        ASSERT_EQ(live.backlog, ref.backlog);
        ASSERT_EQ(live.executors.size(), ref.executors.size());
        for (std::size_t i = 0; i < ref.executors.size(); ++i) {
            ASSERT_EQ(live.executors[i].busyUntil,
                      ref.executors[i].busyUntil);
            ASSERT_EQ(live.executors[i].pendingWork,
                      ref.executors[i].pendingWork);
        }
        // Every id: negative, never seen, and past the board's range.
        const auto limit =
            static_cast<ExpertId>(model_.numExperts()) + 16;
        std::ostringstream diff;
        for (ExpertId e = -2; e < limit; ++e) {
            const bool resident = ref.resident.count(e) > 0;
            const bool queued = ref.queued.count(e) > 0;
            if (live.resident(e) != resident)
                diff << " resident(" << e << ")=" << live.resident(e);
            if (live.queued(e) != queued)
                diff << " queued(" << e << ")=" << live.queued(e);
        }
        ASSERT_EQ(diff.str(), "") << "at t=" << ref.now;
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

TEST_F(LoadViewOracle, IncrementalViewMatchesFromScratchEveryStep)
{
    constexpr std::size_t kReplicas = 2;
    std::vector<std::unique_ptr<ServingEngine>> engines;
    for (std::size_t i = 0; i < kReplicas; ++i) {
        EngineConfig cfg = cfg_;
        cfg.label = "replica" + std::to_string(i);
        engines.push_back(makeCoServeEngine(ctx_, std::move(cfg)));
        engines.back()->beginOnline(static_cast<RequestId>(i),
                                    static_cast<RequestId>(kReplicas));
    }
    Coverage cov;
    const auto checkAll = [&]() {
        for (const auto &engine : engines) {
            check(*engine, cov);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    };

    Rng rng(0x5eed);
    std::vector<PreemptEvent> preemptBuf;
    std::vector<CheckpointImage> images;
    std::vector<Request> moved;
    bool crashed = false;
    const std::size_t crashAt = trace_.arrivals.size() * 2 / 3;
    const auto stepTo = [&](Time t) {
        for (const auto &engine : engines) {
            engine->stepUntil(t);
            preemptBuf.clear();
            engine->drainPreemptEvents(preemptBuf);
        }
        // Completed migration saves land on the sibling (on replica 0
        // once replica 1 has crashed).
        for (std::size_t src = 0; src < kReplicas; ++src) {
            images.clear();
            engines[src]->takeMigratedImages(images);
            for (CheckpointImage &img : images) {
                const std::size_t dst =
                    crashed ? 0 : (src + 1) % kReplicas;
                cov.adopted += 1;
                engines[dst]->adoptCheckpoint(std::move(img));
            }
        }
    };

    checkAll();
    ASSERT_FALSE(HasFatalFailure());
    std::int64_t admitted = 0;
    for (std::size_t k = 0; k < trace_.arrivals.size(); ++k) {
        const ImageArrival &a = trace_.arrivals[k];
        stepTo(a.time);
        checkAll();
        ASSERT_FALSE(HasFatalFailure());

        const std::size_t target =
            crashed ? 0 : static_cast<std::size_t>(rng.uniformInt(2));
        engines[target]->admitArrival(a);
        admitted += 1;
        stepTo(a.time);
        checkAll();
        ASSERT_FALSE(HasFatalFailure());

        const std::uint64_t op = rng.uniformInt(8);
        if (op == 0 && !crashed) {
            // Work stealing: the victim's tail moves to the thief.
            const std::size_t victim = rng.uniformInt(2);
            moved.clear();
            const std::size_t got = engines[victim]->stealRequests(
                1 + rng.uniformInt(4), moved, nullptr);
            cov.stolen += got;
            for (const Request &req : moved)
                engines[1 - victim]->injectRequest(req);
        } else if (op == 1 && !crashed) {
            // Live migration of a running batch's checkpointed tail.
            engines[rng.uniformInt(2)]->requestMigrateOut(1);
        }
        checkAll();
        ASSERT_FALSE(HasFatalFailure());

        if (k == crashAt) {
            // Replica 1 dies: in-flight checkpoints migrate, queued
            // and running work is re-homed onto replica 0.
            images.clear();
            engines[1]->captureCheckpoints(images);
            engines[1]->drainPreemptEvents(preemptBuf);
            for (CheckpointImage &img : images) {
                cov.adopted += 1;
                engines[0]->adoptCheckpoint(std::move(img));
            }
            moved.clear();
            cov.crashDrained += engines[1]->crashDrain(moved);
            for (const Request &req : moved)
                engines[0]->injectRequest(req);
            crashed = true;
            checkAll();
            ASSERT_FALSE(HasFatalFailure());
        }
    }

    // Drain to quiescence, checking after every event round.
    for (;;) {
        Time next = kTimeNever;
        for (const auto &engine : engines)
            next = std::min(next, engine->nextEventTime());
        if (next == kTimeNever)
            break;
        stepTo(next);
        checkAll();
        ASSERT_FALSE(HasFatalFailure());
    }

    std::int64_t done = 0, rejected = 0, preemptions = 0;
    for (const auto &engine : engines) {
        const RunResult r = engine->finishOnline();
        done += r.images;
        rejected += engine->rejectedImages();
        preemptions += r.preemptions;
    }
    EXPECT_EQ(done + rejected, admitted);

    // The mix must have exercised every path that mutates membership.
    EXPECT_GT(cov.withQueued, cov.checks / 4);
    EXPECT_GT(cov.withLoading, 0);
    EXPECT_GT(cov.stolen, 0u);
    EXPECT_GT(cov.adopted, 0u);
    EXPECT_GT(cov.crashDrained, 0u);
    EXPECT_GT(preemptions, 0);
}

} // namespace
} // namespace coserve
