/**
 * @file
 * Tests for deterministic record/replay and fault injection: the
 * decision-log codec and digest, record→replay byte-equality, forced
 * divergence detection, config validation, crash-mid-run request
 * reconciliation, and straggler/brownout determinism.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
#include "metrics/report.h"
#include "replay/decision_log.h"
#include "workload/generator.h"

namespace coserve {
namespace {

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    EXPECT_TRUE(in) << path;
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(bytes.data()), size);
    return bytes;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

// ------------------------------------------------------ codec + digest

TEST(DecisionLogTest, CodecRoundTripsRecordsAndDigest)
{
    DecisionLog log;
    log.append({0, DecisionKind::Route, 0, 3, 0});
    log.append({0, DecisionKind::Route, 1, 0, 0});
    log.append({milliseconds(7), DecisionKind::Reject, 2, 1, 0});
    log.append({milliseconds(7), DecisionKind::Steal, 3, 1, 12});
    log.append({seconds(5), DecisionKind::Crash, 2, 40, 1});
    log.append(
        {seconds(5), DecisionKind::StragglerOn, 1, 2500000, 0});
    log.append({seconds(9), DecisionKind::Quiesce, 3, 0, 0});

    const std::vector<std::uint8_t> bytes = log.encode();
    const DecisionLog back = DecisionLog::decode(bytes);
    ASSERT_EQ(back.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(back.records()[i], log.records()[i]) << "record " << i;
    EXPECT_EQ(back.digest(), log.digest());
    // Re-encoding the decoded log must be byte-identical.
    EXPECT_EQ(back.encode(), bytes);
}

TEST(DecisionLogTest, DigestSeesEveryField)
{
    const DecisionRecord base{milliseconds(3), DecisionKind::Route, 1,
                              2, 3};
    DecisionLog ref;
    ref.append(base);
    const auto digestOf = [&](DecisionRecord rec) {
        DecisionLog log;
        log.append(rec);
        return log.digest();
    };
    DecisionRecord t = base;
    t.time += 1;
    DecisionRecord k = base;
    k.kind = DecisionKind::Steal;
    DecisionRecord a = base;
    a.a += 1;
    DecisionRecord b = base;
    b.b += 1;
    DecisionRecord c = base;
    c.c += 1;
    for (const DecisionRecord &rec : {t, k, a, b, c})
        EXPECT_NE(digestOf(rec), ref.digest()) << toString(rec);
    // Order matters: swapping two records must not cancel out.
    DecisionLog ab, ba;
    ab.append(base);
    ab.append(t);
    ba.append(t);
    ba.append(base);
    EXPECT_NE(ab.digest(), ba.digest());
}

TEST(DecisionLogTest, DecodeRejectsCorruption)
{
    DecisionLog log;
    log.append({0, DecisionKind::Route, 0, 1, 0});
    std::vector<std::uint8_t> bytes = log.encode();
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Flip a payload byte: the trailing digest no longer matches.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[6] ^= 0x01;
    EXPECT_EXIT(DecisionLog::decode(corrupt),
                ::testing::ExitedWithCode(1), "digest mismatch");
    // Bad magic is rejected before anything else.
    std::vector<std::uint8_t> notLog = bytes;
    notLog[0] = 'X';
    EXPECT_EXIT(DecisionLog::decode(notLog),
                ::testing::ExitedWithCode(1), "bad magic");
}

// ------------------------------------------------------ cluster fixture

class ReplayFixture : public ::testing::Test
{
  protected:
    ReplayFixture()
        : device_(tinyTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        TaskSpec task;
        task.name = "tiny-replay";
        task.numImages = 400;
        task.seed = 11;
        trace_ = generateTrace(model_, task);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        const int count = (minCount + maxCount) / 2;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, count), "replica");
    }

    ClusterConfig
    onlineConfig(int replicas,
                 RoutingPolicy policy = RoutingPolicy::LeastLoaded) const
    {
        ClusterConfig cc = homogeneousCluster(ctx_, cfg_, replicas,
                                              policy, "replay");
        cc.workStealing.enabled = true;
        cc.workStealing.backlogThreshold = 2;
        cc.workStealing.minBacklog = milliseconds(20);
        return cc;
    }

    /** Arrival time of the @p i-th image, for virtual fault times. */
    Time
    at(std::size_t i) const
    {
        return trace_.arrivals[i].time;
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

// -------------------------------------------------- record and replay

TEST_F(ReplayFixture, RecordThenReplayIsByteIdentical)
{
    const std::string logA = tempPath("replay_a.bin");
    const std::string logB = tempPath("replay_b.bin");

    RunOptions rec = runWithMode(RunMode::Online);
    rec.recordPath = logA;
    ClusterEngine first(onlineConfig(3));
    const ClusterResult r1 = first.run(trace_, rec);
    EXPECT_GT(r1.decisionCount, 0);

    // Replay the log while re-recording: the verified decision stream
    // must serialize to the exact bytes of the original log.
    RunOptions rep = runWithMode(RunMode::Online);
    rep.replayPath = logA;
    rep.recordPath = logB;
    ClusterEngine second(onlineConfig(3));
    const ClusterResult r2 = second.run(trace_, rep);

    EXPECT_EQ(r1.decisionDigest, r2.decisionDigest);
    EXPECT_EQ(r1.images, r2.images);
    EXPECT_EQ(r1.makespan, r2.makespan);
    const std::vector<std::uint8_t> a = readFile(logA);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, readFile(logB));
    std::remove(logA.c_str());
    std::remove(logB.c_str());
}

TEST_F(ReplayFixture, StaticRecordReplays)
{
    // A clean static run digests its pinned route stream, so a second
    // run of the same config (replicas on their own threads again)
    // must replay the recording.
    const std::string log = tempPath("replay_static.bin");
    RunOptions rec;
    rec.recordPath = log;
    ClusterEngine recorder(homogeneousCluster(
        ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult r1 = recorder.run(trace_, rec);

    RunOptions rep;
    rep.replayPath = log;
    ClusterEngine replayer(homogeneousCluster(
        ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult r2 = replayer.run(trace_, rep);
    EXPECT_EQ(r1.decisionDigest, r2.decisionDigest);
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.imagesPerReplica, r2.imagesPerReplica);
    EXPECT_EQ(r1.decisionCount,
              static_cast<std::int64_t>(trace_.size()));
    std::remove(log.c_str());
}

TEST_F(ReplayFixture, ReplayDivergenceIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string log = tempPath("replay_diverge.bin");
    RunOptions rec = runWithMode(RunMode::Online);
    rec.recordPath = log;
    ClusterEngine recorder(onlineConfig(3, RoutingPolicy::LeastLoaded));
    recorder.run(trace_, rec);

    // A different routing policy computes different decisions; the
    // replay must die on the first mismatch, not drift silently.
    RunOptions rep = runWithMode(RunMode::Online);
    rep.replayPath = log;
    EXPECT_EXIT(
        {
            ClusterEngine diverged(
                onlineConfig(3, RoutingPolicy::RoundRobin));
            diverged.run(trace_, rep);
        },
        ::testing::ExitedWithCode(1), "replay divergence");
    std::remove(log.c_str());
}

// ---------------------------------------------------- config validation

TEST_F(ReplayFixture, ValidateReportsHumanReadableErrors)
{
    ClusterConfig cc = homogeneousCluster(ctx_, cfg_, 2,
                                          RoutingPolicy::LeastLoaded);
    // Online-only policies in (resolved) static mode.
    cc.workStealing.enabled = true;
    cc.admission.enabled = true;
    cc.autoscale.enabled = true;
    cc.autoscale.interval = 0;
    cc.autoscale.minReplicas = 5;
    std::vector<std::string> errors = cc.validate({});
    ASSERT_GE(errors.size(), 4u);

    // The same config is clean once the run is online and the
    // autoscaler knobs are sane.
    cc.autoscale.interval = seconds(1);
    cc.autoscale.minReplicas = 1;
    EXPECT_TRUE(cc.validate(runWithMode(RunMode::Online)).empty());

    // Fault-plan bounds.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back({7, seconds(1)});     // out of range
    opts.faults.crashes.push_back({0, seconds(1)});
    opts.faults.crashes.push_back({0, seconds(2)});     // twice
    opts.faults.stragglers.push_back({1, seconds(2), seconds(1), 0.5});
    opts.faults.brownouts.push_back({1, seconds(1), seconds(2), 1.5});
    errors = cc.validate(opts);
    ASSERT_GE(errors.size(), 5u);

    // Same record and replay path.
    RunOptions paths;
    paths.recordPath = "x.bin";
    paths.replayPath = "x.bin";
    EXPECT_FALSE(
        homogeneousCluster(ctx_, cfg_, 2, RoutingPolicy::LeastLoaded)
            .validate(paths)
            .empty());
}

TEST_F(ReplayFixture, RunRejectsInvalidConfig)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ClusterConfig cc = homogeneousCluster(ctx_, cfg_, 2,
                                          RoutingPolicy::LeastLoaded);
    cc.workStealing.enabled = true; // static mode: invalid
    EXPECT_EXIT(
        {
            ClusterEngine cluster(std::move(cc));
            cluster.run(trace_, {});
        },
        ::testing::ExitedWithCode(1),
        "invalid cluster run configuration");
}

// ------------------------------------------------------ fault injection

TEST_F(ReplayFixture, CrashMidRunReconcilesEveryRequest)
{
    // Crash one of three replicas at peak load: its queued + running
    // work must re-home onto the survivors with nothing unaccounted.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back({1, at(200)});
    ClusterEngine cluster(onlineConfig(3));
    const ClusterResult r = cluster.run(trace_, opts);

    EXPECT_TRUE(r.faultsInjected);
    EXPECT_EQ(r.crashesInjected, 1);
    EXPECT_GT(r.crashRehomed, 0);
    // Homogeneous cluster: every survivor can serve everything.
    EXPECT_EQ(r.crashLost, 0);
    EXPECT_EQ(r.images + r.slo.rejected() + r.crashLost,
              static_cast<std::int64_t>(trace_.size()));
    // The dead replica completed some prefix and then nothing more.
    ASSERT_EQ(r.replicas.size(), 3u);
    EXPECT_LT(r.imagesPerReplica[1], r.imagesPerReplica[0]);
    // The report grows a failure section.
    EXPECT_NE(summarize(r).find("faults: 1 crash"), std::string::npos);
}

TEST_F(ReplayFixture, CrashIsDeterministicAndReplayable)
{
    const std::string log = tempPath("replay_crash.bin");
    const auto run = [&](const std::string &record,
                         const std::string &replay) {
        RunOptions opts = runWithMode(RunMode::Online);
        opts.faults.crashes.push_back({0, at(150)});
        opts.recordPath = record;
        opts.replayPath = replay;
        ClusterEngine cluster(onlineConfig(3));
        return cluster.run(trace_, opts);
    };
    const ClusterResult a = run(log, "");
    const ClusterResult b = run("", log);
    EXPECT_EQ(a.decisionDigest, b.decisionDigest);
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.crashRehomed, b.crashRehomed);
    std::remove(log.c_str());
}

TEST_F(ReplayFixture, StaticModeSupportsFaultsWithPinnedRouting)
{
    // Faults force the coordinator path even in static mode, with
    // routing pinned to the offline assignment; only arrivals whose
    // assigned replica died re-home.
    ClusterEngine clean(
        homogeneousCluster(ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult base = clean.run(trace_, {});

    RunOptions opts; // static by default
    opts.faults.crashes.push_back({2, at(100)});
    ClusterEngine cluster(
        homogeneousCluster(ctx_, cfg_, 3, RoutingPolicy::LeastLoaded));
    const ClusterResult r = cluster.run(trace_, opts);
    EXPECT_TRUE(r.faultsInjected);
    EXPECT_EQ(r.images + r.crashLost,
              static_cast<std::int64_t>(trace_.size()));
    EXPECT_EQ(r.crashLost, 0);
    // The fault changed the schedule; the digest must say so.
    EXPECT_NE(r.decisionDigest, base.decisionDigest);
}

TEST_F(ReplayFixture, CrashOfLastActiveReplicaWakesAQuiescedOne)
{
    // Two bursts around a 10 s quiet spell: the autoscaler quiesces
    // down to one replica during the lull, and that replica dies a
    // few arrivals into the second burst. A quiesced survivor must be
    // woken to take the dead replica's work and the rest of the
    // burst: nothing is lost, and routing never finds an empty
    // active set.
    Trace trace = trace_;
    const std::size_t half = trace.size() / 2;
    for (std::size_t i = half; i < trace.size(); ++i)
        trace.arrivals[i].time += seconds(10);

    ClusterConfig cc = onlineConfig(3);
    cc.autoscale.enabled = true;
    cc.autoscale.interval = milliseconds(500);
    cc.autoscale.cooldown = seconds(1);
    cc.autoscale.minReplicas = 1;
    cc.autoscale.startReplicas = 3;
    const std::string log = tempPath("replay_last_active.bin");
    RunOptions opts = runWithMode(RunMode::Online);
    opts.recordPath = log;
    opts.faults.crashes.push_back({0, trace.arrivals[half + 4].time});
    ClusterEngine cluster(std::move(cc));
    const ClusterResult r = cluster.run(trace, opts);

    EXPECT_GT(r.crashRehomed, 0);
    EXPECT_EQ(r.crashLost, 0);
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace.size()));

    // Walk the decision stream: the crash must hit the sole active
    // replica, and a quiesced one must be woken at the crash instant.
    const Time crashAt = opts.faults.crashes.front().at;
    std::vector<char> active(3, 1);
    bool crashSeen = false, woken = false;
    const DecisionLog decisions = DecisionLog::load(log);
    for (const DecisionRecord &d : decisions.records()) {
        if (d.time < crashAt && d.kind == DecisionKind::Quiesce)
            active[d.a] = 0;
        else if (d.time < crashAt && d.kind == DecisionKind::ScaleUp)
            active[d.a] = 1;
        woken = woken || (d.time == crashAt &&
                          d.kind == DecisionKind::ScaleUp && d.a != 0);
        crashSeen = crashSeen || d.kind == DecisionKind::Crash;
    }
    EXPECT_EQ(active, (std::vector<char>{1, 0, 0}));
    EXPECT_TRUE(crashSeen);
    EXPECT_TRUE(woken);
    std::remove(log.c_str());
}

TEST_F(ReplayFixture, StragglerSlowsDeterministically)
{
    const auto run = [&](FaultPlan faults) {
        RunOptions opts = runWithMode(RunMode::Online);
        opts.faults = std::move(faults);
        ClusterEngine cluster(onlineConfig(3));
        return cluster.run(trace_, opts);
    };
    const ClusterResult clean = run({});

    FaultPlan slow;
    slow.stragglers.push_back({0, at(50), at(350), 4.0});
    const ClusterResult a = run(slow);
    const ClusterResult b = run(slow);

    EXPECT_EQ(a.decisionDigest, b.decisionDigest);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.stragglersInjected, 1);
    EXPECT_EQ(a.images, static_cast<std::int64_t>(trace_.size()));
    // A 4x-slower replica must change the schedule.
    EXPECT_NE(a.decisionDigest, clean.decisionDigest);
}

TEST_F(ReplayFixture, BrownoutThrottlesStorageAndReconciles)
{
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.brownouts.push_back({1, at(50), at(350), 0.25});
    ClusterEngine cluster(onlineConfig(3));
    const ClusterResult r = cluster.run(trace_, opts);
    EXPECT_TRUE(r.faultsInjected);
    EXPECT_EQ(r.brownoutsInjected, 1);
    EXPECT_EQ(r.images, static_cast<std::int64_t>(trace_.size()));
}

} // namespace
} // namespace coserve
