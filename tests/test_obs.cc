/**
 * @file
 * Tests for the deterministic observability layer: metrics-registry
 * primitives and snapshots, the virtual-time span tracer's Chrome
 * trace-event JSON (pinned bytes, export order against a stable-sort
 * oracle, escaped process names), the pinned bytes of the metrics
 * JSON and sampler CSV, host-profile export, TelemetryConfig validation,
 * telemetry on/off schedule invariance (same decision digest and sim
 * metrics), trace byte-stability across repeat runs (online, and
 * static with replicas on threads), the registry export of every
 * result counter, and the epoch
 * sampler's CSV time series.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "coe/board_builder.h"
#include "metrics/cluster_result.h"
#include "metrics/report.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workload/generator.h"

namespace coserve {
namespace {

std::string
readFileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

// ------------------------------------------------- registry primitives

TEST(ObsMetricsTest, CounterGaugeHistogramRoundTrip)
{
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.counter("a.count");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5);
    // counter() re-registers to the same handle.
    EXPECT_EQ(&reg.counter("a.count"), &c);

    reg.gauge("b.gauge").set(2.5);
    EXPECT_DOUBLE_EQ(reg.gauge("b.gauge").value(), 2.5);

    obs::Histogram &h = reg.histogram("c.hist", {10, 100});
    h.record(3);
    h.record(50);
    h.record(50);
    h.record(1000);
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 1103);
    EXPECT_EQ(h.bucketCount(0), 1); // <= 10
    EXPECT_EQ(h.bucketCount(1), 2); // <= 100
    EXPECT_EQ(h.bucketCount(2), 1); // overflow
}

TEST(ObsMetricsTest, SnapshotIsNameSortedWithFallbackLookup)
{
    obs::MetricsRegistry reg;
    reg.counter("zeta").add(7);
    reg.gauge("alpha").set(1.0);
    reg.counter("mid").add(2);

    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.rows.size(), 3u);
    EXPECT_EQ(snap.rows[0].name, "alpha");
    EXPECT_EQ(snap.rows[1].name, "mid");
    EXPECT_EQ(snap.rows[2].name, "zeta");
    EXPECT_EQ(snap.rows[0].kind, "gauge");
    EXPECT_EQ(snap.rows[2].kind, "counter");

    ASSERT_NE(snap.find("mid"), nullptr);
    EXPECT_DOUBLE_EQ(snap.find("mid")->value, 2.0);
    EXPECT_EQ(snap.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(snap.value("zeta", -1.0), 7.0);
    EXPECT_DOUBLE_EQ(snap.value("missing", -1.0), -1.0);
    EXPECT_FALSE(snap.empty());
    EXPECT_TRUE(obs::MetricsSnapshot{}.empty());
}

TEST(ObsMetricsTest, WriteJsonEmitsEveryMetric)
{
    obs::MetricsRegistry reg;
    reg.counter("cluster.images").add(42);
    reg.gauge("cluster.throughput").set(3.5);
    const std::string path = tempPath("obs_metrics.json");
    ASSERT_TRUE(reg.snapshot().writeJson(path));
    const std::string json = readFileText(path);
    EXPECT_NE(json.find("\"cluster.images\""), std::string::npos);
    EXPECT_NE(json.find("\"cluster.throughput\""), std::string::npos);
    EXPECT_NE(json.find("42"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ObsMetricsTest, WriteJsonBytesArePinned)
{
    // Shortest-round-trip doubles printed with 17 significant digits,
    // signed zero, exponents of both signs and int64 counters beyond
    // 2^53: the exact bytes of the metrics JSON.
    obs::MetricsRegistry reg;
    reg.gauge("g.tenth").set(0.1);
    reg.gauge("g.third").set(1.0 / 3.0);
    reg.gauge("g.tiny").set(1e-7);
    reg.gauge("g.big").set(1.2345678901234568e17);
    reg.gauge("g.zero").set(0.0);
    reg.gauge("g.negzero").set(-0.0);
    reg.gauge("g.huge").set(1e300);
    reg.counter("c.small").add(42);
    reg.counter("c.wide").add(9'007'199'254'740'993);
    reg.counter("c.negative").add(-1'234'567'890'123);
    const std::string path = tempPath("obs_metrics_pinned.json");
    ASSERT_TRUE(reg.snapshot().writeJson(path));
    EXPECT_EQ(readFileText(path), "{\n"
                                  "  \"c.negative\": -1234567890123,\n"
                                  "  \"c.small\": 42,\n"
                                  "  \"c.wide\": 9007199254740992,\n"
                                  "  \"g.big\": 1.2345678901234568e+17,\n"
                                  "  \"g.huge\": 1.0000000000000001e+300,\n"
                                  "  \"g.negzero\": -0,\n"
                                  "  \"g.tenth\": 0.10000000000000001,\n"
                                  "  \"g.third\": 0.33333333333333331,\n"
                                  "  \"g.tiny\": 9.9999999999999995e-08,\n"
                                  "  \"g.zero\": 0\n"
                                  "}\n");
    std::remove(path.c_str());
}

// ------------------------------------------------------------- tracer

TEST(ObsTraceTest, JsonIsByteStableAndCarriesRequiredFields)
{
    const auto record = [](obs::Tracer &tracer) {
        obs::ReplicaTracer *coord = tracer.replica(0);
        coord->setProcessName("coordinator");
        coord->setThreadName(0, "coordinator");
        coord->instant("route", 0, milliseconds(2));
        obs::ReplicaTracer *rep = tracer.replica(1);
        rep->setProcessName("replica0");
        rep->setThreadName(1, "executor0");
        rep->span("batch", 1, milliseconds(1), milliseconds(3),
                  {"expert", 4});
        rep->flow("detect chain", 1, milliseconds(3), 99, true);
        rep->flow("detect chain", 1, milliseconds(4), 99, false);
    };
    obs::Tracer a(2), b(2);
    record(a);
    record(b);
    EXPECT_EQ(a.eventCount(), 4u);
    const std::string json = a.toJson();
    EXPECT_EQ(json, b.toJson());

    // Perfetto / chrome://tracing schema essentials.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    for (const char *field : {"\"ph\"", "\"ts\"", "\"pid\"", "\"tid\"",
                              "\"name\""})
        EXPECT_NE(json.find(field), std::string::npos) << field;
    EXPECT_NE(json.find("\"batch\""), std::string::npos);
    EXPECT_NE(json.find("\"route\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"expert\":4"), std::string::npos);

    // Metadata renders before timed events; spans carry durations.
    EXPECT_LT(json.find("process_name"), json.find("\"X\""));
    EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

/**
 * Every row shape the renderer emits: metadata; an 'X' span with
 * 'dur'; 'i' instants; an 's'/'f' flow pair; 0, 1 and 3 args with
 * negative values; sub-microsecond remainders 0, 5, 50 and 999 ns;
 * a timestamp above 2^32 ns; a negative one; and a cross-pid
 * timestamp tie.
 */
void
recordPinnedFixture(obs::Tracer &tracer)
{
    obs::ReplicaTracer *coord = tracer.replica(0);
    coord->setProcessName("coordinator");
    coord->setThreadName(0, "coordinator");
    obs::ReplicaTracer *rep = tracer.replica(1);
    rep->setProcessName("replica0");
    rep->setThreadName(1, "executor0");
    rep->setThreadName(2, "executor1");

    rep->span("batch", 1, 1'000'000, 3'000'050, {"expert", 4},
              {"size", 3}, {"delta", -7});
    rep->span("load", 2, 1'500'999, 1'700'000);
    coord->instant("route", 0, 2'000'005, {"replica", 1});
    rep->instant("admit", 1, 2'000'005);
    rep->flow("detect chain", 1, 3'000'050, 99, true);
    rep->flow("detect chain", 2, 4'000'999, 99, false);
    coord->instant("skew", 0, -1'500);
    coord->span("coordinator", 0, 5'000'000'123, 5'000'250'000,
                {"offset", -1'234'567'890'123});
}

TEST(ObsTraceTest, JsonBytesArePinned)
{
    obs::Tracer tracer(2);
    recordPinnedFixture(tracer);
    const char *expected = R"json({"traceEvents":[
{"ph":"M","ts":0.000,"pid":0,"tid":0,"name":"process_name","args":{"name":"coordinator"}},
{"ph":"M","ts":0.000,"pid":0,"tid":0,"name":"thread_name","args":{"name":"coordinator"}},
{"ph":"M","ts":0.000,"pid":1,"tid":0,"name":"process_name","args":{"name":"replica0"}},
{"ph":"M","ts":0.000,"pid":1,"tid":1,"name":"thread_name","args":{"name":"executor0"}},
{"ph":"M","ts":0.000,"pid":1,"tid":2,"name":"thread_name","args":{"name":"executor1"}},
{"ph":"i","ts":-1.-500,"pid":0,"tid":0,"name":"skew","s":"t"},
{"ph":"X","ts":1000.000,"dur":2000.050,"pid":1,"tid":1,"name":"batch","args":{"expert":4,"size":3,"delta":-7}},
{"ph":"X","ts":1500.999,"dur":199.001,"pid":1,"tid":2,"name":"load"},
{"ph":"i","ts":2000.005,"pid":0,"tid":0,"name":"route","s":"t","args":{"replica":1}},
{"ph":"i","ts":2000.005,"pid":1,"tid":1,"name":"admit","s":"t"},
{"ph":"s","ts":3000.050,"pid":1,"tid":1,"name":"detect chain","id":99},
{"ph":"f","ts":4000.999,"pid":1,"tid":2,"name":"detect chain","id":99,"bp":"e"},
{"ph":"X","ts":5000000.123,"dur":249.877,"pid":0,"tid":0,"name":"coordinator","args":{"offset":-1234567890123}}
],"displayTimeUnit":"ms"}
)json";
    EXPECT_EQ(tracer.toJson(), expected);
}

TEST(ObsTraceTest, WriteFileStreamsTheToJsonBytesAcrossBlocks)
{
    // Several hundred KiB of events plus one thread name longer than a
    // 64 KiB block: the streamed file must equal the in-memory render
    // byte for byte across every block boundary.
    obs::Tracer tracer(3);
    recordPinnedFixture(tracer);
    tracer.replica(2)->setThreadName(7, std::string(70'000, 'n'));
    static const char *const kNames[] = {"batch", "queue wait", "load"};
    for (int i = 0; i < 5000; ++i) {
        const Time start = 1'000'003ll * i + i % 1000;
        tracer.replica(1 + i % 2)->span(
            kNames[i % 3], i % 4, start, start + 997 * (i % 13),
            {"expert", i % 97}, {"size", -i}, {"seq", i});
    }
    const std::string json = tracer.toJson();
    // About ten blocks of text. The pinned size and the intact long
    // name catch a byte dropped or doubled at a block seam, which a
    // writeFile-vs-toJson comparison alone cannot (both share it).
    EXPECT_EQ(json.size(), 659'811u);
    EXPECT_NE(json.find("\"name\":\"" + std::string(70'000, 'n') + "\""),
              std::string::npos);
    const std::string path = tempPath("obs_blocks_trace.json");
    ASSERT_TRUE(tracer.writeFile(path));
    EXPECT_EQ(readFileText(path), json);
    std::remove(path.c_str());
}

/** 64-bit FNV-1a of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14'695'981'039'346'656'037ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1'099'511'628'211ull;
    }
    return h;
}

TEST(ObsTraceTest, StreamedBytesArePinnedAcrossBlockSeams)
{
    // The document of WriteFileStreamsTheToJsonBytesAcrossBlocks,
    // pinned by content as well as size: a byte corrupted where a row
    // crosses a 64 KiB block boundary changes the hash. The hash was
    // recorded from a renderer that wrote every field piecewise, so
    // it does not depend on how rows are split into blocks.
    obs::Tracer tracer(3);
    recordPinnedFixture(tracer);
    tracer.replica(2)->setThreadName(7, std::string(70'000, 'n'));
    static const char *const kNames[] = {"batch", "queue wait", "load"};
    for (int i = 0; i < 5000; ++i) {
        const Time start = 1'000'003ll * i + i % 1000;
        tracer.replica(1 + i % 2)->span(
            kNames[i % 3], i % 4, start, start + 997 * (i % 13),
            {"expert", i % 97}, {"size", -i}, {"seq", i});
    }
    const std::string path = tempPath("obs_seam_pinned_trace.json");
    ASSERT_TRUE(tracer.writeFile(path));
    const std::string text = readFileText(path);
    EXPECT_EQ(text.size(), 659'811u);
    EXPECT_EQ(fnv1a(text), 0xe1cbbe9e9f75b63dull);
    std::remove(path.c_str());
}

TEST(ObsTraceTest, ExportOrderMatchesStableSortOracle)
{
    // Heavy cross-pid ties, out-of-order records within a buffer,
    // negative timestamps and a span of nearly 2^64 ns: the export
    // order must be a stable sort by timestamp of the buffers
    // concatenated in pid order. Every event carries a unique "seq".
    constexpr int kPids = 4;
    obs::Tracer tracer(kPids);
    std::mt19937_64 rng(0x5eed);
    const Time extremes[] = {
        std::numeric_limits<Time>::min(),
        std::numeric_limits<Time>::min() + 999,
        -(Time{1} << 62) - 1,
        -1,
        0,
        Time{1} << 62,
        std::numeric_limits<Time>::max(),
    };
    struct Recorded
    {
        Time ts;
        std::int64_t seq;
    };
    std::vector<Recorded> oracle;
    std::int64_t seq = 0;
    for (int pid = 0; pid < kPids; ++pid) {
        obs::ReplicaTracer *buf = tracer.replica(pid);
        for (int i = 0; i < 3000; ++i) {
            Time ts;
            switch (rng() % 4) {
            case 0: // a handful of shared values: ties across pids
                ts = static_cast<Time>(rng() % 8) * 1000;
                break;
            case 1:
                ts = extremes[rng() % std::size(extremes)];
                break;
            default: // anywhere in a +-1 s window, unordered
                ts = static_cast<Time>(rng() % 2'000'000'000) -
                     1'000'000'000;
                break;
            }
            if (rng() % 2 == 0) {
                buf->instant("tick", pid, ts, {"seq", seq});
            } else {
                // Short spans away from the top of the range, so the
                // end time cannot overflow.
                const Time end =
                    ts < (Time{1} << 62) ? ts + 1 + rng() % 5000 : ts;
                buf->span("work", pid, ts, end, {"pid", pid},
                          {"seq", seq});
            }
            oracle.push_back({ts, seq});
            ++seq;
        }
    }
    std::stable_sort(oracle.begin(), oracle.end(),
                     [](const Recorded &a, const Recorded &b) {
                         return a.ts < b.ts;
                     });

    const std::string json = tracer.toJson();
    std::vector<std::int64_t> exported;
    const std::string key = "\"seq\":";
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
        exported.push_back(std::stoll(json.substr(at + key.size(), 24)));
    }
    ASSERT_EQ(exported.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i)
        ASSERT_EQ(exported[i], oracle[i].seq) << "row " << i;
}

// ------------------------------------------------------- host profile

TEST(ObsHostProfileTest, ExportAccumulatesPerPhaseGauges)
{
    obs::HostProfile prof;
    prof.add("build", 120.0);
    prof.add("build", 80.0);
    prof.add("scheduling", 500.0, 16);

    obs::MetricsRegistry reg;
    prof.exportTo(reg);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.value("host.build_us", -1), 200.0);
    EXPECT_DOUBLE_EQ(snap.value("host.build_calls", -1), 2.0);
    EXPECT_DOUBLE_EQ(snap.value("host.scheduling_us", -1), 500.0);
    EXPECT_DOUBLE_EQ(snap.value("host.scheduling_calls", -1), 16.0);
}

// ---------------------------------------------------- telemetry outputs

/** A Telemetry with all three outputs under @p tag and one of each. */
obs::TelemetryConfig
outputConfig(const std::string &tag)
{
    obs::TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.tracePath = tempPath(tag + "_trace.json");
    cfg.metricsJsonPath = tempPath(tag + "_metrics.json");
    cfg.metricsCsvPath = tempPath(tag + "_metrics.csv");
    return cfg;
}

/** Record a trace event, a counter and a sampler row; then finish. */
bool
finishTelemetry(const obs::TelemetryConfig &cfg,
                obs::MetricsSnapshot &snap)
{
    obs::Telemetry telem(cfg, 1);
    telem.coordinatorTracer()->instant("route", 0, milliseconds(1));
    telem.registry().counter("cluster.images").add(3);
    obs::SampleRow row;
    row.t = telem.nextSampleTime();
    row.images = 3;
    telem.recordSample(row);
    return telem.finish(snap);
}

/** The three output path fields of a TelemetryConfig. */
std::string obs::TelemetryConfig::*const kOutputPaths[] = {
    &obs::TelemetryConfig::tracePath,
    &obs::TelemetryConfig::metricsJsonPath,
    &obs::TelemetryConfig::metricsCsvPath,
};

bool
isCharDevice(const char *path)
{
    struct stat st;
    return ::stat(path, &st) == 0 && S_ISCHR(st.st_mode);
}

TEST(ObsTelemetryOutputTest, FullDeviceFailsFinishWithoutAborting)
{
    if (!isCharDevice("/dev/full"))
        GTEST_SKIP() << "/dev/full is not available";
    for (auto field : kOutputPaths) {
        obs::TelemetryConfig cfg = outputConfig("obs_full");
        cfg.*field = "/dev/full";
        obs::MetricsSnapshot snap;
        // The write lands in the stdio buffer; ENOSPC surfaces only at
        // the final flush, which close must report.
        EXPECT_FALSE(finishTelemetry(cfg, snap)) << cfg.*field;
        EXPECT_DOUBLE_EQ(snap.value("cluster.images", -1), 3.0);
        // A device is written through, never replaced.
        EXPECT_TRUE(isCharDevice("/dev/full"));
        for (auto other : kOutputPaths) {
            if (other != field)
                std::remove((cfg.*other).c_str());
        }
    }
}

TEST(ObsTelemetryOutputTest, SamplerCsvBytesArePinned)
{
    obs::TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.metricsCsvPath = tempPath("obs_pinned_metrics.csv");
    cfg.sampleInterval = 333'333'333;
    obs::Telemetry telem(cfg, 2);
    const double gauges[][3] = {
        {0.1, 1.0 / 3.0, 1e-7},
        {1.2345678901234568e17, 0.0, -0.0},
        {1e300, 0.5, 1.0},
    };
    const std::int64_t counts[][4] = {
        {0, 0, 0, 0},
        {17, 1'234'567'890'123, -5, 9'223'372'036'854'775'807},
        {-9'223'372'036'854'775'807 - 1, 42, 3, 1},
    };
    for (int i = 0; i < 3; ++i) {
        obs::SampleRow row;
        row.t = telem.nextSampleTime();
        row.queueDepth = counts[i][0];
        row.activeReplicas = i;
        row.images = counts[i][1];
        row.inferences = counts[i][2];
        row.goodputImgPerSec = gauges[i][0];
        row.preemptions = counts[i][3];
        row.gpuHitRate = gauges[i][1];
        row.cpuHitRate = gauges[i][2];
        telem.recordSample(row);
    }
    obs::MetricsSnapshot snap;
    ASSERT_TRUE(telem.finish(snap));
    EXPECT_EQ(readFileText(cfg.metricsCsvPath),
              "t_s,queue_depth,active_replicas,images,inferences,"
              "goodput_img_per_s,preemptions,gpu_hit_rate,cpu_hit_rate\n"
              "0.33333333300000001,0,0,0,0,0.10000000000000001,0,"
              "0.33333333333333331,9.9999999999999995e-08\n"
              "0.66666666600000002,17,1,1234567890123,-5,"
              "1.2345678901234568e+17,9223372036854775807,0,-0\n"
              "0.99999999900000003,-9223372036854775808,2,42,3,"
              "1.0000000000000001e+300,1,0.5,1\n");
    std::remove(cfg.metricsCsvPath.c_str());
}

TEST(ObsTelemetryOutputTest, MissingDirectoryFailsFinish)
{
    for (auto field : kOutputPaths) {
        obs::TelemetryConfig cfg = outputConfig("obs_missing");
        cfg.*field = tempPath("obs_no_such_dir/out");
        obs::MetricsSnapshot snap;
        EXPECT_FALSE(finishTelemetry(cfg, snap)) << cfg.*field;
        for (auto other : kOutputPaths) {
            if (other != field)
                std::remove((cfg.*other).c_str());
        }
    }
}

/**
 * @p path's text without the metrics-JSON lines of host.* gauges:
 * those hold wall-clock times (the trace export's among them), which
 * differ between two otherwise identical finishes.
 */
std::string
readOutputText(const std::string &path)
{
    std::istringstream in(readFileText(path));
    std::string text, line;
    while (std::getline(in, line)) {
        if (line.rfind("  \"host.", 0) != 0)
            text += line + '\n';
    }
    return text;
}

TEST(ObsTelemetryOutputTest, ReplacesFilesAndWritesThroughLinks)
{
    // Stale contents longer than any new output: a short write that
    // left a tail behind would show.
    const std::string stale(1 << 16, 'x');
    const auto writeStale = [&stale](const std::string &path) {
        std::ofstream(path, std::ios::binary) << stale;
    };

    // Existing regular files are replaced.
    const obs::TelemetryConfig plain = outputConfig("obs_replace");
    for (auto field : kOutputPaths)
        writeStale(plain.*field);
    obs::MetricsSnapshot snap;
    ASSERT_TRUE(finishTelemetry(plain, snap));
    std::vector<std::string> fresh;
    for (auto field : kOutputPaths) {
        fresh.push_back(readOutputText(plain.*field));
        EXPECT_EQ(fresh.back().find('x'), std::string::npos)
            << plain.*field;
    }
    EXPECT_NE(fresh[0].find("\"route\""), std::string::npos);
    EXPECT_NE(fresh[1].find("\"cluster.images\": 3"),
              std::string::npos);
    EXPECT_EQ(fresh[2].rfind("t_s,", 0), 0u);

    // A symlink is written through: the target gets the new contents
    // and the link stays a link. A hard-linked file is truncated in
    // place, so every name sees the new contents.
    const obs::TelemetryConfig linked = outputConfig("obs_linked");
    std::vector<std::string> targets;
    for (auto field : kOutputPaths) {
        const std::string &path = linked.*field;
        targets.push_back(path + ".target");
        writeStale(targets.back());
        std::remove(path.c_str());
    }
    ASSERT_EQ(::symlink(targets[0].c_str(), linked.tracePath.c_str()), 0);
    ASSERT_EQ(::symlink(targets[2].c_str(),
                        linked.metricsCsvPath.c_str()),
              0);
    ASSERT_EQ(::link(targets[1].c_str(), linked.metricsJsonPath.c_str()),
              0);
    ASSERT_TRUE(finishTelemetry(linked, snap));
    for (std::size_t i = 0; i < targets.size(); ++i)
        EXPECT_EQ(readOutputText(targets[i]), fresh[i]) << targets[i];
    struct stat st;
    ASSERT_EQ(::lstat(linked.tracePath.c_str(), &st), 0);
    EXPECT_TRUE(S_ISLNK(st.st_mode));
    ASSERT_EQ(::lstat(linked.metricsCsvPath.c_str(), &st), 0);
    EXPECT_TRUE(S_ISLNK(st.st_mode));
    ASSERT_EQ(::lstat(linked.metricsJsonPath.c_str(), &st), 0);
    EXPECT_EQ(st.st_nlink, 2u);

    for (auto field : kOutputPaths) {
        std::remove((plain.*field).c_str());
        std::remove((linked.*field).c_str());
    }
    for (const std::string &t : targets)
        std::remove(t.c_str());
}

// ------------------------------------------------------ cluster fixture

class ObsFixture : public ::testing::Test
{
  protected:
    ObsFixture()
        : device_(obsTestDevice()), model_(buildBoard(tinyBoard())),
          ctx_(device_, model_)
    {
        // Same shape as the preempt fixture: a 10x-slower GPU so
        // batches run long enough for deadline rescues, and a DRAM
        // cache tier so checkpoints ride the fast link — the runs
        // below then exercise every counter family at once (switches,
        // preemption, migration, admission).
        TenantSpec interactive;
        interactive.name = "interactive";
        interactive.cls = RequestClass::Interactive;
        interactive.ratePerSec = 4.0;
        interactive.latencyBudget = milliseconds(600);
        TenantSpec batch;
        batch.name = "batch";
        batch.cls = RequestClass::Batch;
        batch.ratePerSec = 10.0;
        batch.latencyBudget = seconds(30);
        batch.arrivals = ArrivalProcess::MMPP;
        batch.mmppBurstFactor = 10.0;
        trace_ = generateSloTrace(model_, {interactive, batch},
                                  seconds(20), 0x7e3);

        const auto [minCount, maxCount] =
            gpuExpertCountBounds(ctx_, 1, 0);
        (void)minCount;
        cfg_ = coserveConfig(
            ctx_, coserveExecutorLayout(ctx_, 1, 0, maxCount),
            "replica");
        cfg_.cpuCacheTier = true;
        cfg_.cpuCacheBytes = 1536ll * 1024 * 1024;
    }

    static DeviceSpec
    obsTestDevice()
    {
        DeviceSpec d = tinyTestDevice();
        d.name = "tiny-slow-compute";
        d.gpu.computeScale = 0.1;
        return d;
    }

    ClusterConfig
    obsConfig(int replicas, bool migration) const
    {
        ClusterConfig cc = homogeneousCluster(
            ctx_, cfg_, replicas, RoutingPolicy::LeastLoaded, "obs");
        cc.onlineRouting = true;
        cc.preemption.enabled = true;
        cc.preemption.minRunQuantum = milliseconds(5);
        cc.preemption.migration = migration;
        cc.preemption.migrationMinRemaining = milliseconds(10);
        if (migration) {
            cc.workStealing.enabled = true;
            cc.workStealing.backlogThreshold = 2;
            cc.workStealing.minBacklog = milliseconds(20);
        }
        return cc;
    }

    /** Online RunOptions with every telemetry output under @p tag. */
    RunOptions
    telemetryOpts(const std::string &tag) const
    {
        RunOptions opts = runWithMode(RunMode::Online);
        opts.telemetry.enabled = true;
        opts.telemetry.tracePath = tempPath(tag + "_trace.json");
        opts.telemetry.metricsJsonPath =
            tempPath(tag + "_metrics.json");
        opts.telemetry.metricsCsvPath = tempPath(tag + "_metrics.csv");
        opts.telemetry.sampleInterval = milliseconds(500);
        return opts;
    }

    static void
    removeOutputs(const RunOptions &opts)
    {
        std::remove(opts.telemetry.tracePath.c_str());
        std::remove(opts.telemetry.metricsJsonPath.c_str());
        std::remove(opts.telemetry.metricsCsvPath.c_str());
    }

    DeviceSpec device_;
    CoEModel model_;
    CoServeContext ctx_;
    EngineConfig cfg_;
    Trace trace_;
};

// ---------------------------------------------------- config validation

TEST_F(ObsFixture, ValidateCoversTelemetryKnobs)
{
    // Output paths without the master switch are refused.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.telemetry.tracePath = "x.json";
    EXPECT_FALSE(obsConfig(2, false).validate(opts).empty());

    // A non-positive sample interval is refused.
    RunOptions bad = runWithMode(RunMode::Online);
    bad.telemetry.enabled = true;
    bad.telemetry.sampleInterval = 0;
    EXPECT_FALSE(obsConfig(2, false).validate(bad).empty());

    // Every run goes through the coordinator, so epoch sampling is
    // valid in static mode too, with or without a fault plan.
    ClusterConfig stat = homogeneousCluster(
        ctx_, cfg_, 2, RoutingPolicy::LeastLoaded);
    RunOptions csv;
    csv.telemetry.enabled = true;
    csv.telemetry.metricsCsvPath = "x.csv";
    EXPECT_TRUE(stat.validate(csv).empty());
    RunOptions faulty = csv;
    faulty.faults.crashes.push_back({1, seconds(1)});
    EXPECT_TRUE(stat.validate(faulty).empty());

    // The fixture's own full-output config is clean.
    EXPECT_TRUE(obsConfig(3, true)
                    .validate(telemetryOpts("obs_validate"))
                    .empty());
}

// -------------------------------------------- on/off schedule identity

TEST_F(ObsFixture, TelemetryOnLeavesScheduleByteIdentical)
{
    ClusterEngine off(obsConfig(3, /*migration=*/true));
    const ClusterResult roff =
        off.run(trace_, runWithMode(RunMode::Online));

    RunOptions on = telemetryOpts("obs_onoff");
    ClusterEngine onEng(obsConfig(3, /*migration=*/true));
    const ClusterResult ron = onEng.run(trace_, on);

    // Tracing and sampling are pure observation: the decision digest
    // (which subsumes every route/steal/preempt choice) and all sim
    // metrics must not move.
    EXPECT_EQ(roff.decisionDigest, ron.decisionDigest);
    EXPECT_EQ(roff.decisionCount, ron.decisionCount);
    EXPECT_EQ(roff.images, ron.images);
    EXPECT_EQ(roff.inferences, ron.inferences);
    EXPECT_EQ(roff.makespan, ron.makespan);
    EXPECT_EQ(roff.eventsExecuted, ron.eventsExecuted);
    EXPECT_EQ(roff.preemptions, ron.preemptions);
    EXPECT_EQ(roff.checkpointBytes, ron.checkpointBytes);
    EXPECT_EQ(roff.migratedGroups, ron.migratedGroups);
    EXPECT_EQ(roff.stolenRequests, ron.stolenRequests);
    EXPECT_GT(ron.preemptions, 0);

    // The rendered reports agree too (wall time is host-side and
    // intentionally not part of summarize()).
    EXPECT_EQ(summarize(roff), summarize(ron));

    // The enabled run wrote its three artifacts.
    EXPECT_FALSE(readFileText(on.telemetry.tracePath).empty());
    EXPECT_FALSE(readFileText(on.telemetry.metricsJsonPath).empty());
    EXPECT_FALSE(readFileText(on.telemetry.metricsCsvPath).empty());
    // The trace write is timed into the host profile.
    EXPECT_NE(ron.metrics.find("host.trace_export_us"), nullptr);
    EXPECT_EQ(roff.metrics.find("host.trace_export_us"), nullptr);
    // The result carries the one snapshot the run wrote as JSON, host
    // gauges included.
    const std::string again = tempPath("obs_onoff_again.json");
    ASSERT_TRUE(ron.metrics.writeJson(again));
    EXPECT_EQ(readFileText(again),
              readFileText(on.telemetry.metricsJsonPath));
    std::remove(again.c_str());
    removeOutputs(on);
}

TEST_F(ObsFixture, TraceJsonIsByteIdenticalAcrossRuns)
{
    RunOptions a = telemetryOpts("obs_rep_a");
    RunOptions b = telemetryOpts("obs_rep_b");
    // Static runs step their replicas on threads between sampler
    // ticks.
    RunOptions c = telemetryOpts("obs_rep_c");
    RunOptions d = telemetryOpts("obs_rep_d");
    c.mode = RunMode::Static;
    d.mode = RunMode::Static;

    ClusterEngine ea(obsConfig(3, true));
    ClusterEngine eb(obsConfig(3, true));
    ClusterEngine ec(obsConfig(3, false));
    ClusterEngine ed(obsConfig(3, false));
    ea.run(trace_, a);
    eb.run(trace_, b);
    ec.run(trace_, c);
    ed.run(trace_, d);

    const std::string traceA = readFileText(a.telemetry.tracePath);
    ASSERT_FALSE(traceA.empty());
    // Same run twice: byte-identical artifact.
    EXPECT_EQ(traceA, readFileText(b.telemetry.tracePath));
    // Spans carry virtual time into per-replica buffers merged in pid
    // order, so host threading cannot reorder the JSON either.
    const std::string traceC = readFileText(c.telemetry.tracePath);
    ASSERT_FALSE(traceC.empty());
    EXPECT_EQ(traceC, readFileText(d.telemetry.tracePath));
    // The sampler observes only virtual-clock state: same rows too.
    const std::string csvA = readFileText(a.telemetry.metricsCsvPath);
    EXPECT_EQ(csvA, readFileText(b.telemetry.metricsCsvPath));
    const std::string csvC = readFileText(c.telemetry.metricsCsvPath);
    ASSERT_FALSE(csvC.empty());
    EXPECT_EQ(csvC, readFileText(d.telemetry.metricsCsvPath));

    // Trace schema essentials survive end-to-end.
    for (const char *field : {"\"traceEvents\"", "\"ph\"", "\"ts\"",
                              "\"pid\"", "\"tid\"", "\"name\""})
        EXPECT_NE(traceA.find(field), std::string::npos) << field;
    // Lifecycle spans from both sides of the coordinator.
    for (const char *name :
         {"\"queue wait\"", "\"batch\"", "\"route\"", "\"coordinator\""})
        EXPECT_NE(traceA.find(name), std::string::npos) << name;

    removeOutputs(a);
    removeOutputs(b);
    removeOutputs(c);
    removeOutputs(d);
}

/**
 * The decoded strings of one JSON object row, in order, as a strict
 * parser (Python's json.load, which tools/check_trace.py uses) reads
 * them. Fails the test on a raw control character or an unknown
 * escape inside a string, or on braces that do not balance.
 */
std::vector<std::string>
jsonRowStrings(const std::string &row)
{
    std::vector<std::string> out;
    int depth = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] == '{')
            ++depth;
        else if (row[i] == '}')
            --depth;
        if (row[i] != '"')
            continue;
        std::string s;
        for (++i; i < row.size() && row[i] != '"'; ++i) {
            const auto c = static_cast<unsigned char>(row[i]);
            EXPECT_GE(c, 0x20u) << "raw control byte in " << row;
            if (c != '\\') {
                s += row[i];
                continue;
            }
            const char e = row[++i];
            switch (e) {
            case '"':
            case '\\':
            case '/':
                s += e;
                break;
            case 'b':
                s += '\b';
                break;
            case 'f':
                s += '\f';
                break;
            case 'n':
                s += '\n';
                break;
            case 'r':
                s += '\r';
                break;
            case 't':
                s += '\t';
                break;
            case 'u':
                s += static_cast<char>(std::stoi(row.substr(i + 1, 4),
                                                 nullptr, 16));
                i += 4;
                break;
            default:
                ADD_FAILURE() << "bad escape \\" << e << " in " << row;
            }
        }
        EXPECT_LT(i, row.size()) << "unterminated string in " << row;
        out.push_back(s);
    }
    EXPECT_EQ(depth, 0) << row;
    return out;
}

TEST_F(ObsFixture, LabelWithJsonSpecialsRoundTripsThroughTheTrace)
{
    // Process names come from the user's cluster label; quotes,
    // backslashes and control characters in it must be escaped, or
    // the trace is not JSON.
    const std::string label = "obs \"q\" \\ back\nline\ttab\x01\x1f end";
    ClusterConfig cc = obsConfig(2, false);
    cc.label = label;
    RunOptions opts = runWithMode(RunMode::Online);
    opts.telemetry.enabled = true;
    opts.telemetry.tracePath = tempPath("obs_label_trace.json");
    ClusterEngine(cc).run(trace_, opts);

    std::istringstream in(readFileText(opts.telemetry.tracePath));
    std::vector<std::string> processNames;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("{\"ph\":\"M\"", 0) != 0)
            continue;
        const std::vector<std::string> strings = jsonRowStrings(line);
        ASSERT_GE(strings.size(), 4u) << line;
        if (strings[strings.size() - 4] == "process_name")
            processNames.push_back(strings.back());
    }
    EXPECT_EQ(processNames,
              (std::vector<std::string>{"coordinator",
                                        label + "/replica0",
                                        label + "/replica1"}));
    std::remove(opts.telemetry.tracePath.c_str());
}

TEST_F(ObsFixture, StaticPreemptionDigestIgnoresSamplerCuts)
{
    // Deadline rescues on static replicas are decisions too. Sampler
    // ticks cut a threaded static run into segments; wherever they
    // fall, the decision stream must be the one the unsampled run
    // notes, or a recording made with telemetry off would not replay
    // with it on. The straggler variant runs in lockstep.
    for (const bool straggler : {false, true}) {
        RunOptions plain = runWithMode(RunMode::Static);
        if (straggler) {
            plain.faults.stragglers.push_back(
                {1, seconds(2), seconds(8), 3.0});
        }
        ClusterEngine unsampled(obsConfig(3, false));
        const ClusterResult a = unsampled.run(trace_, plain);
        EXPECT_GT(a.preemptions, 0);

        RunOptions sampled = plain;
        sampled.telemetry.enabled = true;
        sampled.telemetry.sampleInterval = milliseconds(7);
        sampled.telemetry.metricsCsvPath =
            tempPath("obs_static_cuts.csv");
        ClusterEngine cut(obsConfig(3, false));
        const ClusterResult b = cut.run(trace_, sampled);
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_EQ(a.decisionCount, b.decisionCount);
        EXPECT_EQ(a.decisionDigest, b.decisionDigest);
        EXPECT_EQ(a.makespan, b.makespan);
        std::remove(sampled.telemetry.metricsCsvPath.c_str());
    }
}

// ------------------------------------------------------ reconciliation

TEST_F(ObsFixture, SnapshotReconcilesWithLegacyCounters)
{
    // Crash + migration exercises every counter family at once. The
    // registry is filled at collection even with telemetry off — the
    // snapshot rides every ClusterResult.
    RunOptions opts = runWithMode(RunMode::Online);
    opts.faults.crashes.push_back(
        {1, trace_.arrivals[trace_.size() / 2].time});
    ClusterEngine cluster(obsConfig(3, /*migration=*/true));
    const ClusterResult r = cluster.run(trace_, opts);
    ASSERT_FALSE(r.metrics.empty());

    const auto counter = [&](const char *name) {
        return static_cast<std::int64_t>(r.metrics.value(name, -1));
    };
    // Engine-family counters vs. the aggregated result fields.
    EXPECT_EQ(counter("cluster.images"), r.images);
    EXPECT_EQ(counter("cluster.inferences"), r.inferences);
    EXPECT_EQ(counter("switch.loads_ssd"), r.switches.loadsFromSsd);
    EXPECT_EQ(counter("switch.loads_cache"), r.switches.loadsFromCache);
    EXPECT_EQ(counter("switch.prefetch_loads"),
              r.switches.prefetchLoads);
    EXPECT_EQ(counter("switch.evictions"), r.switches.evictions);
    EXPECT_EQ(counter("switch.demotions"), r.switches.demotions);
    EXPECT_EQ(counter("switch.bytes_loaded"), r.switches.bytesLoaded);
    EXPECT_EQ(counter("preempt.rescues"), r.preemptions);
    EXPECT_EQ(counter("preempt.checkpointed_groups"),
              r.checkpointedGroups);
    EXPECT_EQ(counter("preempt.restored_groups"), r.restoredGroups);
    EXPECT_EQ(counter("preempt.checkpoint_bytes"), r.checkpointBytes);
    // Coordinator-family counters.
    EXPECT_EQ(counter("cluster.stolen_requests"), r.stolenRequests);
    EXPECT_EQ(counter("cluster.migrated_groups"), r.migratedGroups);
    EXPECT_EQ(counter("cluster.migrated_requests"),
              r.migratedRequests);
    EXPECT_EQ(counter("cluster.crashes"), r.crashesInjected);
    EXPECT_EQ(counter("cluster.crash_rehomed"), r.crashRehomed);
    EXPECT_EQ(counter("cluster.crash_lost"), r.crashLost);
    // Derived gauges exported at collection time.
    EXPECT_DOUBLE_EQ(r.metrics.value("cluster.throughput", -1),
                     r.throughput);
    EXPECT_DOUBLE_EQ(r.metrics.value("cluster.makespan_ns", -1),
                     static_cast<double>(r.makespan));
    EXPECT_DOUBLE_EQ(r.metrics.value("cluster.decision_count", -1),
                     static_cast<double>(r.decisionCount));
    EXPECT_DOUBLE_EQ(r.metrics.value("slo.rejected", -1),
                     static_cast<double>(r.slo.rejected()));
    EXPECT_DOUBLE_EQ(r.metrics.value("slo.goodput_img_per_s", -1),
                     r.slo.goodput(r.makespan));
    // Per-tier gauges (gpu pool is always present).
    bool sawTier = false;
    for (const TierStats &t : r.tiers) {
        const std::string p = "tier." + t.name + ".";
        if (r.metrics.find(p + "hits") == nullptr)
            continue;
        sawTier = true;
        EXPECT_DOUBLE_EQ(r.metrics.value(p + "hits", -1),
                         static_cast<double>(t.counters.hits))
            << t.name;
        EXPECT_DOUBLE_EQ(r.metrics.value(p + "hit_rate", -1),
                         t.hitRate())
            << t.name;
    }
    EXPECT_TRUE(sawTier);
    // Host-profile gauges exist (values are wall-clock, not asserted).
    EXPECT_NE(r.metrics.find("host.coordinate_us"), nullptr);
    EXPECT_NE(r.metrics.find("host.build_us"), nullptr);
    // The run actually exercised what the test claims it did.
    EXPECT_GT(r.preemptions, 0);
    EXPECT_GT(r.migratedGroups, 0);
    EXPECT_EQ(r.crashesInjected, 1);

    // A clean static run: every engine-family counter is exported
    // from its struct field, and the coordinator family has the same
    // key set as above, all zero.
    ClusterEngine stat(obsConfig(3, /*migration=*/false));
    const ClusterResult s =
        stat.run(trace_, runWithMode(RunMode::Static));
    const std::pair<const char *, std::int64_t> engineFamily[] = {
        {"cluster.images", s.images},
        {"cluster.inferences", s.inferences},
        {"switch.loads_ssd", s.switches.loadsFromSsd},
        {"switch.loads_cache", s.switches.loadsFromCache},
        {"switch.prefetch_loads", s.switches.prefetchLoads},
        {"switch.evictions", s.switches.evictions},
        {"switch.demotions", s.switches.demotions},
        {"switch.bytes_loaded", s.switches.bytesLoaded},
        {"preempt.rescues", s.preemptions},
        {"preempt.checkpointed_groups", s.checkpointedGroups},
        {"preempt.restored_groups", s.restoredGroups},
        {"preempt.checkpoint_bytes", s.checkpointBytes},
    };
    for (const auto &[name, value] : engineFamily) {
        const obs::MetricSample *m = s.metrics.find(name);
        ASSERT_NE(m, nullptr) << name;
        EXPECT_EQ(m->kind, "counter") << name;
        EXPECT_EQ(static_cast<std::int64_t>(m->value), value) << name;
    }
    for (const char *name :
         {"cluster.stolen_requests", "cluster.migrated_groups",
          "cluster.migrated_requests", "cluster.autoscale_activations",
          "cluster.autoscale_quiesces", "cluster.autoscale_evacuated",
          "cluster.quiesce_drains", "cluster.rejected",
          "cluster.downgraded", "cluster.crashes",
          "cluster.crash_rehomed", "cluster.crash_lost",
          "cluster.stragglers", "cluster.brownouts"}) {
        const obs::MetricSample *m = s.metrics.find(name);
        ASSERT_NE(m, nullptr) << name;
        EXPECT_EQ(m->value, 0.0) << name;
        EXPECT_NE(r.metrics.find(name), nullptr) << name;
    }
    EXPECT_GT(s.images, 0);
    EXPECT_GT(s.preemptions, 0);
}

// ------------------------------------------------------- epoch sampler

TEST_F(ObsFixture, EpochSamplerWritesMonotonicCsv)
{
    RunOptions on = telemetryOpts("obs_sampler");
    ClusterEngine cluster(obsConfig(3, /*migration=*/true));
    const ClusterResult r = cluster.run(trace_, on);

    std::ifstream in(on.telemetry.metricsCsvPath);
    ASSERT_TRUE(in);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header,
              "t_s,queue_depth,active_replicas,images,inferences,"
              "goodput_img_per_s,preemptions,gpu_hit_rate,"
              "cpu_hit_rate");

    double prevT = 0.0;
    std::int64_t lastImages = 0, lastPreempts = 0;
    int rows = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string cell;
        std::vector<std::string> cells;
        while (std::getline(ls, cell, ','))
            cells.push_back(cell);
        ASSERT_EQ(cells.size(), 9u) << line;
        const double t = std::stod(cells[0]);
        EXPECT_GT(t, prevT) << "sample times must advance";
        prevT = t;
        const int active = std::stoi(cells[2]);
        EXPECT_GE(active, 0);
        EXPECT_LE(active, 3);
        const std::int64_t images = std::stoll(cells[3]);
        EXPECT_GE(images, lastImages) << "images are cumulative";
        lastImages = images;
        lastPreempts = std::stoll(cells[6]);
        const double gpuHit = std::stod(cells[7]);
        EXPECT_GE(gpuHit, 0.0);
        EXPECT_LE(gpuHit, 1.0);
        ++rows;
    }
    // 20 s of trace sampled at 500 ms: the series is dense, cumulative
    // columns end at (or just below) the final totals.
    EXPECT_GE(rows, 30);
    EXPECT_LE(lastImages, r.images);
    EXPECT_GE(lastImages, r.images / 2);
    EXPECT_LE(lastPreempts, r.preemptions);
    removeOutputs(on);
}

} // namespace
} // namespace coserve
