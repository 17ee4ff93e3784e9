/**
 * @file
 * coebench: runs one workload of the same-host benchmark.
 *
 *   coebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
 *
 * Sets the workload up kSetups times (reporting the median set-up time),
 * then makes serve calls for S seconds of wall time. Untraced runs
 * report the end-to-end metrics; traced runs interleave untraced and
 * traced serve calls and report the per-layer metrics. Every serve
 * call's simulated answer must equal the first one's and conserve its
 * arrivals (see aggregate.h). The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics", "trace_json"}.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "aggregate.h"
#include "calibration.h"
#include "spans.h"
#include "workloads.h"

using namespace coebench;

namespace {

struct Args
{
    WorkloadKind workload = WorkloadKind::EngineLine;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "coebench: %s\nusage: coebench --workload "
                 "engine_line|static_4x|online_slo|preempt_traced "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h")
            usage("run one workload and report its metrics");
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            if (!parseWorkload(v, a.workload))
                usage(("unknown workload " + v).c_str());
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = std::stoull(v);
        } else if (flag == "--seconds") {
            a.seconds = std::stod(v);
        } else if (flag == "--trace") {
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.outDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (a.seconds <= 0.0)
        usage("--seconds must be positive");
    return a;
}

/** Ordered (name, value, unit) list printed and emitted as JSON. */
class MetricList
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        rows_.push_back({name, value, unit});
        std::printf("  %-28s %16.6f %-6s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[96];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
            out += (i ? ", \"" : "\"") + rows_[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   rows_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/** One serve call's record: its answer and host timings. */
struct Call
{
    Answer answer;
    HostSample host;
    /** Reference kernel time around the call (mean of before/after). */
    double refS = 0.0;
};

/** Reference kernel time now: the mean of two back-to-back runs. */
double
referenceNow()
{
    return 0.5 * (referenceKernelSeconds() + referenceKernelSeconds());
}

std::vector<double>
collect(const std::vector<Call> &calls, double (*f)(const Call &))
{
    std::vector<double> xs;
    xs.reserve(calls.size());
    for (const Call &c : calls)
        xs.push_back(f(c));
    return xs;
}

double
hostUs(const Call &c, const char *phase)
{
    const auto it = c.host.hostUs.find(phase);
    return it == c.host.hostUs.end() ? 0.0 : it->second;
}

double
spanSelfUs(const Call &c, const char *name)
{
    const auto it = c.host.spans.find(name);
    return it == c.host.spans.end()
               ? 0.0
               : static_cast<double>(it->second.selfNs) * 1e-3;
}

double
spanCalls(const Call &c, const char *name)
{
    const auto it = c.host.spans.find(name);
    return it == c.host.spans.end()
               ? 0.0
               : static_cast<double>(it->second.calls);
}

/** Raw wall time per simulated arrival, microseconds. */
double
rawUsPerRequest(const Call &c)
{
    return c.host.wallS * 1e6 / static_cast<double>(c.answer.arrivals);
}

/** Wall time per arrival scaled to the reference speed (see
 *  calibration.h), microseconds. */
double
usPerRequest(const Call &c)
{
    return rawUsPerRequest(c) * kReferenceKernelSeconds / c.refS;
}

/** Spans kept for the output file; later calls are folded into totals
 *  and dropped, which bounds memory on long traced runs. */
constexpr std::size_t kSpanCap = 1u << 16;

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const char *name = workloadName(args.workload);
    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "coebench: cannot create %s\n",
                     args.outDir.c_str());
        return 1;
    }

    try {
        // ---------------------------------------------------- set-up
        // Each set-up is bracketed by the reference kernel; setup_s is
        // the median of the set-ups' totals scaled to its speed.
        std::vector<SetupTimes> setups;
        std::vector<double> scaledSetupS;
        std::unique_ptr<Workload> wl;
        for (int i = 0; i < kSetups; ++i) {
            wl.reset();
            SetupTimes t;
            const double before = referenceNow();
            wl = Workload::setUp(args.workload, args.seed, args.outDir, t);
            const double ref = 0.5 * (before + referenceNow());
            setups.push_back(t);
            scaledSetupS.push_back(t.total() * kReferenceKernelSeconds / ref);
        }
        const auto setupMedian = [&setups](double (*f)(const SetupTimes &)) {
            std::vector<double> xs;
            for (const SetupTimes &t : setups)
                xs.push_back(f(t));
            return median(xs);
        };

        // ---------------------------------------------------- serving
        // Calls cycle through the parts; the first `parts` calls (one
        // round) give the pooled simulated answer, and every later
        // call must reproduce its part's answer exactly.
        const std::size_t parts = partsOf(args.workload);
        CheckLedger ledger;
        std::vector<Call> plain, traced;
        SpanRecorder rec;
        const auto serveOnce = [&](std::size_t part, bool withSpans) {
            std::vector<Call> &into = withSpans ? traced : plain;
            SpanRecorder *r = withSpans ? &rec : nullptr;
            const std::size_t mark = rec.spans().size();
            rec.setRun(static_cast<std::int32_t>(plain.size() +
                                                 traced.size()));
            Call c;
            const double before = referenceNow();
            c.answer = wl->serve(part, r, c.host);
            c.refS = 0.5 * (before + referenceNow());
            if (withSpans) {
                c.host.spans = totalsByName(rec.spans(), mark);
                if (rec.spans().size() > kSpanCap)
                    rec.truncate(mark);
            }
            // Traced and untraced calls on a part share one reference,
            // so tracing that moved the answer fails here too.
            ledger.record(part, c.answer.arrivals, c.answer.conserved(),
                          c.answer.fingerprint());
            if (into.size() >= parts) {
                // Only the first round's samples are pooled.
                c.answer.latencyMs.clear();
                c.answer.latencyMs.shrink_to_fit();
            }
            into.push_back(std::move(c));
        };
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
        while (nowNs() < deadline || plain.size() < parts) {
            const std::size_t part = plain.size() % parts;
            serveOnce(part, false);
            // A traced call on the same part follows each untraced one,
            // so both see the same host conditions.
            if (args.trace)
                serveOnce(part, true);
        }
        const double rssMb = peakRssMb();

        std::string spanFile;
        if (args.trace) {
            spanFile = args.outDir + "/" + name + "_spans.json";
            if (!rec.writeJson(spanFile))
                ledger.failAll("cannot write " + spanFile);
        }

        Answer a;
        for (std::size_t i = 0; i < parts; ++i)
            a.merge(plain[i].answer);

        std::printf("coebench %s seed=%llu trace=%d: %zu untraced + %zu "
                    "traced serve calls over %zu parts\n",
                    name, static_cast<unsigned long long>(args.seed),
                    args.trace ? 1 : 0, plain.size(), traced.size(),
                    parts);
        std::printf("  pooled answer fingerprint %016llx, decision digest "
                    "%016llx\n",
                    static_cast<unsigned long long>(a.fingerprint()),
                    static_cast<unsigned long long>(a.digest));
        std::printf("  attempted %lld arrivals, failed %lld; per round: "
                    "%lld arrivals, %lld images, %lld rejected, "
                    "%lld crash-lost\n",
                    static_cast<long long>(ledger.attempted()),
                    static_cast<long long>(ledger.failed()),
                    static_cast<long long>(a.arrivals),
                    static_cast<long long>(a.images),
                    static_cast<long long>(a.rejected),
                    static_cast<long long>(a.crashLost));
        for (const std::string &p : ledger.problems())
            std::printf("  CHECK FAILED: %s\n", p.c_str());

        // Host times: median over serve calls. Counts: totals over one
        // round (all parts). Ratios: from the round's pooled sums.
        const auto perCall = [](const std::vector<Call> &calls,
                                double (*f)(const Call &)) {
            return median(collect(calls, f));
        };
        const auto roundSum = [parts](const std::vector<Call> &calls,
                                 double (*f)(const Call &)) {
            double sum = 0.0;
            for (std::size_t i = 0; i < parts && i < calls.size(); ++i)
                sum += f(calls[i]);
            return sum;
        };
        const auto count = [](std::int64_t n) {
            return static_cast<double>(n);
        };
        // The simulated answer, printed by both kinds of run so the
        // traced run can be compared with the untraced one.
        std::vector<double> partP99;
        for (std::size_t i = 0; i < parts; ++i)
            partP99.push_back(plain[i].answer.latencyPercentile(99.0));
        const double p50 = a.latencyPercentile(50.0);
        // The p99 of a pooled set is set by its few worst traces; report
        // the typical part's p99 instead.
        const double p99 = median(partP99);
        std::printf("  sim: %.17g img/s, goodput %.17g img/s, p50 %.17g ms "
                    "and p99 %.17g ms (%zu requests over %zu parts), "
                    "served %lld of %lld arrivals\n",
                    a.throughput(), a.goodput(), p50, p99,
                    a.latencyMs.size(), parts,
                    static_cast<long long>(a.images),
                    static_cast<long long>(a.arrivals));

        MetricList m;
        const double plainUs = perCall(plain, usPerRequest);
        if (!args.trace) {
            m.add("setup_s", median(scaledSetupS), "s",
                  "median of " + std::to_string(setups.size()) +
                      ", reference-scaled; raw " +
                      std::to_string(setupMedian([](const SetupTimes &t) {
                          return t.total();
                      })));
            m.add("host_us_per_request", plainUs, "us",
                  "median of " + std::to_string(plain.size()) +
                      " calls, reference-scaled; raw " +
                      std::to_string(perCall(plain, rawUsPerRequest)));
            m.add("peak_rss_mb", rssMb, "MB");
            m.add("sim_throughput_img_s", a.throughput(), "img/s");
            m.add("sim_goodput_img_s", a.goodput(), "img/s");
            m.add("sim_p50_latency_ms", p50, "ms", "(pooled)");
            m.add("sim_p99_latency_ms", p99, "ms",
                  "(median over parts of each part's p99)");
            m.add("sim_served_share", a.servedShare(), "share",
                  "(" + std::to_string(a.arrivals - a.images) +
                      " arrivals rejected or crash-lost)");
        } else {
            const bool cluster = args.workload != WorkloadKind::EngineLine;
            m.add("sim.events", count(a.events), "count");
            m.add("sim.events_per_s", perCall(plain, [](const Call &c) {
                      return static_cast<double>(c.answer.events) /
                             c.host.wallS;
                  }),
                  "1/s");
            m.add("core.profile_s", setupMedian([](const SetupTimes &t) {
                      return t.profileS;
                  }),
                  "s");
            m.add("core.plan_memory_s", setupMedian([](const SetupTimes &t) {
                      return t.planMemoryS;
                  }),
                  "s");
            m.add("core.dispatch_calls", roundSum(traced, [](const Call &c) {
                      return spanCalls(c, "Scheduler::dispatch");
                  }),
                  "count");
            m.add("core.dispatch_self_us", perCall(traced, [](const Call &c) {
                      return spanSelfUs(c, "Scheduler::dispatch");
                  }),
                  "us");
            m.add("core.sched_sampled_us", perCall(plain, [](const Call &c) {
                      return hostUs(c, "scheduling_us");
                  }),
                  "us", "(1-in-16 sampled dispatch time)");
            m.add("runtime.evict_calls", roundSum(traced, [](const Call &c) {
                      return spanCalls(c, "EvictionPolicy::selectVictim");
                  }),
                  "count");
            m.add("runtime.evict_self_us", perCall(traced, [](const Call &c) {
                      return spanSelfUs(c, "EvictionPolicy::selectVictim");
                  }),
                  "us");
            m.add("runtime.engine_self_us", perCall(traced, [](const Call &c) {
                      return spanSelfUs(c, "ServingEngine::run");
                  }),
                  "us");
            m.add("runtime.switches_per_image", a.switchesPerImage(),
                  "ratio");
            m.add("runtime.gpu_hit_rate", a.gpuHitRate(), "ratio");
            m.add("runtime.cpu_hit_rate", a.cpuHitRate(), "ratio");
            m.add("runtime.evictions", count(a.evictions), "count");
            m.add("runtime.load_stall_ms", a.loadStallMs, "ms");
            m.add("runtime.avg_batch_size", a.avgBatchSize(), "count");
            m.add("runtime.busy_share", a.busyShare(), "ratio");
            m.add("cluster.route_us", perCall(traced, [](const Call &c) {
                      return spanSelfUs(c, "ClusterEngine::routeTrace");
                  }),
                  "us");
            m.add("cluster.replica_run_us", perCall(plain, [](const Call &c) {
                      return hostUs(c, "replica_run_us");
                  }),
                  "us");
            m.add("cluster.parallel_speedup",
                  perCall(plain,
                          [](const Call &c) {
                              return c.host.cpuS / c.host.wallS;
                          }),
                  "ratio", "(process CPU / wall over the serve call)");
            m.add("cluster.build_us", perCall(plain, [](const Call &c) {
                      return hostUs(c, "build_us");
                  }),
                  "us");
            m.add("cluster.coordinate_us", perCall(plain, [](const Call &c) {
                      return hostUs(c, "coordinate_us");
                  }),
                  "us");
            m.add("cluster.collect_us", perCall(plain, [](const Call &c) {
                      return hostUs(c, "collect_us");
                  }),
                  "us");
            m.add("cluster.decisions", count(a.decisions), "count");
            m.add("cluster.stolen_requests", count(a.stolen), "count");
            m.add("cluster.autoscale_actions", count(a.autoscaleActions),
                  "count");
            m.add("cluster.avg_active_replicas",
                  cluster ? a.avgActiveReplicas() : 0.0, "count");
            m.add("cluster.imbalance", a.imbalance(), "ratio");
            m.add("slo.rejected", count(a.rejected), "count");
            m.add("slo.downgraded", count(a.downgraded), "count");
            m.add("slo.violation_rate", a.violationRate(), "ratio");
            m.add("preempt.rescues", count(a.rescues), "count");
            m.add("preempt.checkpoint_mb",
                  static_cast<double>(a.checkpointBytes) * 1e-6, "MB");
            m.add("preempt.migrated_groups", count(a.migratedGroups),
                  "count");
            m.add("preempt.restored_groups", count(a.restoredGroups),
                  "count");
            m.add("replay.crash_rehomed", count(a.crashRehomed), "count");
            m.add("replay.crash_lost", count(a.crashLost), "count");
            m.add("obs.export_us",
                  cluster ? perCall(plain,
                                    [](const Call &c) {
                                        return (c.host.wallS -
                                                c.host.innerWallS) *
                                               1e6;
                                    })
                          : 0.0,
                  "us", "(serve call minus ClusterResult::wallSeconds)");
            m.add("obs.trace_mb", perCall(plain, [](const Call &c) {
                      return c.host.traceMb;
                  }),
                  "MB");
            m.add("workload.generate_s",
                  setupMedian([](const SetupTimes &t) { return t.generateS; }),
                  "s");
            m.add("coe.build_board_s", setupMedian([](const SetupTimes &t) {
                      return t.buildBoardS;
                  }),
                  "s");
            // Each traced call follows an untraced call on the same part.
            std::vector<double> overhead;
            for (std::size_t i = 0; i < traced.size(); ++i)
                overhead.push_back(
                    (usPerRequest(traced[i]) / usPerRequest(plain[i]) - 1.0) *
                    100.0);
            m.add("bench.trace_overhead", median(overhead), "%",
                  "(traced vs untraced host_us_per_request, paired)");
            m.add("bench.raw_us_per_request", perCall(plain, rawUsPerRequest),
                  "us", "(untraced, not reference-scaled)");
            m.add("bench.ref_kernel_ms", perCall(plain, [](const Call &c) {
                      return c.refS * 1e3;
                  }),
                  "ms", "(reference kernel time around the calls)");
        }

        std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": "
                    "%lld, \"metrics\": %s, \"trace_json\": \"%s\"}\n",
                    ledger.correct() ? "true" : "false",
                    static_cast<long long>(ledger.attempted()),
                    static_cast<long long>(ledger.failed()),
                    m.json().c_str(), wl->traceFile().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "coebench: %s\n", e.what());
        return 1;
    }
}
