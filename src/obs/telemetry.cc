#include "obs/telemetry.h"

#include <charconv>
#include <cstdio>

#include "util/output_file.h"
#include "util/strutil.h"
#include "util/walltime.h"

namespace coserve::obs {

void
HostProfile::exportTo(MetricsRegistry &registry) const
{
    for (const auto &kv : phases_) {
        registry.gauge("host." + kv.first + "_us").set(kv.second.us);
        registry.gauge("host." + kv.first + "_calls")
            .set(static_cast<double>(kv.second.count));
    }
}

Telemetry::Telemetry(const TelemetryConfig &cfg, int numReplicas)
    : cfg_(cfg)
{
    if (cfg_.enabled)
        tracer_ = std::make_unique<Tracer>(numReplicas + 1);
    if (samplingEnabled())
        nextSample_ = cfg_.sampleInterval;
}

ReplicaTracer *
Telemetry::replicaTracer(int i)
{
    return tracer_ ? tracer_->replica(i + 1) : nullptr;
}

ReplicaTracer *
Telemetry::coordinatorTracer()
{
    return tracer_ ? tracer_->replica(0) : nullptr;
}

void
Telemetry::recordSample(const SampleRow &row)
{
    samples_.push_back(row);
    nextSample_ += cfg_.sampleInterval;
}

namespace {

char *
putInt(char *p, std::int64_t v)
{
    return std::to_chars(p, p + 20, v).ptr;
}

/** Write the sampler rows as CSV; @return false on any file error. */
bool
writeSamplesCsv(const std::string &path,
                const std::vector<SampleRow> &samples)
{
    OutputFile out(path);
    std::FILE *f = out.get();
    if (!f)
        return false;
    static constexpr char kHeader[] =
        "t_s,queue_depth,active_replicas,images,inferences,"
        "goodput_img_per_s,preemptions,gpu_hit_rate,cpu_hit_rate\n";
    std::fwrite(kHeader, 1, sizeof(kHeader) - 1, f);
    // Four doubles, five integers, eight commas and a newline.
    char line[4 * kMaxG17Chars + 5 * 20 + 9];
    for (const SampleRow &s : samples) {
        char *p = putG17(line, toSeconds(s.t));
        *p++ = ',';
        p = putInt(p, s.queueDepth);
        *p++ = ',';
        p = putInt(p, s.activeReplicas);
        *p++ = ',';
        p = putInt(p, s.images);
        *p++ = ',';
        p = putInt(p, s.inferences);
        *p++ = ',';
        p = putG17(p, s.goodputImgPerSec);
        *p++ = ',';
        p = putInt(p, s.preemptions);
        *p++ = ',';
        p = putG17(p, s.gpuHitRate);
        *p++ = ',';
        p = putG17(p, s.cpuHitRate);
        *p++ = '\n';
        std::fwrite(line, 1, static_cast<std::size_t>(p - line), f);
    }
    return out.close();
}

} // namespace

bool
Telemetry::finish(MetricsSnapshot &snapshot)
{
    bool ok = true;
    // The trace goes first, so that its export time is in the host
    // profile that the snapshot and the metrics JSON carry.
    if (tracer_ && !cfg_.tracePath.empty()) {
        const WallTimer exportWall;
        ok = tracer_->writeFile(cfg_.tracePath);
        host_.add("trace_export", exportWall.elapsedMicros());
    }
    host_.exportTo(registry_);
    snapshot = registry_.snapshot();
    if (cfg_.enabled && !cfg_.metricsJsonPath.empty())
        ok = snapshot.writeJson(cfg_.metricsJsonPath) && ok;
    if (samplingEnabled())
        ok = writeSamplesCsv(cfg_.metricsCsvPath, samples_) && ok;
    return ok;
}

} // namespace coserve::obs
