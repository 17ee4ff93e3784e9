#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "core/scheduler.h"
#include "metrics/report.h"
#include "replay/decision_log.h"
#include "slo/admission.h"
#include "util/logging.h"
#include "util/walltime.h"

namespace coserve {

namespace {

/** One scheduled fault application, flattened from a FaultPlan. */
struct FaultAction
{
    Time time = 0;
    DecisionKind kind = DecisionKind::Crash;
    std::size_t replica = 0;
    /** Straggler slowdown / brownout bandwidth factor. */
    double factor = 1.0;
};

/** Factor encoded in parts-per-million for decision records. */
std::uint64_t
ppm(double factor)
{
    return static_cast<std::uint64_t>(std::llround(factor * 1e6));
}

/** The decision record of replica @p i's preemption event @p ev. */
DecisionRecord
preemptRecord(std::size_t i, const PreemptEvent &ev)
{
    DecisionKind kind = DecisionKind::Preempt;
    if (ev.what == PreemptEvent::What::Checkpoint)
        kind = DecisionKind::Checkpoint;
    else if (ev.what == PreemptEvent::What::Restore)
        kind = DecisionKind::Restore;
    return {ev.time, kind, i, static_cast<std::uint64_t>(ev.executor),
            ev.count};
}

/**
 * Flatten a plan into one virtual-time-ordered action list. Same-time
 * actions order by (kind, replica), so the schedule — and therefore
 * the decision digest — is independent of the plan's vector order.
 */
std::vector<FaultAction>
flattenFaults(const FaultPlan &plan)
{
    std::vector<FaultAction> out;
    for (const ReplicaCrash &c : plan.crashes)
        out.push_back({c.at, DecisionKind::Crash, c.replica, 0.0});
    for (const Straggler &s : plan.stragglers) {
        out.push_back(
            {s.from, DecisionKind::StragglerOn, s.replica, s.slowdown});
        out.push_back(
            {s.to, DecisionKind::StragglerOff, s.replica, 1.0});
    }
    for (const StorageBrownout &b : plan.brownouts) {
        out.push_back(
            {b.from, DecisionKind::BrownoutOn, b.replica, b.factor});
        out.push_back(
            {b.to, DecisionKind::BrownoutOff, b.replica, 1.0});
    }
    std::sort(out.begin(), out.end(),
              [](const FaultAction &x, const FaultAction &y) {
                  if (x.time != y.time)
                      return x.time < y.time;
                  if (x.kind != y.kind)
                      return x.kind < y.kind;
                  return x.replica < y.replica;
              });
    return out;
}

/** Report interval-window problems of [from, to) fault windows. */
template <typename W>
void
checkWindows(const std::vector<W> &windows, std::size_t n,
             const char *what, std::vector<std::string> &errors)
{
    for (const W &w : windows) {
        if (w.replica >= n) {
            errors.push_back(std::string("fault plan: ") + what +
                             " replica " + std::to_string(w.replica) +
                             " out of range (cluster has " +
                             std::to_string(n) + ")");
        }
        if (w.from < 0 || w.to <= w.from) {
            errors.push_back(std::string("fault plan: ") + what +
                             " window [" + std::to_string(w.from) +
                             ", " + std::to_string(w.to) +
                             ") must be ordered and non-negative");
        }
    }
    // Overlapping windows on one replica would restore full speed at
    // the first window's end, silently truncating the second.
    std::vector<std::pair<std::size_t, std::pair<Time, Time>>> spans;
    for (const W &w : windows)
        spans.push_back({w.replica, {w.from, w.to}});
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].first == spans[i - 1].first &&
            spans[i].second.first < spans[i - 1].second.second) {
            errors.push_back(std::string("fault plan: overlapping ") +
                             what + " windows on replica " +
                             std::to_string(spans[i].first));
        }
    }
}

/** One router-facing view per replica, in replica order. */
std::vector<ReplicaView>
replicaViews(const ClusterConfig &cfg)
{
    std::vector<ReplicaView> views;
    views.reserve(cfg.replicas.size());
    for (const ReplicaSpec &r : cfg.replicas)
        views.push_back({r.ctx, &r.cfg});
    return views;
}

/**
 * One host DRAM behind all replicas when configured (else null):
 * evictions from any replica's GPU pool demote into it, and any
 * replica's loads may hit it. Lives only for the duration of the run.
 */
std::unique_ptr<SharedCpuTier>
makeSharedCpuTier(const ClusterConfig &cfg)
{
    if (!cfg.sharedCpu.enabled)
        return nullptr;
    std::int64_t cap = cfg.sharedCpu.bytes;
    if (cap == 0) {
        // Same total DRAM as the private split: only replicas
        // whose private tier would actually be enabled contribute.
        for (const ReplicaSpec &r : cfg.replicas) {
            if (r.cfg.cpuCacheTier)
                cap += r.cfg.cpuCacheBytes;
        }
    }
    COSERVE_CHECK(cap > 0, "sharedCpu needs bytes ",
                  "or replicas with an enabled cpuCacheTier");
    return std::make_unique<SharedCpuTier>(cap);
}

/** How a coordinator span-trace instant shows one decision kind. */
struct InstantShape
{
    /** Instant name; null when the kind emits no instant. */
    const char *name;
    /** Argument keys of payloads a, b, c; a null key ends the list. */
    const char *keys[3];
};

/** One row per DecisionKind, in enum order. */
constexpr InstantShape kInstants[] = {
    {"route", {"image", "replica", nullptr}},
    {"admission reject", {"image", nullptr, nullptr}},
    {"admission downgrade", {"image", nullptr, nullptr}},
    {"steal", {"victim", "thief", "requests"}},
    {"scale-up", {"replica", nullptr, nullptr}},
    {"quiesce", {"replica", nullptr, nullptr}},
    {"evacuate", {"from", "to", "requests"}},
    {"crash", {"replica", "rehomed", "lost"}},
    {"straggler on", {"replica", nullptr, nullptr}},
    {"straggler off", {"replica", nullptr, nullptr}},
    {"brownout on", {"replica", nullptr, nullptr}},
    {"brownout off", {"replica", nullptr, nullptr}},
    // Replica-local preemption decisions are recorded, not traced:
    // the replica's own spans show them.
    {nullptr, {nullptr, nullptr, nullptr}},
    {nullptr, {nullptr, nullptr, nullptr}},
    {nullptr, {nullptr, nullptr, nullptr}},
    {"migrate", {"from", "to", "requests"}},
};
static_assert(std::size(kInstants) ==
                  static_cast<std::size_t>(DecisionKind::Migrate) + 1,
              "one instant shape per decision kind");

/**
 * The cluster coordinator of one run. It owns the replica engines
 * and steps them on the shared virtual clock; between steps it routes
 * arrivals (pinned to ClusterEngine::routeTrace's offline assignment
 * in static mode, live in online mode), applies admission, work
 * stealing, autoscaling, fault actions and checkpoint migration,
 * samples telemetry epochs, and records every decision. The tallies
 * go straight into the result.
 */
class Coordinator
{
  public:
    Coordinator(const ClusterConfig &cfg, const Trace &trace,
                const RunOptions &opts, std::vector<std::size_t> assignment,
                DecisionTrace &decisions, obs::Telemetry &telem)
        : cfg_(cfg), as_(cfg.autoscale), trace_(trace),
          decisions_(decisions), telem_(telem),
          coordTr_(telem.coordinatorTracer()), n_(cfg.replicas.size()),
          model_(cfg.replicas.front().ctx->model()),
          views_(replicaViews(cfg)), caps_(views_, model_),
          liveRouting_(opts.mode == RunMode::Online),
          preemptOn_(cfg.preemption.enabled),
          migrationOn_(preemptOn_ && cfg.preemption.migration),
          sloTrace_(std::any_of(trace.arrivals.begin(), trace.arrivals.end(),
                                [](const ImageArrival &a) {
                                    return sloTracked(a.cls) ||
                                           a.deadline != kTimeNever;
                                })),
          admission_(cfg.admission), faults_(flattenFaults(opts.faults)),
          sharedCpu_(makeSharedCpuTier(cfg)),
          independent_(!liveRouting_ && sharedCpu_ == nullptr &&
                       !migrationOn_ && faults_.empty()),
          router_(liveRouting_ ? makeRouter(cfg.routing, model_, views_)
                               : nullptr),
          assignment_(std::move(assignment)), live_(n_),
          dirty_(n_, 1), active_(n_, 1), activeCount_(n_),
          crashed_(n_, 0), lastScaleAction_(-as_.cooldown),
          nextControl_(as_.interval), quiesceStart_(n_, kTimeNever),
          rehomeCnt_(n_, 0)
    {
        COSERVE_CHECK(std::is_sorted(trace.arrivals.begin(),
                                     trace.arrivals.end(),
                                     [](const ImageArrival &x,
                                        const ImageArrival &y) {
                                         return x.time < y.time;
                                     }),
                      "cluster runs need time-sorted arrivals");

        engines_.reserve(n_);
        for (std::size_t i = 0; i < n_; ++i) {
            EngineConfig ecfg = cfg.replicas[i].cfg;
            ecfg.label = cfg.label + "/replica" + std::to_string(i);
            if (sharedCpu_ != nullptr)
                ecfg.externalCpuTier = sharedCpu_.get();
            // This replica's span-trace buffer (null unless telemetry
            // is enabled), pre-created by the Telemetry ctor, so a
            // replica stepping on its own thread races no other for it.
            ecfg.tracer = telem.replicaTracer(static_cast<int>(i));
            // Cluster-level preemption policy applies uniformly:
            // migration break-even and hysteresis must agree across
            // replicas or a group migratable at its source would be
            // un-adoptable at its target.
            if (cfg.preemption.enabled)
                ecfg.preemption = cfg.preemption;
            engines_.push_back(
                makeCoServeEngine(*cfg.replicas[i].ctx, std::move(ecfg)));
            // Disjoint strided id spaces: stolen requests keep their
            // id, so ids must stay unique cluster-wide.
            engines_.back()->beginOnline(static_cast<RequestId>(i),
                                         static_cast<RequestId>(n_));
        }

        if (coordTr_ != nullptr) {
            coordTr_->setProcessName("coordinator");
            coordTr_->setThreadName(0, "coordinator");
        }
        if (as_.enabled) {
            std::size_t start = as_.startReplicas == 0 ? as_.minReplicas
                                                       : as_.startReplicas;
            for (std::size_t i = std::min(start, n_); i < n_; ++i)
                setActive(i, false, 0);
            // The initial active set must cover every component on a
            // heterogeneous cluster (the quiesce path's coverage rule).
            for (std::size_t c = 0; c < model_.numComponents(); ++c) {
                const std::size_t i =
                    coverageCandidate(static_cast<ComponentId>(c));
                if (i < n_)
                    setActive(i, true, 0);
            }
        }

        out_.label = cfg.label;
        out_.routing = toString(cfg.routing);
        out_.workStealingEnabled = cfg.workStealing.enabled;
        out_.stolenFromReplica.assign(n_, 0);
        out_.stolenToReplica.assign(n_, 0);
        out_.autoscaleEnabled = as_.enabled;
        out_.preemptionEnabled = preemptOn_;
        out_.faultsInjected = opts.faults.any();
    }

    // advance() and the queue filters hand `this` to other code.
    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Serve the trace to completion; @return the collected result. */
    ClusterResult
    run()
    {
        if (independent_) {
            // Arrivals are not decisions here: every Route record comes
            // first, each arrival admitted onto its replica at once.
            for (; next_ < trace_.arrivals.size(); ++next_) {
                const ImageArrival &a = trace_.arrivals[next_];
                const std::size_t r =
                    placeArrival(a, next_, assignment_[next_]);
                COSERVE_CHECK(r < n_, "independent run lost arrival ",
                              next_);
                engines_[r]->admitArrival(a);
            }
        }

        // The next thing that happens cluster-wide is the earliest of the
        // next sampler tick, fault action, control tick (autoscale only),
        // arrival and replica event. At one instant t they go in that
        // order: sampler rows observe before anything moves; a fault
        // first runs the replica events at t (advance runs events <= t)
        // and then applies, so a crash at t spares work finishing at t;
        // then control, so same-time arrivals see the post-scale active
        // set; then arrivals, ahead of later replica events, so routing
        // sees state as of the arrival instant. Independent replicas have
        // only sampler ticks to stop at. Everything is driven by virtual
        // time, so the schedule is reproducible by construction. Fault
        // actions after the last arrival and event are never applied
        // (there is nothing left for them to affect).
        const WallTimer coordWall;
        for (;;) {
            const Time tArr = next_ < trace_.arrivals.size()
                                  ? trace_.arrivals[next_].time
                                  : kTimeNever;
            const Time tEv = nextReplicaTime();
            if (tArr == kTimeNever && tEv == kTimeNever)
                break;
            const Time tFault =
                nextFault_ < faults_.size() ? faults_[nextFault_].time
                                            : kTimeNever;
            const Time tCtl = as_.enabled ? nextControl_ : kTimeNever;
            const Time tSample = telem_.nextSampleTime();

            if (tSample <= std::min({tArr, tEv, tFault, tCtl})) {
                recordEpochSample(tSample);
            } else if (tFault <= std::min({tArr, tEv, tCtl})) {
                advance(tFault);
                applyFault(faults_[nextFault_++]);
            } else if (tCtl <= std::min(tArr, tEv)) {
                advance(tCtl);
                runControl(tCtl);
                nextControl_ += as_.interval;
            } else if (tArr <= tEv) {
                advance(tArr);
                admitAndRoute();
            } else if (independent_) {
                // Step to just before the next tick, or to idle.
                advance(tSample == kTimeNever ? kTimeNever : tSample - 1);
            } else {
                // Replica events precede the next arrival: execute the
                // earliest round everywhere, then let idle replicas steal.
                advance(tEv);
                if (cfg_.workStealing.enabled)
                    maybeSteal(tEv);
            }
        }
        telem_.host().add("coordinate", coordWall.elapsedMicros());
        return collect();
    }

  private:
    /**
     * Note @p d in the decision stream and, if @p traced, trace its
     * kind's instant from kInstants.
     */
    void
    record(const DecisionRecord &d, bool traced = true)
    {
        decisions_.note(d);
        if (coordTr_ == nullptr || !traced)
            return;
        const InstantShape &shape =
            kInstants[static_cast<std::size_t>(d.kind)];
        if (shape.name == nullptr)
            return;
        const auto arg = [&shape](std::size_t k, std::uint64_t v) {
            return obs::TraceArg{shape.keys[k], static_cast<std::int64_t>(v)};
        };
        coordTr_->instant(shape.name, 0, d.time, arg(0, d.a), arg(1, d.b),
                          arg(2, d.c));
    }

    void
    drainPreempt(std::size_t i)
    {
        // Replica-local preemption decisions (pause / checkpoint /
        // restore) are part of the replayable schedule, drained into the
        // decision stream in replica order after every step.
        if (!preemptOn_)
            return;
        pevBuf_.clear();
        engines_[i]->drainPreemptEvents(pevBuf_);
        for (const PreemptEvent &ev : pevBuf_)
            record(preemptRecord(i, ev));
    }

    /** Update the active set, its time integral and the view gate. */
    void
    setActive(std::size_t i, bool on, Time now)
    {
        if ((active_[i] != 0) == on)
            return;
        activeIntegral_ += static_cast<double>(activeCount_) *
                           static_cast<double>(now - lastActiveMark_);
        lastActiveMark_ = now;
        active_[i] = on ? 1 : 0;
        activeCount_ = on ? activeCount_ + 1 : activeCount_ - 1;
        live_[i].acceptingWork = on;
    }

    /** Wake quiesced replica @p i: built, preloaded, idle, instant. */
    void
    activate(std::size_t i, Time now)
    {
        setActive(i, true, now);
        out_.autoscaleActivations += 1;
        record({now, DecisionKind::ScaleUp, i, 0, 0});
    }

    /**
     * Routers abort on an arrival no active replica can chain-serve, so
     * every component needs an active capable replica. @return the
     * lowest-index live quiesced replica that would cover @p comp, or n
     * when it is already covered (or nothing left can serve it).
     */
    std::size_t
    coverageCandidate(ComponentId comp) const
    {
        for (std::size_t i = 0; i < n_; ++i) {
            if (active_[i] && caps_.chainServes(i, comp))
                return n_;
        }
        for (std::size_t i = 0; i < n_; ++i) {
            if (!active_[i] && !crashed_[i] && caps_.chainServes(i, comp))
                return i;
        }
        return n_;
    }

    /**
     * Quiescing must never leave a component unservable: on a
     * heterogeneous cluster the candidate may be the last active replica
     * capable of some chain.
     */
    bool
    activeSetCovers(std::size_t excluding) const
    {
        for (std::size_t c = 0; c < model_.numComponents(); ++c) {
            bool covered = false;
            for (std::size_t i = 0; i < n_ && !covered; ++i) {
                covered = i != excluding && active_[i] &&
                          caps_.chainServes(i, static_cast<ComponentId>(c));
            }
            if (!covered)
                return false;
        }
        return true;
    }

    void
    refreshView(std::size_t i)
    {
        engines_[i]->fillLoadView(live_[i]);
        // fillLoadView resets the gate; re-apply the active set.
        live_[i].acceptingWork = active_[i] != 0;
        dirty_[i] = 0;
    }

    void
    refreshViews()
    {
        for (std::size_t i = 0; i < n_; ++i) {
            if (dirty_[i])
                refreshView(i);
        }
    }

    /** Earliest pending replica event. */
    Time
    nextReplicaTime()
    {
        Time t = kTimeNever;
        for (const auto &engine : engines_)
            t = std::min(t, engine->nextEventTime());
        return t;
    }

    /**
     * Execute every replica event at or before @p until (kTimeNever: run
     * to idle), then drain what the step produced: preemption records,
     * checkpoint outboxes and finished quiesce drains. Independent
     * replicas step on threads; coupled ones in lockstep, in replica order.
     */
    void
    advance(Time until)
    {
        if (independent_) {
            advanceThreaded(until);
            return;
        }
        for (std::size_t i = 0; i < n_; ++i) {
            if (engines_[i]->stepUntil(until) > 0) {
                dirty_[i] = 1;
                drainPreempt(i);
            }
        }
        if (migrationOn_)
            drainOutboxes(until);
        noteQuiesceDrains();
    }

    void
    advanceThreaded(Time until)
    {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < n_; ++i) {
            if (engines_[i]->nextEventTime() <= until) {
                threads.emplace_back(
                    [this, i, until]() { engines_[i]->stepUntil(until); });
            }
        }
        for (std::thread &t : threads)
            t.join();
        if (!preemptOn_)
            return;
        // Preemption records merged by (time, replica), stable within a
        // replica: the same stream wherever the sampler ticks cut the run.
        threadedPreempts_.clear();
        for (std::size_t i = 0; i < n_; ++i) {
            pevBuf_.clear();
            engines_[i]->drainPreemptEvents(pevBuf_);
            for (const PreemptEvent &ev : pevBuf_)
                threadedPreempts_.emplace_back(ev, i);
        }
        std::stable_sort(threadedPreempts_.begin(), threadedPreempts_.end(),
                         [](const auto &x, const auto &y) {
                             return x.first.time < y.first.time;
                         });
        for (const auto &[ev, i] : threadedPreempts_)
            record(preemptRecord(i, ev));
    }

    /**
     * Quiesce-drain latency: virtual time from a quiesce decision to the
     * replica going fully idle — the metric migration shrinks (no more
     * waiting out the longest running batch).
     */
    void
    noteQuiesceDrains()
    {
        if (quiescing_ == 0)
            return;
        for (std::size_t i = 0; i < n_; ++i) {
            if (quiesceStart_[i] == kTimeNever)
                continue;
            if (crashed_[i] != 0 || active_[i] != 0) {
                // Died or was re-activated mid-drain: not a completed
                // quiesce, so it does not enter the drain statistics.
                quiesceStart_[i] = kTimeNever;
                quiescing_ -= 1;
                continue;
            }
            if (engines_[i]->nextEventTime() != kTimeNever)
                continue;
            const Time drain = engines_[i]->now() - quiesceStart_[i];
            out_.quiesceDrains += 1;
            out_.quiesceDrainTotal += drain;
            out_.quiesceDrainMax = std::max(out_.quiesceDrainMax, drain);
            quiesceStart_[i] = kTimeNever;
            quiescing_ -= 1;
        }
    }

    /**
     * Keep the upcoming demand loads of re-routed requests resident in
     * the shared DRAM tier (steal-aware admission,
     * SharedCpuTier::hintUpcomingLoads).
     */
    void
    hintSharedTier(const std::vector<Request> &loot)
    {
        if (sharedCpu_ == nullptr || loot.empty())
            return;
        lootExperts_.clear();
        for (const Request &req : loot)
            lootExperts_.push_back(req.expert);
        std::sort(lootExperts_.begin(), lootExperts_.end());
        lootExperts_.erase(
            std::unique(lootExperts_.begin(), lootExperts_.end()),
            lootExperts_.end());
        sharedCpu_->hintUpcomingLoads(lootExperts_);
    }

    /**
     * May replica @p i take @p req? Steals, evacuations, migrations and
     * crash re-homing move work only to a replica whose context can
     * serve it, chain included (the routers' rule, router.h): on a
     * heterogeneous cluster a replica may never have been profiled for
     * some architecture, and dispatching there aborts deep in the
     * scheduler's estimate.
     */
    bool
    serves(std::size_t i, const Request &req) const
    {
        if (req.stage == Stage::Classify)
            return caps_.chainServes(i, req.component);
        return caps_.serves(i, model_.expert(req.expert).arch);
    }

    /** serves() as a request-queue filter for replica @p i. */
    RequestQueue::StealFilter
    servesFilter(std::size_t i) const
    {
        return [this, i](const Request &req) { return serves(i, req); };
    }

    /**
     * Migration target selection, shared by the outbox drain and crash
     * evacuation: least-backlogged active capable replica of the image's
     * processor kind (ties: lowest index). A live source with no target
     * keeps its group (self-migration, recorded so replays cover the
     * fallback); a dead source's unroutable group is lost, recorded with
     * the out-of-range sentinel target n (the caller accounts it).
     * Assumes refreshViews() ran. @return false when the group is lost.
     */
    bool
    routeCheckpoint(std::size_t src, CheckpointImage img, Time now)
    {
        std::size_t target = n_;
        Time bestLoad = 0;
        for (std::size_t i = 0; i < n_; ++i) {
            if (i == src || !active_[i] || crashed_[i] ||
                !engines_[i]->hasExecutorKind(img.kind))
                continue;
            bool ok = true;
            for (const Request &req : img.requests)
                ok = ok && serves(i, req);
            if (ok && (target == n_ || live_[i].backlog < bestLoad)) {
                target = i;
                bestLoad = live_[i].backlog;
            }
        }
        const std::uint64_t cnt = img.requests.size();
        if (target == n_) {
            if (crashed_[src]) {
                record({now, DecisionKind::Migrate, src, n_, cnt},
                       /*traced=*/false);
                return false;
            }
            target = src;
        }
        record({now, DecisionKind::Migrate, src, target, cnt});
        if (target != src) {
            out_.migratedGroups += 1;
            out_.migratedRequests += static_cast<std::int64_t>(cnt);
            hintSharedTier(img.requests);
        }
        engines_[target]->adoptCheckpoint(std::move(img));
        dirty_[target] = 1;
        return true;
    }

    /** Route completed checkpoint saves out of the replica outboxes. */
    void
    drainOutboxes(Time now)
    {
        for (std::size_t src = 0; src < n_; ++src) {
            imgBuf_.clear();
            if (engines_[src]->takeMigratedImages(imgBuf_) == 0)
                continue;
            refreshViews();
            for (CheckpointImage &img : imgBuf_) {
                const bool routed = routeCheckpoint(src, std::move(img), now);
                COSERVE_CHECK(routed,
                              "outbox image stranded on a crashed replica");
            }
        }
    }

    /**
     * An idle replica raids the most backlogged sibling whose
     * queued-but-unstarted count exceeds the threshold, taking half the
     * backlog. The victim's *time* backlog must also dwarf a demand load —
     * a thief almost always pays one switch for its loot, and stealing a
     * trivial batch trades a ~5 ms/img backlog for a ~100 ms load.
     * Deterministic: fixed iteration order on the shared clock.
     */
    void
    maybeSteal(Time now)
    {
        bool anyIdle = false;
        for (const auto &engine : engines_)
            anyIdle = anyIdle || engine->nextEventTime() == kTimeNever;
        if (!anyIdle)
            return; // common case: skip the full view refresh
        refreshViews();
        for (std::size_t thief = 0; thief < n_; ++thief) {
            // A quiesced or crashed replica must not pull new work.
            if (!live_[thief].idle || !active_[thief])
                continue;
            std::size_t victim = n_;
            std::size_t depth = cfg_.workStealing.backlogThreshold;
            for (std::size_t j = 0; j < n_; ++j) {
                if (j != thief && live_[j].queueDepth > depth &&
                    live_[j].backlog > cfg_.workStealing.minBacklog) {
                    depth = live_[j].queueDepth;
                    victim = j;
                }
            }
            if (victim == n_) {
                migrateSteal(thief);
                continue;
            }
            reqBuf_.clear();
            const std::size_t want = live_[victim].queueDepth / 2;
            const RequestQueue::StealFilter serve = servesFilter(thief);
            std::size_t got = 0;
            if (sloTrace_) {
                // Deadline-aware pass first: prefer the loot that would
                // *violate* if it stayed — requests whose deadline falls
                // inside the victim's predicted backlog drain. Only then
                // top up with arbitrary (servable) tail requests.
                const Time victimEta =
                    live_[victim].now + live_[victim].backlog;
                const RequestQueue::StealFilter atRisk =
                    [&serve, victimEta](const Request &req) {
                        return req.deadline != kTimeNever &&
                               req.deadline < victimEta && serve(req);
                    };
                got = engines_[victim]->stealRequests(want, reqBuf_, atRisk);
            }
            if (got < want) {
                got += engines_[victim]->stealRequests(want - got, reqBuf_,
                                                       serve);
            }
            if (got == 0) {
                migrateSteal(thief);
                continue;
            }
            record({now, DecisionKind::Steal, victim, thief, got});
            hintSharedTier(reqBuf_);
            for (const Request &req : reqBuf_)
                engines_[thief]->injectRequest(req);
            out_.stolenFromReplica[victim] += static_cast<std::int64_t>(got);
            out_.stolenToReplica[thief] += static_cast<std::int64_t>(got);
            out_.stolenRequests += static_cast<std::int64_t>(got);
            // Only the two parties' state changed.
            refreshView(thief);
            refreshView(victim);
        }
    }

    /**
     * In-flight stealing: when an idle thief finds no queued loot, it may
     * still pull the checkpointed tail of a *running* batch off a sibling
     * that has more queued work stuck behind it. The pause request is
     * issued here; the image lands in the sibling's outbox after the
     * (charged) save and drainOutboxes routes it to the least-loaded
     * capable replica. The break-even guard (migrationMinRemaining) and
     * the per-group preemption budget bound the churn.
     */
    void
    migrateSteal(std::size_t thief)
    {
        if (!migrationOn_)
            return;
        for (std::size_t j = 0; j < n_; ++j) {
            if (j == thief || crashed_[j] || live_[j].queueDepth == 0 ||
                !engines_[j]->hasMigratableGroup())
                continue;
            if (engines_[j]->requestMigrateOut(1) > 0)
                return;
        }
    }

    /**
     * Drain quiescing replica @p q through the steal machinery: its
     * queued-but-unstarted requests re-route to active siblings in small
     * round-robin chunks (no sibling swallows the whole drain), each
     * sibling filtering by its own capability. Queue heads stay behind by
     * design (stealFromTail) and finish where they are — quiesce is a
     * drain, not a kill.
     */
    void
    evacuate(std::size_t q, Time now)
    {
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t t = 0; t < n_; ++t) {
                if (!active_[t] || t == q)
                    continue;
                reqBuf_.clear();
                const std::size_t got =
                    engines_[q]->stealRequests(4, reqBuf_, servesFilter(t));
                if (got == 0)
                    continue;
                record({now, DecisionKind::Evacuate, q, t, got});
                hintSharedTier(reqBuf_);
                for (const Request &req : reqBuf_)
                    engines_[t]->injectRequest(req);
                out_.autoscaleEvacuated += static_cast<std::int64_t>(got);
                dirty_[t] = 1;
                progress = true;
            }
        }
        // With migration on, the drain takes the *running* batches too:
        // each pauses at its next step boundary, checkpoints and migrates
        // to an active sibling. (Queue heads and short tails below the
        // break-even guard still finish in place.)
        if (migrationOn_) {
            engines_[q]->requestMigrateOut(
                std::numeric_limits<std::size_t>::max());
        }
        dirty_[q] = 1;
    }

    void
    runControl(Time now)
    {
        // Window signals: SLO violation rate and queued backlog per
        // active replica since the previous control tick.
        std::int64_t completed = 0, violated = 0;
        for (const auto &engine : engines_) {
            completed += engine->sloStats().completed();
            violated += engine->sloStats().violated();
        }
        const std::int64_t dc = completed - lastCompleted_;
        const std::int64_t dv = violated - lastViolated_;
        lastCompleted_ = completed;
        lastViolated_ = violated;
        const double violRate =
            dc > 0 ? static_cast<double>(dv) / static_cast<double>(dc) : 0.0;
        refreshViews();
        std::size_t backlog = 0;
        for (std::size_t i = 0; i < n_; ++i)
            backlog += live_[i].queueDepth;
        const double perActive =
            static_cast<double>(backlog) /
            static_cast<double>(activeCount_ > 0 ? activeCount_ : 1);

        // Scale up fast, down slow (the classic asymmetry): only quiesces
        // respect the cooldown — underprovision costs violations
        // immediately, overprovision only efficiency.
        if ((violRate > as_.violationHigh ||
             perActive > static_cast<double>(as_.backlogHigh)) &&
            activeCount_ < n_ - crashedCount_) {
            // Wake the lowest-index quiesced replica. Crashed replicas
            // never come back.
            for (std::size_t i = 0; i < n_; ++i) {
                if (active_[i] || crashed_[i])
                    continue;
                activate(i, now);
                lastScaleAction_ = now;
                break;
            }
        } else if (violRate < as_.violationLow &&
                   perActive <= static_cast<double>(as_.backlogLow) &&
                   activeCount_ > as_.minReplicas &&
                   now - lastScaleAction_ >= as_.cooldown) {
            // Quiesce the active replica with the least queued work (ties:
            // highest index, so replica 0 is the stable core), provided
            // coverage survives.
            std::size_t q = n_;
            std::size_t qDepth = 0;
            for (std::size_t i = 0; i < n_; ++i) {
                if (active_[i] && (q == n_ || live_[i].queueDepth <= qDepth)) {
                    q = i;
                    qDepth = live_[i].queueDepth;
                }
            }
            if (q == n_ || !activeSetCovers(q))
                return;
            setActive(q, false, now);
            out_.autoscaleQuiesces += 1;
            lastScaleAction_ = now;
            record({now, DecisionKind::Quiesce, q, 0, 0});
            evacuate(q, now);
            if (quiesceStart_[q] == kTimeNever) {
                quiesceStart_[q] = now;
                quiescing_ += 1;
            }
        }
    }

    void
    applyFault(const FaultAction &f)
    {
        switch (f.kind) {
        case DecisionKind::Crash:
            crash(f);
            return;
        case DecisionKind::StragglerOn:
            out_.stragglersInjected += 1;
            [[fallthrough]];
        case DecisionKind::StragglerOff:
            engines_[f.replica]->setComputeScale(f.factor);
            break;
        case DecisionKind::BrownoutOn:
            out_.brownoutsInjected += 1;
            [[fallthrough]];
        case DecisionKind::BrownoutOff:
            engines_[f.replica]->setStorageRateScale(f.factor);
            break;
        default:
            panic("unexpected fault action kind");
        }
        // Window starts record their factor; ends restore full speed.
        const bool starts = f.kind == DecisionKind::StragglerOn ||
                            f.kind == DecisionKind::BrownoutOn;
        record({f.time, f.kind, f.replica, starts ? ppm(f.factor) : 0, 0});
    }

    void
    crash(const FaultAction &f)
    {
        const std::size_t r = f.replica;
        COSERVE_CHECK(!crashed_[r], "replica crashed twice");
        setActive(r, false, f.time);
        crashed_[r] = 1;
        crashedCount_ += 1;
        out_.crashesInjected += 1;
        // With autoscale on, the dead replica may have been the last
        // active one able to serve some component (or the last active one
        // at all): wake quiesced survivors to restore coverage before
        // anything is re-homed.
        if (as_.enabled) {
            for (std::size_t c = 0; c < model_.numComponents(); ++c) {
                const std::size_t i =
                    coverageCandidate(static_cast<ComponentId>(c));
                if (i < n_)
                    activate(i, f.time);
            }
        }
        // Lossless recovery of in-flight work: capture every running
        // batch at its last *completed* step boundary (plus parked and
        // outbox images — the periodic boundary save is what survives a
        // crash) and migrate the checkpoints to capable survivors, which
        // resume the groups instead of re-running them from scratch. Work
        // since the last boundary is honestly re-executed.
        std::uint64_t lost = 0;
        if (migrationOn_) {
            imgBuf_.clear();
            engines_[r]->captureCheckpoints(imgBuf_);
            drainPreempt(r); // the capture's Checkpoint records
            refreshViews();
            for (CheckpointImage &img : imgBuf_) {
                const std::uint64_t cnt = img.requests.size();
                if (!routeCheckpoint(r, std::move(img), f.time))
                    lost += cnt;
            }
        }
        // Drain queued + in-flight work off the dead replica and re-home
        // it round-robin onto active capable siblings (each filtered by
        // its own capability, like evacuation). Work no survivor can
        // serve is lost — and accounted.
        reqBuf_.clear();
        engines_[r]->crashDrain(reqBuf_);
        dirty_[r] = 1;
        hintSharedTier(reqBuf_);
        std::fill(rehomeCnt_.begin(), rehomeCnt_.end(), 0);
        std::uint64_t rehomed = 0;
        std::size_t cursor = (r + 1) % n_;
        for (const Request &req : reqBuf_) {
            std::size_t target = n_;
            for (std::size_t j = 0; j < n_ && target == n_; ++j) {
                const std::size_t i = (cursor + j) % n_;
                if (i != r && active_[i] && serves(i, req))
                    target = i;
            }
            if (target == n_)
                continue;
            cursor = (target + 1) % n_;
            engines_[target]->injectRequest(req);
            rehomeCnt_[target] += 1;
            rehomed += 1;
            dirty_[target] = 1;
        }
        // One request per image is in flight at a time, so every lost
        // request is exactly one lost image.
        lost += reqBuf_.size() - rehomed;
        out_.crashRehomed += static_cast<std::int64_t>(rehomed);
        out_.crashLost += static_cast<std::int64_t>(lost);
        record({f.time, DecisionKind::Crash, r, rehomed, lost});
        for (std::size_t i = 0; i < n_; ++i) {
            if (rehomeCnt_[i] > 0) {
                record({f.time, DecisionKind::Evacuate, r, i,
                        static_cast<std::uint64_t>(rehomeCnt_[i])},
                       /*traced=*/false);
            }
        }
    }

    /**
     * A sample observes the quiescent DES state between coordinator steps
     * WITHOUT stepping any engine: an extra advance() cut point would
     * reorder the preempt/outbox/quiesce drains relative to an unsampled
     * run and drift the decision digest. Pure observation keeps telemetry
     * on/off byte-identical.
     */
    void
    recordEpochSample(Time t)
    {
        obs::SampleRow row;
        row.t = t;
        row.activeReplicas = static_cast<int>(activeCount_);
        std::int64_t gpuHits = 0, gpuMisses = 0;
        std::int64_t cpuHits = 0, cpuMisses = 0;
        for (std::size_t i = 0; i < n_; ++i) {
            if (crashed_[i])
                continue;
            // queuedRequestCount() + sampleHitCounters(), not
            // fillLoadView() + appendTierStats(): a load view copies
            // per-executor loads and the expert membership flags the
            // sample never reads, and TierStats rows copy tier name
            // strings on every call — work the <5% tracing overhead
            // budget has no room for.
            row.queueDepth += engines_[i]->queuedRequestCount();
            engines_[i]->sampleHitCounters(gpuHits, gpuMisses, cpuHits,
                                           cpuMisses);
        }
        if (sharedCpu_ != nullptr) {
            const TierStats shared = sharedCpu_->stats();
            cpuHits += shared.counters.hits;
            cpuMisses += shared.counters.misses;
        }
        if (gpuHits + gpuMisses > 0) {
            row.gpuHitRate = static_cast<double>(gpuHits) /
                             static_cast<double>(gpuHits + gpuMisses);
        }
        if (cpuHits + cpuMisses > 0) {
            row.cpuHitRate = static_cast<double>(cpuHits) /
                             static_cast<double>(cpuHits + cpuMisses);
        }
        // Progress counts every engine, crashed ones included: their
        // pre-crash work stays in the run's totals.
        for (const auto &engine : engines_)
            engine->sampleProgress(row.images, row.inferences,
                                   row.preemptions);
        if (t > 0) {
            row.goodputImgPerSec =
                static_cast<double>(row.images) / toSeconds(t);
        }
        telem_.recordSample(row);
    }

    /**
     * Where arrival @p idx goes, given the replica @p r it was routed (or
     * pinned) to. Offline-fallback routers (round-robin) ignore the
     * acceptingWork gate, and a pinned static assignment may point at a
     * replica that crashed since routing: re-home onto the next active
     * capable replica. If none exists (possible only on a pathological
     * heterogeneous config), serve on the quiesced pick rather than lose
     * the image — unless it crashed, in which case the image is lost and
     * recorded with the out-of-range sentinel replica n, so replays still
     * cover it. @return the serving replica, or n when the image is lost.
     */
    std::size_t
    placeArrival(const ImageArrival &a, std::uint64_t idx, std::size_t r)
    {
        if (!active_[r]) {
            for (std::size_t j = 0; j < n_; ++j) {
                const std::size_t i = (r + j) % n_;
                if (active_[i] && caps_.chainServes(i, a.component)) {
                    r = i;
                    break;
                }
            }
        }
        if (crashed_[r]) {
            out_.crashLost += 1;
            record({a.time, DecisionKind::Route, idx, n_, 0},
                   /*traced=*/false);
            if (coordTr_ != nullptr) {
                coordTr_->instant("route (lost)", 0, a.time,
                                  {"image", static_cast<std::int64_t>(idx)});
            }
            return n_;
        }
        record({a.time, DecisionKind::Route, idx, r, 0});
        return r;
    }

    /**
     * Admit the next arrival: cluster-level admission, then routing (live
     * views in online mode, the pinned assignment in static mode), then
     * the chosen replica executes the admission's dispatch at once, so a
     * same-time burst of arrivals sees each predecessor in the queues
     * rather than racing into one replica.
     */
    void
    admitAndRoute()
    {
        ImageArrival a = trace_.arrivals[next_];
        const auto idx = static_cast<std::uint64_t>(next_);
        ++next_;

        // Cluster-level admission (online only): can *any* active capable
        // replica make this deadline? Predicted from the live views with
        // the routers' Section-4.2 estimate, plus the detect child's
        // K + B when the component chains one: the deadline covers the
        // whole chain.
        if (cfg_.admission.enabled && a.deadline != kTimeNever) {
            refreshViews();
            const ComponentType &comp = model_.component(a.component);
            Time best = kTimeNever;
            for (std::size_t i = 0; i < n_; ++i) {
                if (!active_[i] || !caps_.chainServes(i, a.component))
                    continue;
                const ProcKind proc = caps_.estimateProc(i);
                Time finish = liveEstimate(views_[i], proc, live_[i],
                                           comp.classifier, a.time)
                                  .finish;
                if (comp.detector != kNoExpert) {
                    finish += DependencyAwareScheduler::execEstimate(
                        &views_[i].ctx->perf(), &views_[i].ctx->truth(),
                        model_.expert(comp.detector).arch, proc, false);
                }
                best = std::min(best, finish);
            }
            const AdmissionVerdict verdict =
                admission_.assess(a.cls, a.time, a.deadline, best);
            const auto cls = static_cast<std::uint64_t>(a.cls);
            if (verdict == AdmissionVerdict::Reject) {
                admissionSlo_.recordRejected(a.cls);
                record({a.time, DecisionKind::Reject, idx, cls, 0});
                return;
            }
            if (verdict == AdmissionVerdict::Downgrade) {
                // Scheduling class drops; the deadline stays for violation
                // accounting (see ServingEngine's admitTimed).
                admissionSlo_.recordDowngraded(a.cls);
                record({a.time, DecisionKind::Downgrade, idx, cls, 0});
                a.cls = RequestClass::BestEffort;
            }
        }

        std::size_t r = 0;
        if (liveRouting_) {
            if (router_->usesLiveViews())
                refreshViews();
            r = router_->routeLive(a, live_);
            COSERVE_CHECK(r < n_, "router returned replica ", r);
        } else {
            r = assignment_[idx];
        }
        r = placeArrival(a, idx, r);
        if (r == n_)
            return;
        engines_[r]->admitArrival(a);
        engines_[r]->stepUntil(a.time);
        dirty_[r] = 1;
        drainPreempt(r);
    }

    ClusterResult
    collect()
    {
        const WallTimer collectWall;
        std::vector<RunResult> results(n_);
        std::int64_t rejected = admissionSlo_.rejected();
        for (std::size_t i = 0; i < n_; ++i) {
            rejected += engines_[i]->rejectedImages();
            results[i] = engines_[i]->finishOnline();
        }
        aggregateClusterResult(out_, std::move(results));
        // Every arrival either completed somewhere, was rejected by
        // admission (at the coordinator or at a replica), or was lost to
        // an injected crash with no capable survivor.
        COSERVE_CHECK(out_.images + rejected + out_.crashLost ==
                          static_cast<std::int64_t>(trace_.arrivals.size()),
                      "lost images: ", out_.images, " done + ", rejected,
                      " rejected + ", out_.crashLost, " crash-lost of ",
                      trace_.arrivals.size());
        out_.wallSeconds = wall_.elapsedSeconds();
        out_.slo.merge(admissionSlo_);
        if (as_.enabled) {
            if (out_.makespan > lastActiveMark_) {
                activeIntegral_ += static_cast<double>(activeCount_) *
                                   static_cast<double>(out_.makespan -
                                                       lastActiveMark_);
            }
            if (out_.makespan > 0) {
                out_.avgActiveReplicas =
                    activeIntegral_ / static_cast<double>(out_.makespan);
            }
        }
        // The shared tier is cluster-owned: replicas do not report it, so
        // append its (cross-replica) counters once, and fold its disk
        // spills into the cluster-wide disk entry (private-tier runs
        // account the same spills through each engine's own disk tier).
        if (sharedCpu_ != nullptr) {
            out_.tiers.push_back(sharedCpu_->stats());
            mergeTierStats(out_.tiers, sharedCpu_->diskStats());
        }
        telem_.host().add("collect", collectWall.elapsedMicros());
        return std::move(out_);
    }

    const ClusterConfig &cfg_;
    const AutoscaleConfig &as_;
    const Trace &trace_;
    DecisionTrace &decisions_;
    obs::Telemetry &telem_;
    /** The coordinator's trace buffer (pid 0; null: telemetry off). */
    obs::ReplicaTracer *coordTr_;
    const std::size_t n_;
    const CoEModel &model_;
    const std::vector<ReplicaView> views_;
    const ReplicaCapabilities caps_;
    const bool liveRouting_;
    const bool preemptOn_;
    const bool migrationOn_;
    /** Does the trace carry SLO metadata at all? */
    const bool sloTrace_;
    const AdmissionController admission_;
    const std::vector<FaultAction> faults_;
    std::unique_ptr<SharedCpuTier> sharedCpu_;
    /**
     * Nothing couples the replicas: routing is pinned and there is no
     * shared CPU tier, migration or fault plan. Then arrivals are not
     * decisions, and advance() steps each replica on its own thread.
     */
    const bool independent_;
    /** Online mode's live router (null in static mode). */
    std::unique_ptr<ReplicaRouter> router_;
    /** Static mode: the offline route of every arrival. */
    std::vector<std::size_t> assignment_;
    /** Host time from replica construction to collection. */
    WallTimer wall_;
    std::vector<std::unique_ptr<ServingEngine>> engines_;
    /** Next arrival to route. */
    std::size_t next_ = 0;
    std::size_t nextFault_ = 0;

    /**
     * Load views, refreshed lazily: a replica's observable state only
     * changes when it executes events or takes work, so clean views
     * are reused across arrivals (the clock-only staleness of `now`
     * is absorbed by the routers' max(arrival.time, ...)). A refresh
     * costs O(executors + experts).
     */
    std::vector<ReplicaLoadView> live_;
    std::vector<char> dirty_;

    /** Replicas taking new work; every one unless autoscaled. */
    std::vector<char> active_;
    std::size_t activeCount_;
    std::vector<char> crashed_;
    std::size_t crashedCount_ = 0;
    double activeIntegral_ = 0.0;
    Time lastActiveMark_ = 0;

    // Autoscale control window and quiesce-drain latency.
    std::int64_t lastCompleted_ = 0, lastViolated_ = 0;
    Time lastScaleAction_;
    Time nextControl_;
    std::vector<Time> quiesceStart_;
    std::size_t quiescing_ = 0;

    ClusterResult out_;
    /** Cluster-level admission verdicts, merged into out_.slo. */
    SloStats admissionSlo_;

    // Scratch buffers, reused across calls; no method filling one
    // calls another that fills the same buffer.
    std::vector<PreemptEvent> pevBuf_;
    std::vector<std::pair<PreemptEvent, std::size_t>> threadedPreempts_;
    std::vector<CheckpointImage> imgBuf_;
    std::vector<ExpertId> lootExperts_;
    std::vector<Request> reqBuf_;
    std::vector<std::int64_t> rehomeCnt_;
};

} // namespace

std::vector<std::string>
ClusterConfig::validate(const RunOptions &opts) const
{
    std::vector<std::string> errors;
    const std::size_t n = replicas.size();
    const bool online = opts.mode == RunMode::Online;

    if (n == 0)
        errors.push_back("cluster has no replicas");

    if (!online) {
        if (workStealing.enabled) {
            errors.push_back(
                "workStealing requires online mode (RunMode::Online)");
        }
        if (autoscale.enabled)
            errors.push_back("autoscale requires online mode");
        if (admission.enabled) {
            errors.push_back(
                "cluster-level admission requires online mode");
        }
    }

    if (autoscale.enabled) {
        if (autoscale.interval <= 0)
            errors.push_back("autoscale.interval must be > 0");
        if (autoscale.minReplicas < 1 ||
            (n > 0 && autoscale.minReplicas > n)) {
            errors.push_back(
                "autoscale.minReplicas out of range [1, replicas]");
        }
        if (autoscale.startReplicas > n) {
            errors.push_back(
                "autoscale.startReplicas exceeds the replica count");
        }
    }

    if (preemption.enabled) {
        if (preemption.minRunQuantum <= 0) {
            errors.push_back(
                "preemption.minRunQuantum must be > 0 (the anti-thrash "
                "quantum is what keeps checkpoint churn bounded)");
        }
        if (preemption.maxPreemptionsPerGroup < 1) {
            errors.push_back(
                "preemption.maxPreemptionsPerGroup must be >= 1");
        }
        if (preemption.migrationMinRemaining < 0) {
            errors.push_back(
                "preemption.migrationMinRemaining must be >= 0");
        }
    }
    if (preemption.migration) {
        if (!preemption.enabled) {
            errors.push_back(
                "preemption.migration requires preemption.enabled "
                "(migration moves *checkpointed* groups)");
        }
        if (!online && !opts.faults.any()) {
            errors.push_back(
                "preemption.migration needs online mode or a fault "
                "plan: a clean static run has nothing that moves "
                "checkpointed groups between replicas");
        }
    }

    if (sharedCpu.enabled && sharedCpu.bytes == 0) {
        bool anyCache = false;
        for (const ReplicaSpec &r : replicas)
            anyCache = anyCache || r.cfg.cpuCacheTier;
        if (!anyCache) {
            errors.push_back(
                "sharedCpu needs bytes or replicas with an enabled "
                "cpuCacheTier");
        }
    }

    if (!opts.recordPath.empty() && opts.recordPath == opts.replayPath) {
        errors.push_back(
            "recordPath and replayPath must differ (replay reads the "
            "log the run would overwrite)");
    }

    const obs::TelemetryConfig &tel = opts.telemetry;
    if (!tel.enabled &&
        (!tel.tracePath.empty() || !tel.metricsJsonPath.empty() ||
         !tel.metricsCsvPath.empty())) {
        errors.push_back(
            "telemetry output paths require telemetry.enabled");
    }
    if (tel.enabled && tel.sampleInterval <= 0)
        errors.push_back("telemetry.sampleInterval must be > 0");

    std::vector<char> crashSeen(n, 0);
    for (const ReplicaCrash &c : opts.faults.crashes) {
        if (c.replica >= n) {
            errors.push_back(
                "fault plan: crash replica " +
                std::to_string(c.replica) + " out of range (cluster "
                "has " + std::to_string(n) + ")");
            continue;
        }
        if (crashSeen[c.replica]) {
            errors.push_back("fault plan: replica " +
                             std::to_string(c.replica) +
                             " crashes twice");
        }
        crashSeen[c.replica] = 1;
        if (c.at < 0)
            errors.push_back("fault plan: crash time must be >= 0");
    }
    if (n > 0 && opts.faults.crashes.size() >= n) {
        errors.push_back(
            "fault plan: crashing every replica leaves no survivors");
    }
    for (const Straggler &s : opts.faults.stragglers) {
        if (s.slowdown < 1.0) {
            errors.push_back(
                "fault plan: straggler slowdown must be >= 1, got " +
                std::to_string(s.slowdown));
        }
    }
    for (const StorageBrownout &b : opts.faults.brownouts) {
        if (b.factor <= 0.0 || b.factor > 1.0) {
            errors.push_back(
                "fault plan: brownout factor must be in (0, 1], got " +
                std::to_string(b.factor));
        }
    }
    checkWindows(opts.faults.stragglers, n, "straggler", errors);
    checkWindows(opts.faults.brownouts, n, "brownout", errors);

    return errors;
}

ClusterEngine::ClusterEngine(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    COSERVE_CHECK(!cfg_.replicas.empty(), "cluster needs replicas");
    for (std::size_t i = 0; i < cfg_.replicas.size(); ++i) {
        const ReplicaSpec &r = cfg_.replicas[i];
        COSERVE_CHECK(r.ctx != nullptr, "replica ", i,
                      " missing offline context");
        COSERVE_CHECK(!r.cfg.executors.empty(), "replica ", i,
                      " has no executors");
        // Routing and sharding assume one CoE model cluster-wide.
        COSERVE_CHECK(&r.ctx->model() ==
                          &cfg_.replicas.front().ctx->model(),
                      "replica ", i,
                      " serves a different CoE model than replica 0");
        // The engine builds channels from cfg.device but latency /
        // footprint models from ctx: mixed-up heterogeneous specs
        // would silently simulate inconsistent hardware.
        COSERVE_CHECK(r.cfg.device.name == r.ctx->device().name,
                      "replica ", i, " config device '",
                      r.cfg.device.name,
                      "' does not match its context device '",
                      r.ctx->device().name, "'");
    }
}

std::vector<std::size_t>
ClusterEngine::routeTrace(const Trace &trace) const
{
    // All replicas serve the same CoE model; route by the first's.
    auto router = makeRouter(cfg_.routing,
                             cfg_.replicas.front().ctx->model(),
                             replicaViews(cfg_));

    std::vector<std::size_t> assignment;
    assignment.reserve(trace.arrivals.size());
    for (const ImageArrival &a : trace.arrivals)
        assignment.push_back(router->route(a));
    return assignment;
}

ClusterResult
ClusterEngine::run(const Trace &trace, const RunOptions &opts)
{
    COSERVE_CHECK(!ran_, "ClusterEngine instances are single-use");
    ran_ = true;

    const std::vector<std::string> errors = cfg_.validate(opts);
    if (!errors.empty()) {
        std::string joined;
        for (const std::string &e : errors)
            joined += "\n  - " + e;
        fatal("invalid cluster run configuration:", joined);
    }

    DecisionTrace decisions;
    DecisionLog replayLog;
    if (!opts.replayPath.empty()) {
        replayLog = DecisionLog::load(opts.replayPath);
        decisions.beginReplay(&replayLog);
    }

    // Per-run observability state. The registry is filled once, at
    // collection, from the result's tallies; the tracer, sampler and
    // file outputs exist only when opts.telemetry.enabled — the
    // null-sink fast path.
    obs::Telemetry telem(opts.telemetry,
                         static_cast<int>(cfg_.replicas.size()));

    // Static mode pins routing to the offline assignment; re-homing
    // applies only when the assigned replica has crashed. Routing counts
    // toward the "build" host phase but not toward wallSeconds, which
    // times the replicas from construction to collection.
    const WallTimer buildWall;
    std::vector<std::size_t> assignment;
    if (opts.mode == RunMode::Static)
        assignment = routeTrace(trace);
    Coordinator coord(cfg_, trace, opts, std::move(assignment), decisions,
                      telem);
    telem.host().add("build", buildWall.elapsedMicros());
    ClusterResult out = coord.run();

    decisions.finish();
    out.decisionDigest = decisions.log().digest();
    out.decisionCount =
        static_cast<std::int64_t>(decisions.log().size());
    if (!opts.recordPath.empty())
        decisions.log().save(opts.recordPath);

    // Observability epilogue: counters and derived gauges from the
    // final result, the per-replica 1-in-16 scheduling-wall samples
    // unified into the host profile, then the configured file outputs;
    // the frozen snapshot rides on the result for exporters.
    exportClusterMetrics(out, telem.registry());
    for (const RunResult &rep : out.replicas) {
        const std::size_t cnt = rep.schedulingWallUs.count();
        if (cnt > 0) {
            telem.host().add("scheduling",
                             rep.schedulingWallUs.mean() *
                                 static_cast<double>(cnt),
                             static_cast<std::int64_t>(cnt));
        }
    }
    if (!telem.finish(out.metrics))
        fatal("telemetry: failed to write configured output files");
    return out;
}

ClusterConfig
heterogeneousCluster(std::vector<ReplicaSpec> replicas,
                     RoutingPolicy routing, std::string label)
{
    COSERVE_CHECK(!replicas.empty(), "need at least one replica");
    ClusterConfig cluster;
    cluster.label = std::move(label);
    cluster.routing = routing;
    cluster.replicas = std::move(replicas);
    return cluster;
}

ClusterConfig
homogeneousCluster(const CoServeContext &ctx, const EngineConfig &cfg,
                   int numReplicas, RoutingPolicy routing,
                   std::string label)
{
    COSERVE_CHECK(numReplicas >= 1, "need at least one replica");
    ClusterConfig cluster;
    cluster.label = std::move(label);
    cluster.routing = routing;
    for (int i = 0; i < numReplicas; ++i)
        cluster.replicas.push_back({&ctx, cfg});
    return cluster;
}

} // namespace coserve
