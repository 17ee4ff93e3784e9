/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded only in the benchmark's own code, around each
 * public call it makes into the program (and, through the timing
 * decorators of workloads.cc, around each Scheduler::dispatch and
 * EvictionPolicy::selectVictim the engine makes). Each span records its
 * name, start, end, parent span and run id; the parent is whichever
 * span was open when it began, so nesting follows the call stack.
 * Spans stay in memory and are written out once, when the run ends.
 *
 * A span's self time is its duration minus the part of its interval
 * that its direct child spans cover (the union of the children's
 * intervals clipped to the parent, so back-to-back or overlapping
 * children are never counted twice).
 */

#ifndef COEBENCH_SPANS_H
#define COEBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace coebench {

/** Monotonic host clock in nanoseconds (std::chrono::steady_clock). */
std::int64_t nowNs();

/** One recorded span. Names are string literals (not owned). */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the same buffer; -1 for a root. */
    std::int32_t parent = -1;
    /** Serve-call number the span belongs to. */
    std::int32_t run = 0;
};

/**
 * Self time of spans[from..], in nanoseconds, aligned with that range.
 * Spans must be in begin order (parents before their children), as
 * SpanRecorder produces them; a parent before @p from is outside the
 * range and ignored.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans,
                                      std::size_t from = 0);

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    std::int64_t calls = 0;
    std::int64_t selfNs = 0;
};

/** Sum calls and self time per span name over spans[from..]. */
std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans, std::size_t from = 0);

/** Single-threaded span recorder (the traced runs are single-threaded
 *  at the points the benchmark instruments). */
class SpanRecorder
{
  public:
    /** Tag subsequently begun spans with serve-call number @p run. */
    void setRun(std::int32_t run) { run_ = run; }

    /** Open a span named @p name; @return its index. */
    std::int32_t
    begin(const char *name)
    {
        const auto idx = static_cast<std::int32_t>(spans_.size());
        const std::int32_t parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, nowNs(), 0, parent, run_});
        open_.push_back(idx);
        return idx;
    }

    /** Close the innermost open span, which must be @p idx. */
    void end(std::int32_t idx);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Drop every span from index @p from on (all must be closed).
     * Used to bound memory: a run folds a serve call's spans into its
     * totals and keeps them for the output file only while the buffer
     * is below its cap.
     */
    void truncate(std::size_t from);

    /**
     * Write the spans as a JSON object {"spans": [...]} with fields
     * name, start_ns, end_ns, parent, run. @return success.
     */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    std::int32_t run_ = 0;
};

/** RAII span: opens in the constructor, closes in the destructor.
 *  A null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name)
        : rec_(rec), idx_(rec ? rec->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    std::int32_t idx_;
};

} // namespace coebench

#endif // COEBENCH_SPANS_H
