#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace coebench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans, std::size_t from)
{
    // Children of one parent appear in begin order, so their starts
    // ascend: a running "covered up to" mark per parent merges
    // back-to-back and overlapping children into one union.
    const std::size_t n = spans.size() > from ? spans.size() - from : 0;
    std::vector<std::int64_t> covered(n, 0);
    std::vector<std::int64_t> coveredTo(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
        const Span &s = spans[from + k];
        coveredTo[k] = s.startNs;
        if (s.parent < static_cast<std::int64_t>(from))
            continue;
        const auto p = static_cast<std::size_t>(s.parent) - from;
        if (p >= k)
            throw std::invalid_argument("span parent after child");
        const std::int64_t lo = std::max(s.startNs, coveredTo[p]);
        const std::int64_t hi = std::min(s.endNs, spans[from + p].endNs);
        if (hi > lo) {
            covered[p] += hi - lo;
            coveredTo[p] = hi;
        }
    }
    std::vector<std::int64_t> self(n);
    for (std::size_t k = 0; k < n; ++k) {
        const Span &s = spans[from + k];
        self[k] = s.endNs - s.startNs - covered[k];
    }
    return self;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans, std::size_t from)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans, from);
    std::map<std::string, SpanTotals> out;
    for (std::size_t k = 0; k < self.size(); ++k) {
        const Span &s = spans[from + k];
        SpanTotals &t = out[s.name];
        t.calls += 1;
        t.selfNs += self[k];
    }
    return out;
}

void
SpanRecorder::end(std::int32_t idx)
{
    if (open_.empty() || open_.back() != idx)
        throw std::logic_error("spans must close innermost first");
    open_.pop_back();
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
}

void
SpanRecorder::truncate(std::size_t from)
{
    if (!open_.empty())
        throw std::logic_error("truncate with open spans");
    if (from < spans_.size())
        spans_.resize(from);
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"run\": %d}%s\n",
                     s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent, s.run,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace coebench
