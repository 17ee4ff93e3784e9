#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "util/output_file.h"

namespace coserve::obs {

namespace {

/**
 * Fixed-size text buffer that hands each full block to a sink, so the
 * export holds at most kBlockBytes of rendered text. Literals are
 * copied with memcpy and integers formatted with std::to_chars.
 */
class BlockWriter
{
  public:
    static constexpr std::size_t kBlockBytes = 64 * 1024;

    using Sink = std::function<void(const char *, std::size_t)>;

    explicit BlockWriter(const Sink &sink)
        : sink_(sink), buf_(new char[kBlockBytes])
    {
    }

    void
    put(const char *s, std::size_t n)
    {
        while (n > kBlockBytes - len_) {
            const std::size_t room = kBlockBytes - len_;
            std::memcpy(buf_.get() + len_, s, room);
            len_ = kBlockBytes;
            flush();
            s += room;
            n -= room;
        }
        std::memcpy(buf_.get() + len_, s, n);
        len_ += n;
    }

    template <std::size_t N>
    void
    lit(const char (&s)[N])
    {
        put(s, N - 1);
    }

    void str(const char *s) { put(s, std::strlen(s)); }

    void
    ch(char c)
    {
        reserve(1);
        buf_[len_++] = c;
    }

    void
    integer(std::int64_t v)
    {
        reserve(kMaxIntChars);
        char *p = buf_.get() + len_;
        len_ += static_cast<std::size_t>(
            std::to_chars(p, p + kMaxIntChars, v).ptr - p);
    }

    /** Virtual @p t as exact microseconds ("12.345" for 12345 ns). */
    void
    timestamp(Time t)
    {
        if (t < 0) {
            // Virtual time starts at 0, so only hand-built traces get
            // here. C's truncating quotient and remainder: -1500 ns
            // prints "-1.-500".
            char tmp[48];
            const int n = std::snprintf(tmp, sizeof(tmp), "%lld.%03lld",
                                        static_cast<long long>(t / 1000),
                                        static_cast<long long>(t % 1000));
            put(tmp, static_cast<std::size_t>(n));
            return;
        }
        integer(t / 1000);
        const auto frac = static_cast<int>(t % 1000);
        reserve(4);
        char *p = buf_.get() + len_;
        p[0] = '.';
        p[1] = static_cast<char>('0' + frac / 100);
        p[2] = static_cast<char>('0' + frac / 10 % 10);
        p[3] = static_cast<char>('0' + frac % 10);
        len_ += 4;
    }

    /** Hand the buffered text to the sink. */
    void
    flush()
    {
        if (len_ > 0)
            sink_(buf_.get(), len_);
        len_ = 0;
    }

  private:
    /** Longest std::int64_t in decimal: sign plus 19 digits. */
    static constexpr std::size_t kMaxIntChars = 20;

    /** Flush first unless @p n more bytes fit in this block. */
    void
    reserve(std::size_t n)
    {
        if (kBlockBytes - len_ < n)
            flush();
    }

    const Sink &sink_;
    std::unique_ptr<char[]> buf_;
    std::size_t len_ = 0;
};

void
renderEvent(BlockWriter &w, const TraceEvent &e, std::int32_t pid,
            const std::vector<TraceArg> &args)
{
    w.lit("{\"ph\":\"");
    w.ch(e.ph);
    w.lit("\",\"ts\":");
    w.timestamp(e.ts);
    if (e.ph == 'X') {
        w.lit(",\"dur\":");
        w.timestamp(e.durOrFlowId);
    }
    w.lit(",\"pid\":");
    w.integer(pid);
    w.lit(",\"tid\":");
    w.integer(e.tid);
    w.lit(",\"name\":\"");
    w.str(e.name);
    w.ch('"');
    if (e.ph == 'i')
        w.lit(",\"s\":\"t\"");
    if (e.ph == 's' || e.ph == 'f') {
        w.lit(",\"id\":");
        w.integer(e.durOrFlowId);
        if (e.ph == 'f')
            w.lit(",\"bp\":\"e\"");
    }
    if (e.argCount > 0) {
        w.lit(",\"args\":{");
        for (std::uint8_t i = 0; i < e.argCount; ++i) {
            const TraceArg &a = args[e.argStart + i];
            if (i > 0)
                w.ch(',');
            w.ch('"');
            w.str(a.key);
            w.lit("\":");
            w.integer(a.value);
        }
        w.ch('}');
    }
    w.ch('}');
}

void
renderMetadata(BlockWriter &w, std::int32_t pid, std::int32_t tid,
               const char *what, const std::string &name)
{
    w.lit("{\"ph\":\"M\",\"ts\":0.000,\"pid\":");
    w.integer(pid);
    w.lit(",\"tid\":");
    w.integer(tid);
    w.lit(",\"name\":\"");
    w.str(what);
    w.lit("\",\"args\":{\"name\":\"");
    w.put(name.data(), name.size());
    w.lit("\"}}");
}

} // namespace

std::uint8_t
ReplicaTracer::pushArgs(TraceArg a0, TraceArg a1, TraceArg a2)
{
    // Call sites pass a contiguous prefix; the first null key ends it.
    if (a0.key == nullptr)
        return 0;
    args_.push_back(a0);
    if (a1.key == nullptr)
        return 1;
    args_.push_back(a1);
    if (a2.key == nullptr)
        return 2;
    args_.push_back(a2);
    return 3;
}

void
ReplicaTracer::span(const char *name, std::int32_t tid, Time start,
                    Time end, TraceArg a0, TraceArg a1, TraceArg a2)
{
    TraceEvent e;
    e.ts = start;
    e.durOrFlowId = end > start ? end - start : 0;
    e.tid = static_cast<std::uint16_t>(tid);
    e.ph = 'X';
    e.name = name;
    e.argStart = static_cast<std::uint32_t>(args_.size());
    e.argCount = pushArgs(a0, a1, a2);
    events_.push_back(e);
}

void
ReplicaTracer::instant(const char *name, std::int32_t tid, Time ts,
                       TraceArg a0, TraceArg a1, TraceArg a2)
{
    TraceEvent e;
    e.ts = ts;
    e.tid = static_cast<std::uint16_t>(tid);
    e.ph = 'i';
    e.name = name;
    e.argStart = static_cast<std::uint32_t>(args_.size());
    e.argCount = pushArgs(a0, a1, a2);
    events_.push_back(e);
}

void
ReplicaTracer::flow(const char *name, std::int32_t tid, Time ts,
                    std::int64_t id, bool start)
{
    TraceEvent e;
    e.ts = ts;
    e.tid = static_cast<std::uint16_t>(tid);
    e.ph = start ? 's' : 'f';
    e.name = name;
    e.durOrFlowId = id;
    events_.push_back(e);
}

void
ReplicaTracer::setProcessName(const std::string &name)
{
    names_.push_back({-1, name});
}

void
ReplicaTracer::setThreadName(std::int32_t tid, const std::string &name)
{
    names_.push_back({tid, name});
}

Tracer::Tracer(int numPids)
{
    buffers_.reserve(static_cast<std::size_t>(numPids));
    for (int i = 0; i < numPids; ++i)
        buffers_.push_back(std::make_unique<ReplicaTracer>(i));
}

std::size_t
Tracer::eventCount() const
{
    std::size_t n = 0;
    for (const auto &b : buffers_)
        n += b->events_.size();
    return n;
}

void
Tracer::render(const TextSink &sink) const
{
    // Merge in pid order, then stable-sort by virtual timestamp: each
    // replica's buffer already holds its own deterministic sequence,
    // so the merged order — and therefore the bytes — is independent
    // of how replica threads interleaved on the host.
    struct Row
    {
        const TraceEvent *e;
        const ReplicaTracer *buf;
    };
    std::vector<Row> merged;
    merged.reserve(eventCount());
    for (const auto &b : buffers_) {
        for (const TraceEvent &e : b->events_)
            merged.push_back({&e, b.get()});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Row &a, const Row &b) {
                         return a.e->ts < b.e->ts;
                     });

    BlockWriter w(sink);
    w.lit("{\"traceEvents\":[\n");
    bool first = true;
    const auto separate = [&w, &first] {
        if (!first)
            w.lit(",\n");
        first = false;
    };
    for (const auto &b : buffers_) {
        for (const auto &kv : b->names_) {
            separate();
            if (kv.first < 0)
                renderMetadata(w, b->pid_, 0, "process_name", kv.second);
            else
                renderMetadata(w, b->pid_, kv.first, "thread_name",
                               kv.second);
        }
    }
    for (const Row &row : merged) {
        separate();
        renderEvent(w, *row.e, row.buf->pid_, row.buf->args_);
    }
    w.lit("\n],\"displayTimeUnit\":\"ms\"}\n");
    w.flush();
}

std::string
Tracer::toJson() const
{
    std::string out;
    render([&out](const char *data, std::size_t n) {
        out.append(data, n);
    });
    return out;
}

bool
Tracer::writeFile(const std::string &path) const
{
    OutputFile out(path);
    std::FILE *f = out.get();
    if (!f)
        return false;
    render([f](const char *data, std::size_t n) {
        std::fwrite(data, 1, n, f);
    });
    return out.close();
}

} // namespace coserve::obs
