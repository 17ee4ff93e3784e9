#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/output_file.h"

namespace coserve::obs {

namespace {

using Sink = std::function<void(const char *, std::size_t)>;

/** Size of every block handed to the sink but the last. */
constexpr std::size_t kBlockBytes = 64 * 1024;

/**
 * Largest row written in place, past the end of the block if need
 * be; a longer row (only a name of KiBs makes one) is copied in.
 */
constexpr std::size_t kRowBytes = 4 * 1024;

/** Longest std::int64_t in decimal: sign plus 19 digits. */
constexpr std::size_t kMaxIntChars = 20;

/** Longest timestamp: "-9223372036854775.-808" is 22 bytes. */
constexpr std::size_t kMaxTimeChars = 24;

/**
 * Upper bound on an event row without its name and args: the
 * literals, a separator, two timestamps and three integers. See
 * writeEvent(). Each arg adds at most kArgBytes plus its key.
 */
constexpr std::size_t kEventBytes = 120 + 2 * kMaxTimeChars +
                                    3 * kMaxIntChars;
constexpr std::size_t kArgBytes = 4 + kMaxIntChars;

/** Upper bound on a metadata row without its kind and name. */
constexpr std::size_t kMetadataBytes = 80 + 2 * kMaxIntChars;

/**
 * 64 KiB text block that hands itself to a sink when full, so the
 * export holds at most one block of rendered text. Rows are written
 * through a raw cursor and checked once, when committed: a row that
 * crosses the block's end is split there, so the sink sees exactly
 * kBlockBytes a call (one page-aligned write for a file) until the
 * last.
 */
class Block
{
  public:
    explicit Block(const Sink &sink)
        : sink_(sink), buf_(new char[kBlockBytes + kRowBytes])
    {
    }

    /** @return where the next row goes; kRowBytes fit there. */
    char *cursor() { return buf_.get() + len_; }

    /**
     * Keep the bytes written at cursor() up to @p end. A full block
     * goes to the sink and what ran past it starts the next one.
     */
    void
    commit(const char *end)
    {
        len_ = static_cast<std::size_t>(end - buf_.get());
        if (len_ < kBlockBytes)
            return;
        sink_(buf_.get(), kBlockBytes);
        len_ -= kBlockBytes;
        std::memcpy(buf_.get(), buf_.get() + kBlockBytes, len_);
    }

    /** Copy @p n bytes of any length. */
    void
    put(const char *s, std::size_t n)
    {
        while (n > 0) {
            const std::size_t fit = std::min(n, kBlockBytes - len_);
            std::memcpy(buf_.get() + len_, s, fit);
            commit(buf_.get() + len_ + fit);
            s += fit;
            n -= fit;
        }
    }

    /** Hand the rest of the text to the sink. */
    void
    flush()
    {
        if (len_ > 0)
            sink_(buf_.get(), len_);
        len_ = 0;
    }

  private:
    const Sink &sink_;
    std::unique_ptr<char[]> buf_;
    /** Bytes in the block; below kBlockBytes between calls. */
    std::size_t len_ = 0;
};

/**
 * Write one row of at most @p bound bytes with @p write (a function
 * from a cursor to the end of what it wrote). A row longer than
 * kRowBytes is rendered into @p spill and copied in.
 */
template <typename Write>
void
emit(Block &out, std::size_t bound, std::string &spill,
     const Write &write)
{
    if (bound <= kRowBytes) {
        out.commit(write(out.cursor()));
        return;
    }
    spill.resize(bound);
    const char *end = write(spill.data());
    out.put(spill.data(), static_cast<std::size_t>(end - spill.data()));
}

template <std::size_t N>
char *
putLit(char *p, const char (&s)[N])
{
    std::memcpy(p, s, N - 1);
    return p + N - 1;
}

char *
putStr(char *p, const char *s, std::size_t n)
{
    std::memcpy(p, s, n);
    return p + n;
}

/** "00" to "99", for writing decimals two digits at a time. */
constexpr char kDigitPairs[] = "00010203040506070809"
                               "10111213141516171819"
                               "20212223242526272829"
                               "30313233343536373839"
                               "40414243444546474849"
                               "50515253545556575859"
                               "60616263646566676869"
                               "70717273747576777879"
                               "80818283848586878889"
                               "90919293949596979899";

/** Number of decimal digits of @p v (1 for 0). */
int
decimalDigits(std::uint64_t v)
{
    int n = 1;
    for (;;) {
        if (v < 10)
            return n;
        if (v < 100)
            return n + 1;
        if (v < 1000)
            return n + 2;
        if (v < 10000)
            return n + 3;
        v /= 10000;
        n += 4;
    }
}

/**
 * @p v in decimal, written back to front two digits at a time. Used
 * instead of std::to_chars, which g++ 12 leaves out of line in the
 * row writer: this inline form took about 15% off the render time.
 */
char *
putUint(char *p, std::uint64_t v)
{
    char *const end = p + decimalDigits(v);
    char *q = end;
    while (v >= 100) {
        const auto pair = static_cast<std::size_t>(v % 100) * 2;
        v /= 100;
        q -= 2;
        q[0] = kDigitPairs[pair];
        q[1] = kDigitPairs[pair + 1];
    }
    if (v >= 10) {
        q[-2] = kDigitPairs[v * 2];
        q[-1] = kDigitPairs[v * 2 + 1];
    } else {
        q[-1] = static_cast<char>('0' + v);
    }
    return end;
}

char *
putInt(char *p, std::int64_t v)
{
    if (v >= 0)
        return putUint(p, static_cast<std::uint64_t>(v));
    *p++ = '-';
    return putUint(p, 0 - static_cast<std::uint64_t>(v));
}

/** Virtual @p t as exact microseconds ("12.345" for 12345 ns). */
char *
putTime(char *p, Time t)
{
    if (t < 0) {
        // Virtual time starts at 0, so only hand-built traces get
        // here. C's truncating quotient and remainder: -1500 ns
        // prints "-1.-500".
        char tmp[kMaxTimeChars + 8];
        const int n = std::snprintf(tmp, sizeof(tmp), "%lld.%03lld",
                                    static_cast<long long>(t / 1000),
                                    static_cast<long long>(t % 1000));
        return putStr(p, tmp, static_cast<std::size_t>(n));
    }
    p = putInt(p, t / 1000);
    const auto frac = static_cast<int>(t % 1000);
    p[0] = '.';
    p[1] = static_cast<char>('0' + frac / 100);
    p[2] = static_cast<char>('0' + frac / 10 % 10);
    p[3] = static_cast<char>('0' + frac % 10);
    return p + 4;
}

/**
 * @p s as the body of a JSON string: '"', '\\' and control
 * characters escaped, every other byte (UTF-8 included) copied. At
 * most 6 bytes per input byte.
 */
char *
putEscaped(char *p, const std::string &s)
{
    static const char kHex[] = "0123456789abcdef";
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (u >= 0x20 && c != '"' && c != '\\') {
            *p++ = c;
            continue;
        }
        *p++ = '\\';
        switch (c) {
        case '"':
        case '\\':
            *p++ = c;
            break;
        case '\n':
            *p++ = 'n';
            break;
        case '\r':
            *p++ = 'r';
            break;
        case '\t':
            *p++ = 't';
            break;
        default:
            p = putLit(p, "u00");
            *p++ = kHex[u >> 4];
            *p++ = kHex[u & 0xf];
            break;
        }
    }
    return p;
}

/** One event row (after its ",\n" separator, if any). */
char *
writeEvent(char *p, const TraceEvent &e, std::size_t nameLen,
           std::int32_t pid, const TraceArg *args)
{
    p = putLit(p, "{\"ph\":\"");
    *p++ = e.ph;
    p = putLit(p, "\",\"ts\":");
    p = putTime(p, e.ts);
    if (e.ph == 'X') {
        p = putLit(p, ",\"dur\":");
        p = putTime(p, e.durOrFlowId);
    }
    p = putLit(p, ",\"pid\":");
    p = putInt(p, pid);
    p = putLit(p, ",\"tid\":");
    p = putInt(p, e.tid);
    p = putLit(p, ",\"name\":\"");
    p = putStr(p, e.name, nameLen);
    *p++ = '"';
    if (e.ph == 'i')
        p = putLit(p, ",\"s\":\"t\"");
    if (e.ph == 's' || e.ph == 'f') {
        p = putLit(p, ",\"id\":");
        p = putInt(p, e.durOrFlowId);
        if (e.ph == 'f')
            p = putLit(p, ",\"bp\":\"e\"");
    }
    if (e.argCount > 0) {
        p = putLit(p, ",\"args\":{");
        for (std::uint8_t i = 0; i < e.argCount; ++i) {
            if (i > 0)
                *p++ = ',';
            *p++ = '"';
            p = putStr(p, args[i].key, std::strlen(args[i].key));
            p = putLit(p, "\":");
            p = putInt(p, args[i].value);
        }
        *p++ = '}';
    }
    *p++ = '}';
    return p;
}

/** Sort key of one event: its buffer and index, and its rebased ts. */
struct SortKey
{
    Time ts;
    std::uint32_t buf;
    std::uint32_t idx;
};

static_assert(sizeof(SortKey) == 16, "SortKey is sized for the sort");

/**
 * The sort's key array and its second buffer, kept per thread across
 * exports: arrays this large (~340 KB each on a fig25-sized trace)
 * would otherwise be fresh mappings whose every page faults in again
 * on each export.
 */
struct SortBuffers
{
    std::unique_ptr<SortKey[]> keys;
    std::unique_ptr<SortKey[]> tmp;
    std::size_t capacity = 0;

    /** Make room for @p n keys in both buffers (contents dropped). */
    void
    reserve(std::size_t n)
    {
        if (n <= capacity)
            return;
        keys.reset(new SortKey[n]);
        tmp.reset(new SortKey[n]);
        capacity = n;
    }
};

/**
 * Stable LSD radix sort of @p buf.keys[0, @p n) by timestamp, whose
 * range is [@p lo, @p hi], leaving the result in @p buf.keys (the two
 * buffers may trade places). The digits are those of ts - lo, computed
 * in unsigned arithmetic: 11 bits a pass, and only as many passes as
 * hi - lo needs; a pass whose digit every key shares is skipped.
 * Stability keeps equal timestamps in collection order.
 */
void
radixSort(SortBuffers &buf, std::size_t n, Time lo, Time hi)
{
    constexpr int kDigitBits = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    constexpr std::uint64_t kMask = kBuckets - 1;
    const auto base = static_cast<std::uint64_t>(lo);
    int passes = 0;
    for (std::uint64_t r = static_cast<std::uint64_t>(hi) - base; r != 0;
         r >>= kDigitBits)
        ++passes;
    if (n < 2 || passes == 0)
        return;
    const auto digit = [base](const SortKey &k, int shift) {
        return static_cast<std::size_t>(
            ((static_cast<std::uint64_t>(k.ts) - base) >> shift) & kMask);
    };
    SortKey *keys = buf.keys.get();
    SortKey *tmp = buf.tmp.get();
    // Every pass's digit histogram in one read of the keys.
    std::vector<std::size_t> counts(
        static_cast<std::size_t>(passes) * kBuckets);
    for (std::size_t i = 0; i < n; ++i) {
        for (int d = 0; d < passes; ++d) {
            ++counts[static_cast<std::size_t>(d) * kBuckets +
                     digit(keys[i], d * kDigitBits)];
        }
    }
    for (int d = 0; d < passes; ++d) {
        std::size_t *c = &counts[static_cast<std::size_t>(d) * kBuckets];
        const int shift = d * kDigitBits;
        if (c[digit(keys[0], shift)] == n)
            continue;
        std::size_t sum = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            const std::size_t cnt = c[b];
            c[b] = sum;
            sum += cnt;
        }
        for (std::size_t i = 0; i < n; ++i)
            tmp[c[digit(keys[i], shift)]++] = keys[i];
        buf.keys.swap(buf.tmp);
        std::swap(keys, tmp);
    }
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
    const std::size_t n = eventCount();
    thread_local SortBuffers sortBuffers;
    sortBuffers.reserve(n);
    SortKey *keys = sortBuffers.keys.get();
    Time lo = std::numeric_limits<Time>::max();
    Time hi = std::numeric_limits<Time>::min();
    std::size_t at = 0;
    for (std::size_t b = 0; b < buffers_.size(); ++b) {
        const std::vector<TraceEvent> &events = buffers_[b]->events_;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const Time ts = events[i].ts;
            keys[at++] = {ts, static_cast<std::uint32_t>(b),
                          static_cast<std::uint32_t>(i)};
            lo = std::min(lo, ts);
            hi = std::max(hi, ts);
        }
    }
    radixSort(sortBuffers, n, lo, hi);
    keys = sortBuffers.keys.get();

    Block out(sink);
    static constexpr char kHead[] = "{\"traceEvents\":[\n";
    out.put(kHead, sizeof(kHead) - 1);
    std::string spill;
    bool first = true;
    const auto separate = [&first](char *p) {
        if (!first)
            p = putLit(p, ",\n");
        first = false;
        return p;
    };
    for (const auto &b : buffers_) {
        for (const auto &kv : b->names_) {
            // Lambdas cannot capture structured bindings in C++17.
            const std::int32_t tid = kv.first;
            const std::string &name = kv.second;
            // tid -1 names the process (rendered as tid 0).
            const char *what = tid < 0 ? "process_name" : "thread_name";
            const std::size_t whatLen = std::strlen(what);
            emit(out, kMetadataBytes + whatLen + 6 * name.size(), spill,
                 [&](char *p) {
                     p = putLit(separate(p),
                                "{\"ph\":\"M\",\"ts\":0.000,\"pid\":");
                     p = putInt(p, b->pid_);
                     p = putLit(p, ",\"tid\":");
                     p = putInt(p, std::max(tid, 0));
                     p = putLit(p, ",\"name\":\"");
                     p = putStr(p, what, whatLen);
                     p = putLit(p, "\",\"args\":{\"name\":\"");
                     p = putEscaped(p, name);
                     return putLit(p, "\"}}");
                 });
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        const ReplicaTracer &b = *buffers_[keys[i].buf];
        const TraceEvent &e = b.events_[keys[i].idx];
        const TraceArg *args = b.args_.data() + e.argStart;
        const std::size_t nameLen = std::strlen(e.name);
        std::size_t bound = kEventBytes + nameLen;
        for (std::uint8_t a = 0; a < e.argCount; ++a)
            bound += kArgBytes + std::strlen(args[a].key);
        emit(out, bound, spill, [&](char *p) {
            return writeEvent(separate(p), e, nameLen, b.pid_, args);
        });
    }
    static constexpr char kTail[] = "\n],\"displayTimeUnit\":\"ms\"}\n";
    out.put(kTail, sizeof(kTail) - 1);
    out.flush();
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
