// lag-lint: signal-safe
//
// The flight recorder's crash-dump path. Everything in this file may
// run inside a fatal-signal handler, so it is restricted to the
// async-signal-safe world: write(2)/open(2)/close(2), stack buffers,
// atomic loads. No malloc, no stdio, no std::string — the lag_lint
// `signal-safe` rule enforces that mechanically for any file carrying
// the marker above.
//
// The rings are read UNSYNCHRONIZED, including the request ring whose
// live readers take a mutex: the crashing thread may hold that mutex,
// and a crash dump that deadlocks is worse than one with a torn row.
// All lengths are clamped at read time, so a torn row can garble text
// but never index out of bounds. Spans come from the per-thread span
// rings through the same lock-free walk the live view uses.

#include "flightrec.hh"

#include <fcntl.h>
#include <unistd.h>

#include "util/shutdown.hh"
#include "util/thread_annotations.hh"

namespace lag::obs
{

namespace
{

/** Buffered writer over write(2); everything on the stack. */
class SigSafeWriter
{
  public:
    explicit SigSafeWriter(int fd) : fd_(fd) {}
    ~SigSafeWriter() { flush(); }

    void ch(char c)
    {
        if (len_ == sizeof(buf_))
            flush();
        buf_[len_++] = c;
    }

    void str(const char *s)
    {
        while (*s != '\0')
            ch(*s++);
    }

    void u64(std::uint64_t v)
    {
        char tmp[20];
        int n = 0;
        do {
            tmp[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n > 0)
            ch(tmp[--n]);
    }

    void i64(std::int64_t v)
    {
        if (v < 0) {
            ch('-');
            // -(v + 1) avoids overflow on INT64_MIN.
            u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
        } else {
            u64(static_cast<std::uint64_t>(v));
        }
    }

    /** 32 lowercase hex chars: hi then lo, zero-padded. */
    void hex128(std::uint64_t hi, std::uint64_t lo)
    {
        for (int i = 15; i >= 0; --i)
            ch(kHexDigits[(hi >> (4 * i)) & 0xF]);
        for (int i = 15; i >= 0; --i)
            ch(kHexDigits[(lo >> (4 * i)) & 0xF]);
    }

    /** JSON string from at most @p maxLen bytes of @p s. */
    void quoted(const char *s, std::size_t maxLen)
    {
        ch('"');
        for (std::size_t i = 0; i < maxLen && s[i] != '\0'; ++i) {
            const char c = s[i];
            if (c == '"' || c == '\\') {
                ch('\\');
                ch(c);
            } else if (static_cast<unsigned char>(c) < 0x20) {
                str("\\u00");
                ch(kHexDigits[(c >> 4) & 0xF]);
                ch(kHexDigits[c & 0xF]);
            } else {
                ch(c);
            }
        }
        ch('"');
    }

    void flush()
    {
        std::size_t done = 0;
        while (done < len_) {
            const ssize_t n =
                ::write(fd_, buf_ + done, len_ - done);
            if (n <= 0)
                break; // nothing recoverable in a signal handler
            done += static_cast<std::size_t>(n);
        }
        len_ = 0;
    }

  private:
    static constexpr const char *kHexDigits = "0123456789abcdef";
    int fd_;
    char buf_[512];
    std::size_t len_ = 0;
};

} // namespace

void
flightrecDumpImpl(const FlightRecorder &rec, int fd, int sig)
    LAG_NO_THREAD_SAFETY_ANALYSIS
{
    SigSafeWriter w(fd);
    w.str("{\"flightrec\": 1, \"signal\": ");
    w.i64(sig);

    const FatalNote note = fatalNote();
    if (note.what == nullptr) {
        w.str(", \"fatal\": null");
    } else {
        w.str(", \"fatal\": {\"what\": ");
        w.quoted(note.what, 256);
        w.str(", \"a\": ");
        w.quoted(note.detailA != nullptr ? note.detailA : "", 256);
        w.str(", \"b\": ");
        w.quoted(note.detailB != nullptr ? note.detailB : "", 256);
        w.ch('}');
    }

    // Request ring, most recent first, mutex deliberately skipped
    // (see file comment). Lengths re-clamped against a torn row.
    w.str(", \"requests\": [");
    bool first = true;
    {
        const std::size_t cap = rec.requestRing_.size();
        const std::uint64_t newest = rec.requestHead_;
        const std::uint64_t oldest =
            newest > cap ? newest - cap : 0;
        for (std::uint64_t i = newest; i-- > oldest;) {
            const auto &slot = rec.requestRing_[i % cap];
            if (!slot.used)
                continue;
            if (!first)
                w.str(", ");
            first = false;
            w.str("{\"method\": ");
            w.quoted(slot.method, sizeof(slot.method) - 1);
            w.str(", \"target\": ");
            w.quoted(slot.target, sizeof(slot.target) - 1);
            w.str(", \"status\": ");
            w.i64(slot.status);
            w.str(", \"dur_us\": ");
            w.i64(slot.durUs);
            w.str(", \"start_ns\": ");
            w.i64(slot.startNs);
            w.str(", \"slow\": ");
            w.str(slot.slow ? "true" : "false");
            w.str(", \"trace\": \"");
            w.hex128(slot.traceHi, slot.traceLo);
            w.str("\"}");
        }
    }
    w.ch(']');

    w.str(", \"events\": [");
    first = true;
    {
        const std::size_t cap = rec.eventRing_.size();
        const std::uint64_t newest =
            rec.eventHead_.load(std::memory_order_relaxed);
        const std::uint64_t oldest =
            newest > cap ? newest - cap : 0;
        for (std::uint64_t i = oldest; i < newest; ++i) {
            const auto &slot = rec.eventRing_[i % cap];
            const char *what =
                slot.what.load(std::memory_order_relaxed);
            if (what == nullptr)
                continue;
            const char *a =
                slot.a.load(std::memory_order_relaxed);
            const char *b =
                slot.b.load(std::memory_order_relaxed);
            if (!first)
                w.str(", ");
            first = false;
            w.str("{\"what\": ");
            w.quoted(what, 256);
            w.str(", \"a\": ");
            w.quoted(a != nullptr ? a : "", 256);
            w.str(", \"b\": ");
            w.quoted(b != nullptr ? b : "", 256);
            w.str(", \"at_ns\": ");
            w.i64(slot.atNs.load(std::memory_order_relaxed));
            w.ch('}');
        }
    }
    w.ch(']');

    w.str(", \"spans\": [");
    first = true;
    forEachSpan(
        [&](const SpanBuffer &buffer, const SpanEvent &span) {
            if (!first)
                w.str(", ");
            first = false;
            w.str("{\"name\": ");
            w.quoted(span.name, 256);
            w.str(", \"trace\": \"");
            w.hex128(span.traceHi, span.traceLo);
            w.str("\", \"tid\": ");
            w.u64(buffer.tid());
            w.str(", \"start_ns\": ");
            w.i64(span.startNs);
            w.str(", \"dur_ns\": ");
            w.i64(span.durNs);
            w.ch('}');
        },
        FlightRecorder::kSpansPerThread);
    w.str("]}\n");
}

void
FlightRecorder::dumpTo(int fd, int sig) const
{
    flightrecDumpImpl(*this, fd, sig);
}

bool
FlightRecorder::dumpToPath(int sig) const
{
    if (path_[0] == '\0')
        return false;
    const int fd = ::open(path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    dumpTo(fd, sig);
    ::close(fd);
    return true;
}

void
flightrecFatalDump(int sig)
{
    FlightRecorder *rec = armedFlightRecorder();
    if (rec != nullptr)
        rec->dumpToPath(sig);
}

} // namespace lag::obs
