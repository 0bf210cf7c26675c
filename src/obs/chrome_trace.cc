#include "chrome_trace.hh"

#include <cstdio>

#include "span.hh"
#include "trace_context.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace lag::obs
{

namespace
{

/** Append nanoseconds as a decimal microsecond value ("12.345"). */
void
appendMicros(std::string &out, std::int64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    out += buf;
}

} // namespace

std::string
chromeTraceJson()
{
    std::string out;
    out += "{\"traceEvents\":[";
    bool first = true;

    // Thread-name metadata first: one ph:"M" event per buffer makes
    // Perfetto label each track with the lag thread name.
    for (const SpanBuffer *buffer = firstSpanBuffer();
         buffer != nullptr; buffer = buffer->next()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":";
        out += std::to_string(buffer->tid());
        out += ",\"args\":{\"name\":";
        appendJsonString(out, buffer->threadName());
        out += "}}";
    }

    forEachSpan([&](const SpanBuffer &buffer, const SpanEvent &event) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "{\"name\":";
        appendJsonString(out, event.name);
        out += ",\"cat\":\"lag\",\"ph\":\"X\",\"ts\":";
        appendMicros(out, event.startNs);
        out += ",\"dur\":";
        appendMicros(out, event.durNs);
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(buffer.tid());
        const bool hasTrace = (event.traceHi | event.traceLo) != 0;
        if (event.argKey != nullptr || hasTrace) {
            out += ",\"args\":{";
            if (event.argKey != nullptr) {
                appendJsonString(out, event.argKey);
                out += ':';
                out += std::to_string(event.argValue);
            }
            if (hasTrace) {
                if (event.argKey != nullptr)
                    out += ',';
                out += "\"trace\":\"";
                out += traceIdHex(
                    TraceContext{event.traceHi, event.traceLo});
                out += '"';
            }
            out += '}';
        }
        out += '}';
    });

    out += "\n]}\n";
    return out;
}

bool
writeChromeTrace(const std::string &path)
{
    const std::string json = chromeTraceJson();
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        warn("cannot write self-trace file '", path, "'");
        return false;
    }
    const std::size_t written =
        std::fwrite(json.data(), 1, json.size(), file);
    const bool closed = std::fclose(file) == 0;
    const bool ok = written == json.size() && closed;
    if (!ok)
        warn("short write to self-trace file '", path, "'");
    return ok;
}

} // namespace lag::obs
