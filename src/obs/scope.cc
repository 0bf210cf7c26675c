#include "scope.hh"

#include <cstdio>
#include <cstdlib>

#include "chrome_trace.hh"
#include "flightrec.hh"
#include "metrics.hh"
#include "span.hh"
#include "util/logging.hh"
#include "util/shutdown.hh"

namespace lag::obs
{

namespace
{

/** Installed destinations; leaked so the atexit flush can read them
 * after main()'s locals are gone. */
ObsOptions *g_options = nullptr;
bool g_atexitRegistered = false;
bool g_flushed = false;

bool
endsWith(const std::string &text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

bool
writeFile(const std::string &path, const std::string &contents)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        warn("cannot write metrics file '", path, "'");
        return false;
    }
    const std::size_t written =
        std::fwrite(contents.data(), 1, contents.size(), file);
    const bool closed = std::fclose(file) == 0;
    if (written != contents.size() || !closed) {
        warn("short write to metrics file '", path, "'");
        return false;
    }
    return true;
}

} // namespace

void
install(const ObsOptions &options)
{
    if (!options.any())
        return;
    if (g_options == nullptr)
        g_options = new ObsOptions();
    *g_options = options;
    g_flushed = false;
    if (!options.selfTracePath.empty())
        setSpansEnabled(true);
    if (!options.flightrecPath.empty()) {
        // Arm the flight recorder (first configure wins) and route
        // fatal signals through its dump. Its span view reads the
        // span rings, so spans must be on for it to show any.
        FlightRecorderOptions recorder_options;
        recorder_options.dumpPath = options.flightrecPath;
        FlightRecorder::instance().configure(recorder_options);
        setSpansEnabled(true);
        installFatalSignalDumper(flightrecFatalDump);
    }
    if (!g_atexitRegistered) {
        g_atexitRegistered = true;
        std::atexit(flush);
        // A ^C must not leave a half-written self-trace or metrics
        // file: arm the shared signal machinery (batch default:
        // flush, then exit 128+signo). Daemons that armed Graceful
        // mode first keep control — the first installer wins — and
        // run the same flush via runShutdownCallbacks().
        installShutdownHandler(ShutdownMode::FlushAndExit);
        onShutdown(flush);
    }
}

void
flush()
{
    if (g_options == nullptr || g_flushed)
        return;
    g_flushed = true;

    if (!g_options->selfTracePath.empty()) {
        // Stop recording first so the drain below sees a quiesced
        // ring from this thread; workers may still append, and the
        // walk skips any slot rewritten while it reads.
        setSpansEnabled(false);
        if (writeChromeTrace(g_options->selfTracePath)) {
            std::uint64_t recorded = 0;
            std::uint64_t overwritten = 0;
            for (const SpanBuffer *buffer = firstSpanBuffer();
                 buffer != nullptr; buffer = buffer->next()) {
                recorded += buffer->recorded();
                overwritten += buffer->overwritten();
            }
            inform("self-trace: wrote ", recorded - overwritten,
                   " spans to '", g_options->selfTracePath, "' (",
                   overwritten, " overwritten)");
        }
    }

    if (!g_options->metricsPath.empty()) {
        const std::string dump =
            endsWith(g_options->metricsPath, ".json")
                ? metrics().dumpJson()
                : metrics().dumpText();
        if (writeFile(g_options->metricsPath, dump)) {
            inform("metrics: wrote '", g_options->metricsPath,
                   "'");
        }
    }

    inform(metrics().summaryLine());
}

} // namespace lag::obs
