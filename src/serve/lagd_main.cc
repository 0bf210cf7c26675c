/**
 * @file
 * lagd — the LagAlyzer query daemon.
 *
 * Loads the study's cross-session aggregates hot from the result
 * cache (engine::aggregateFromCache) and answers HTTP queries over
 * them: per-app pattern rankings, CDFs, episode drill-downs and the
 * paper's figure/table data, plus health and metrics endpoints.
 *
 * Usage: ./lagd [--quick [SECONDS]] [--port N] [--max-connections N]
 *               [--cache-dir PATH] [--port-file PATH] [--jobs N]
 *               [--self-trace OUT] [--metrics-out OUT]
 *               [--flightrec-path OUT] [--slow-request-ms N]
 *               [--watchdog-ms N] [--follow DIR] [--epoch-ms N]
 *
 *  --quick       serve StudyConfig::quickStudy (default 10 s
 *                sessions) instead of the full paper study;
 *  --follow      live-ingest mode: skip the batch cache load and
 *                instead tail every `*.lag` trace file under DIR
 *                (rescanned each epoch), publishing partial-session
 *                analyses into the hot store as the files grow;
 *                `/v1/ingest` exposes the per-source state;
 *  --epoch-ms    ingest epoch period in follow mode, start to start
 *                (default 100);
 *  --port        listen port (default 8437, or LAGALYZER_SERVE_PORT;
 *                0 = ephemeral, see the printed line / --port-file);
 *  --port-file   write the bound port to PATH (atomic rename) once
 *                listening — how scripts find an ephemeral port;
 *  --flightrec-path  where fatal signals dump the flight-recorder
 *                rings (default lagd.flightrec; also
 *                LAGALYZER_FLIGHTREC);
 *  --slow-request-ms requests slower than N ms get their span tree
 *                logged and flagged at /debugz/requests (0 = off);
 *  --watchdog-ms process watchdog sample period (RSS/fds/uptime
 *                gauges + stalled-pool detection; 0 = off,
 *                default 1000).
 *
 * SIGINT/SIGTERM drain gracefully: stop accepting, finish in-flight
 * requests, flush the obs exporters, exit 0.
 */

#include <poll.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/params.hh"
#include "app/study.hh"
#include "engine/ingest.hh"
#include "engine/pool.hh"
#include "obs/flightrec.hh"
#include "obs/scope.hh"
#include "obs/span.hh"
#include "obs/watchdog.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "util/logging.hh"
#include "util/shutdown.hh"

namespace
{

/** Write @p port to @p path via temp file + atomic rename, so a
 * poller never reads a half-written file. */
void
writePortFile(const std::string &path, std::uint16_t port)
{
    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "w");
    if (file == nullptr)
        lag::fatal("lagd: cannot write port file '", tmp,
                   "': ", std::strerror(errno));
    std::fprintf(file, "%u\n", static_cast<unsigned>(port));
    std::fclose(file);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        lag::fatal("lagd: cannot rename port file to '", path,
                   "': ", std::strerror(errno));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lag;

    // Graceful first: the daemon owns its shutdown; obs::install's
    // FlushAndExit request below then stays a no-op.
    installShutdownHandler(ShutdownMode::Graceful);
    obs::install(app::parseObsOptions(argc, argv));

    const app::ServeOptions serve_options =
        app::parseServeOptions(argc, argv);
    const std::uint32_t jobs = app::parseJobsOption(argc, argv);

    bool quick = false;
    int quick_seconds = 10;
    int slow_request_ms = 0;
    int watchdog_ms = 1000;
    int epoch_ms = 100;
    std::string cache_dir;
    std::string port_file;
    std::string follow_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--quick") {
            quick = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                quick_seconds = app::parseIntValue(arg, argv[++i], 1);
        } else if (arg == "--cache-dir") {
            if (i + 1 >= argc)
                fatal("--cache-dir needs a path");
            cache_dir = argv[++i];
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cache_dir = std::string(arg.substr(12));
        } else if (arg == "--port-file") {
            if (i + 1 >= argc)
                fatal("--port-file needs a path");
            port_file = argv[++i];
        } else if (arg.rfind("--port-file=", 0) == 0) {
            port_file = std::string(arg.substr(12));
        } else if (arg == "--slow-request-ms") {
            if (i + 1 >= argc)
                fatal("--slow-request-ms needs a value");
            slow_request_ms = app::parseIntValue(arg, argv[++i], 0);
        } else if (arg.rfind("--slow-request-ms=", 0) == 0) {
            slow_request_ms = app::parseIntValue(
                "--slow-request-ms", arg.substr(18), 0);
        } else if (arg == "--follow") {
            if (i + 1 >= argc)
                fatal("--follow needs a directory");
            follow_dir = argv[++i];
        } else if (arg.rfind("--follow=", 0) == 0) {
            follow_dir = std::string(arg.substr(9));
        } else if (arg == "--epoch-ms") {
            if (i + 1 >= argc)
                fatal("--epoch-ms needs a value");
            epoch_ms = app::parseIntValue(arg, argv[++i], 1);
        } else if (arg.rfind("--epoch-ms=", 0) == 0) {
            epoch_ms =
                app::parseIntValue("--epoch-ms", arg.substr(11), 1);
        } else if (arg == "--watchdog-ms") {
            if (i + 1 >= argc)
                fatal("--watchdog-ms needs a value");
            watchdog_ms = app::parseIntValue(arg, argv[++i], 0);
        } else if (arg.rfind("--watchdog-ms=", 0) == 0) {
            watchdog_ms =
                app::parseIntValue("--watchdog-ms", arg.substr(14), 0);
        } else {
            fatal("lagd: unknown argument '", arg, "'");
        }
    }

    // The daemon always flies with the recorder armed: if
    // --flightrec-path already configured it (obs::install above),
    // this first-call-wins configure is a no-op; otherwise it arms
    // the rings with the default dump path. Spans must be on for
    // the rings (and /debugz span trees) to see anything.
    {
        obs::FlightRecorderOptions frec;
        frec.dumpPath = "lagd.flightrec";
        obs::FlightRecorder::instance().configure(frec);
        installFatalSignalDumper(obs::flightrecFatalDump);
        obs::setSpansEnabled(true);
    }

    app::StudyConfig config =
        quick ? app::StudyConfig::quickStudy(quick_seconds)
              : app::StudyConfig::paperStudy();
    if (!cache_dir.empty())
        config.cacheDir = cache_dir;
    config.jobs = jobs;

    engine::ThreadPool pool(config.jobs);
    serve::HotStore store(config, pool);

    std::unique_ptr<engine::IngestPipeline> ingest;
    if (follow_dir.empty()) {
        inform("lagd: loading ", store.appCount(),
               " apps from the result cache");
        store.load();
    } else {
        inform("lagd: following '", follow_dir,
               "' (epoch every ", epoch_ms, " ms)");
        store.startFollow();
        engine::IngestOptions ingest_options;
        ingest_options.perceptibleThreshold =
            config.perceptibleThreshold;
        ingest_options.epochMillis = epoch_ms;
        ingest = std::make_unique<engine::IngestPipeline>(
            pool, ingest_options,
            [&store](std::vector<engine::IngestUpdate> updates) {
                store.applyIngest(std::move(updates));
            });
        ingest->addDirectory(follow_dir);
        ingest->scanDirectory(follow_dir);
    }

    serve::Router router;
    store.installRoutes(router);
    if (ingest)
        serve::installIngestRoute(router, *ingest);

    serve::ServerConfig server_config;
    server_config.port = serve_options.port;
    server_config.maxConnections = serve_options.maxConnections;
    server_config.slowRequestMs = slow_request_ms;
    serve::HttpServer server(server_config, std::move(router),
                             pool);
    server.start();
    if (ingest)
        ingest->start();

    obs::WatchdogOptions watchdog_options;
    watchdog_options.periodMs = watchdog_ms;
    obs::Watchdog watchdog(watchdog_options);
    if (watchdog_ms > 0)
        watchdog.start();

    std::cout << "lagd: listening on 127.0.0.1:" << server.port()
              << std::endl;
    if (!port_file.empty())
        writePortFile(port_file, server.port());

    // Park until SIGINT/SIGTERM; the self-pipe makes the wait
    // interruptible without sig-handler heroics.
    while (!shutdownRequested()) {
        pollfd entry{};
        entry.fd = shutdownPollFd();
        entry.events = POLLIN;
        if (::poll(&entry, 1, -1) < 0 && errno != EINTR)
            break;
    }

    inform("lagd: signal ", shutdownSignal(),
           " received, draining");
    if (ingest)
        ingest->stop();
    server.stop();
    runShutdownCallbacks();
    std::cout << "lagd: shut down cleanly" << std::endl;
    return 0;
}
