#include "study.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "catalog.hh"
#include "engine/pool.hh"
#include "obs/span.hh"
#include "trace/io.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace lag::app
{

namespace fs = std::filesystem;

StudyConfig
StudyConfig::paperStudy()
{
    StudyConfig config;
    config.apps = defaultCatalog();
    return config;
}

StudyConfig
StudyConfig::quickStudy(int session_seconds)
{
    StudyConfig config;
    config.apps = defaultCatalog();
    for (auto &app : config.apps) {
        const double shrink =
            static_cast<double>(secToNs(session_seconds)) /
            static_cast<double>(app.sessionLength);
        app.sessionLength = secToNs(session_seconds);
        // Keep rates, shrink pattern variety with the session so
        // the CRP still saturates realistically.
        app.patternConcentration =
            std::max(5.0, app.patternConcentration * shrink * 4.0);
        // Long drag bursts would span most of a short session.
        app.dragBurstLen = std::min(app.dragBurstLen, 200.0);
    }
    config.cacheDir = "lagalyzer-cache-quick";
    return config;
}

namespace
{

/** Bumped whenever generator behaviour (not parameters) changes, so
 * stale caches from older binaries are regenerated. */
constexpr int kStudyBehaviorVersion = 5;

} // namespace

std::string
StudyConfig::fingerprint() const
{
    std::ostringstream out;
    out << kStudyBehaviorVersion << '|';
    out << trace::kFormatVersion << '|' << sessionsPerApp << '|'
        << sessionOptions.filterThreshold << '|'
        << sessionOptions.samplePeriod << '|' << sessionOptions.cores
        << '|' << perceptibleThreshold << '|';
    for (const auto &app : apps)
        out << app.fingerprint() << '\n';
    Fnv1aHasher hasher;
    hasher.addString(out.str());
    std::ostringstream hex;
    hex << std::hex << hasher.digest();
    return hex.str();
}

Study::Study(StudyConfig config) : config_(std::move(config))
{
    lag_assert(!config_.apps.empty(), "study needs at least one app");
    lag_assert(config_.sessionsPerApp > 0, "study needs sessions");
}

std::string
Study::tracePath(std::size_t app_index,
                 std::uint32_t session_index) const
{
    const AppParams &app = config_.apps[app_index];
    return config_.cacheDir + "/" + app.name + "_s" +
           std::to_string(session_index) + ".lag";
}

bool
Study::cacheValid() const
{
    std::ifstream manifest(config_.cacheDir + "/manifest");
    if (!manifest)
        return false;
    std::string stored;
    std::getline(manifest, stored);
    return stored == config_.fingerprint();
}

void
Study::writeManifest() const
{
    const std::string path = config_.cacheDir + "/manifest";
    const std::string temp = path + ".tmp";
    {
        std::ofstream manifest(temp, std::ios::trunc);
        manifest << config_.fingerprint() << '\n';
        if (!manifest) {
            warn("study: cannot write manifest temp file '", temp,
                 "'");
            return;
        }
    }
    // Atomic rename: a crash mid-write leaves the old manifest (or
    // none), never a torn one, so the cache stays self-describing.
    fs::rename(temp, path);
}

void
Study::validate()
{
    validateCache();
}

void
Study::validateCache()
{
    if (validated_)
        return;
    fs::create_directories(config_.cacheDir);
    if (!cacheValid()) {
        inform("study: configuration changed; clearing trace cache "
               "in ",
               config_.cacheDir);
        for (const auto &entry :
             fs::directory_iterator(config_.cacheDir)) {
            if (entry.path().extension() == ".lag")
                fs::remove(entry.path());
        }
        // Stale analysis results are keyed by the old fingerprint
        // and would only pile up; drop them with the traces.
        fs::remove_all(config_.cacheDir + "/analysis");
        writeManifest();
    }
    validated_ = true;
}

void
Study::simulateMissing(
    const std::vector<std::vector<std::uint32_t>> &missing)
{
    // Flatten the ragged [app][missing item] grid in app order; each
    // index simulates one session and writes only its own file, so
    // the run is independent of scheduling order.
    std::vector<std::pair<std::size_t, std::size_t>> items;
    for (std::size_t a = 0; a < missing.size(); ++a) {
        for (std::size_t i = 0; i < missing[a].size(); ++i)
            items.emplace_back(a, i);
    }

    engine::ThreadPool pool(config_.jobs);
    engine::parallelFor(pool, items.size(), [&](std::size_t k) {
        const auto [a, i] = items[k];
        const std::uint32_t s = missing[a][i];
        trace::Trace simulated;
        {
            LAG_SPAN_ARG("simulate", "item", i);
            inform("study: simulating ", config_.apps[a].name,
                   " session ", s + 1, "/", config_.sessionsPerApp,
                   " ...");
            simulated = runSession(config_.apps[a], s,
                                   config_.sessionOptions)
                            .trace;
        }
        LAG_SPAN_ARG("encode", "item", i);
        trace::writeTraceFileAtomic(simulated, tracePath(a, s));
    });
}

std::vector<std::vector<std::string>>
Study::ensureTraces()
{
    validateCache();

    std::vector<std::vector<std::string>> paths(config_.apps.size());
    std::vector<std::vector<std::uint32_t>> missing(
        config_.apps.size());
    std::size_t missing_count = 0;
    for (std::size_t a = 0; a < config_.apps.size(); ++a) {
        for (std::uint32_t s = 0; s < config_.sessionsPerApp; ++s) {
            const std::string path = tracePath(a, s);
            if (!fs::exists(path)) {
                missing[a].push_back(s);
                ++missing_count;
            }
            paths[a].push_back(path);
        }
    }
    if (missing_count > 0)
        simulateMissing(missing);
    return paths;
}

core::Session
Study::loadSession(std::size_t app_index,
                   std::uint32_t session_index) const
{
    lag_assert(app_index < config_.apps.size(), "bad app index");
    lag_assert(session_index < config_.sessionsPerApp,
               "bad session index");
    const std::string path = tracePath(app_index, session_index);
    if (fs::exists(path)) {
        try {
            return core::Session::fromFile(path);
        } catch (const trace::TraceError &e) {
            warn("study: trace '", path, "' unreadable (", e.what(),
                 "); re-simulating");
        }
    }
    inform("study: simulating ", config_.apps[app_index].name,
           " session ", session_index + 1, "/",
           config_.sessionsPerApp, " ...");
    SessionRunResult result = runSession(
        config_.apps[app_index], session_index,
        config_.sessionOptions);
    fs::create_directories(config_.cacheDir);
    trace::writeTraceFileAtomic(result.trace, path);
    return core::Session::fromTrace(std::move(result.trace));
}

AppSessions
Study::loadApp(std::size_t app_index)
{
    lag_assert(app_index < config_.apps.size(), "bad app index");
    ensureTraces();
    AppSessions loaded;
    loaded.params = config_.apps[app_index];
    loaded.sessions.reserve(config_.sessionsPerApp);
    for (std::uint32_t s = 0; s < config_.sessionsPerApp; ++s)
        loaded.sessions.push_back(loadSession(app_index, s));
    return loaded;
}

} // namespace lag::app
