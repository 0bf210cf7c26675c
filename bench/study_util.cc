#include "study_util.hh"

#include <cstdlib>
#include <filesystem>

#include "engine/incremental.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "util/logging.hh"

namespace lag::bench
{

app::StudyConfig
selectStudyConfig(int argc, char **argv)
{
    app::StudyConfig config;
    const char *quick = std::getenv("LAGALYZER_QUICK");
    if (quick != nullptr && quick[0] != '\0' && quick[0] != '0') {
        inform("bench: LAGALYZER_QUICK set; using the scaled-down "
               "study");
        config = app::StudyConfig::quickStudy();
    } else {
        config = app::StudyConfig::paperStudy();
    }
    const char *jobs_env = std::getenv("LAGALYZER_JOBS");
    if (jobs_env != nullptr && jobs_env[0] != '\0') {
        config.jobs = static_cast<std::uint32_t>(
            std::strtoul(jobs_env, nullptr, 10));
    }
    const char *bytes_env = std::getenv("LAGALYZER_CACHE_MAX_BYTES");
    if (bytes_env != nullptr && bytes_env[0] != '\0') {
        config.cacheMaxBytes = std::strtoull(bytes_env, nullptr, 10);
    }
    const char *age_env = std::getenv("LAGALYZER_CACHE_MAX_AGE");
    if (age_env != nullptr && age_env[0] != '\0') {
        config.cacheMaxAgeSeconds =
            std::strtoull(age_env, nullptr, 10);
    }
    if (argv != nullptr) {
        const std::uint32_t jobs = app::parseJobsOption(argc, argv);
        if (jobs != 0)
            config.jobs = jobs;
        const app::CacheLimitOptions limits =
            app::parseCacheLimitOptions(argc, argv);
        if (limits.maxBytes != 0)
            config.cacheMaxBytes = limits.maxBytes;
        if (limits.maxAgeSeconds != 0)
            config.cacheMaxAgeSeconds = limits.maxAgeSeconds;
    }
    return config;
}

std::vector<AppAnalysis>
analyzeStudy(app::Study &study)
{
    const app::StudyConfig &config = study.config();
    study.validate();
    const engine::ResultCache cache(config.cacheDir,
                                    config.fingerprint());

    std::vector<std::string> names;
    names.reserve(config.apps.size());
    for (const auto &app : config.apps)
        names.push_back(app.name);

    // Cached `.ares` entries where possible, decode + analyze (and
    // store back) only on a miss; only the manifest is validated up
    // front, so a warm analysis cache never opens a trace. The
    // per-app figure inputs come out of engine::finishApp — the same
    // code lagd's hot store serves — in [app][session] order, so
    // every bit matches at any worker count.
    engine::ThreadPool pool(config.jobs);
    engine::StudyAggregate aggregate = engine::aggregateFromCache(
        cache, names, config.sessionsPerApp,
        config.perceptibleThreshold, pool,
        [&study](std::size_t a, std::uint32_t s) {
            return study.loadSession(a, s);
        });
    inform("bench: ", aggregate.sessionsFromCache,
           " session(s) from the analysis cache, ",
           aggregate.sessionsRecomputed, " recomputed");

    // Bound the analysis directory after the run: stale-fingerprint
    // entries always go, then size/age limits when configured.
    // evict() itself informs about what it removed.
    const engine::CacheEvictionPolicy policy{
        config.cacheMaxBytes, config.cacheMaxAgeSeconds};
    cache.evict(policy);
    std::vector<AppAnalysis> apps;
    apps.reserve(aggregate.apps.size());
    for (engine::AppAggregate &app : aggregate.apps)
        apps.push_back(std::move(app.figures));
    return apps;
}

double
meanOf(const std::vector<AppAnalysis> &apps,
       const std::function<double(const AppAnalysis &)> &get)
{
    lag_assert(!apps.empty(), "meanOf over zero apps");
    double total = 0.0;
    for (const auto &app : apps)
        total += get(app);
    return total / static_cast<double>(apps.size());
}

std::string
figurePath(const std::string &name)
{
    std::filesystem::create_directories("figures");
    return "figures/" + name;
}

} // namespace lag::bench
