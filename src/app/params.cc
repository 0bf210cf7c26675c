#include "params.hh"

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>

#include "engine/pool.hh"
#include "util/logging.hh"

namespace lag::app
{

namespace
{

void
dump(std::ostringstream &out, const CostModel &cost)
{
    out << cost.median << '/' << cost.sigma << '/' << cost.min << '/'
        << cost.max << ';';
}

} // namespace

std::string
AppParams::fingerprint() const
{
    std::ostringstream out;
    out << name << '|' << version << '|' << classCount << '|'
        << appPackage << '|' << sessionLength << '|' << actionsPerSec
        << '|' << typingShare << '|' << clickShare << '|' << dragShare
        << '|' << typingBurstLen << '|' << typingRate << '|'
        << dragBurstLen << '|' << dragRate << '|' << dragRepaintEvery
        << '|';
    dump(out, typeCost);
    dump(out, dragCost);
    dump(out, clickCost);
    out << heavyClickProb << '|';
    dump(out, heavyClickCost);
    out << paintInListenerProb << '|' << postRepaintProb << '|'
        << asyncRepaintShare << '|' << paintDepthMin << '|'
        << paintDepthMax << '|' << paintFanout << '|';
    dump(out, paintNodeCost);
    out << systemRepaintRate << '|' << nativeInPaintProb << '|'
        << nativeInListenerProb << '|';
    dump(out, nativeCost);
    out << allocPerMsWork << '|' << youngCapacityBytes << '|'
        << majorPauseMedian << '|'
        << explicitGcProb << '|' << comboSleepProb << '|';
    dump(out, comboSleep);
    out << modalWaitProb << '|';
    dump(out, modalWait);
    out << contentionProb << '|' << contentionMonitor << '|';
    dump(out, firstUseCost);
    out << listenerClassCount << '|' << paintClassCount << '|'
        << classSkew << '|' << patternConcentration << '|'
        << repaintConcentration << '|'
        << costJitterSigma << '|' << libraryTimeShare << '|' << baseSeed
        << '|';
    for (const auto &timer : timers) {
        out << "T:" << timer.name << ',' << timer.period << ','
            << timer.postsRepaint << ',';
        dump(out, timer.handlerCost);
        out << timer.handlerAllocPerMs << ',' << timer.activeFrom << ','
            << timer.activeTo << '|';
    }
    for (const auto &loader : loaders) {
        out << "L:" << loader.name << ',' << loader.startAt << ','
            << loader.endAt << ',' << loader.chunkCost << ','
            << loader.restBetweenChunks << ',' << loader.allocPerMs
            << ',' << loader.postProb << ',';
        dump(out, loader.postHandlerCost);
        out << '|';
    }
    for (const auto &hog : hogs) {
        out << "H:" << hog.name << ',' << hog.period << ',';
        dump(out, hog.holdCost);
        out << hog.monitorId << '|';
    }
    return out.str();
}

std::uint32_t
defaultJobs()
{
    return static_cast<std::uint32_t>(
        engine::ThreadPool::defaultConcurrency());
}

namespace
{

/** Parse a decimal worker count; fatal() on junk or non-positive. */
std::uint32_t
parseJobsValue(std::string_view value)
{
    const std::string text(value);
    char *end = nullptr;
    const long parsed = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || parsed <= 0)
        fatal("--jobs needs a positive integer, got '", text, "'");
    return static_cast<std::uint32_t>(parsed);
}

} // namespace

std::uint32_t
parseJobsOption(int &argc, char **argv)
{
    std::uint32_t jobs = 0;
    int out = 0;
    for (int in = 0; in < argc; ++in) {
        const std::string_view arg(argv[in]);
        if (arg == "--jobs") {
            if (in + 1 >= argc)
                fatal("--jobs needs a value");
            jobs = parseJobsValue(argv[++in]);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            jobs = parseJobsValue(arg.substr(7));
        } else {
            argv[out++] = argv[in];
        }
    }
    argc = out;
    return jobs;
}

int
parseIntValue(std::string_view option, std::string_view value, int min)
{
    const std::string text(value);
    char *end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || parsed < min ||
        parsed > std::numeric_limits<int>::max())
        fatal(option, " needs a whole number >= ", min, ", got '",
              text, "'");
    return static_cast<int>(parsed);
}

namespace
{

/** Parse a byte count with an optional k/M/G (binary) suffix;
 * fatal() on junk or a negative value. */
std::uint64_t
parseByteValue(std::string_view option, std::string_view value)
{
    const std::string text(value);
    char *end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    std::uint64_t scale = 1;
    if (end != text.c_str()) {
        switch (*end) {
        case 'k':
        case 'K':
            scale = 1ull << 10;
            ++end;
            break;
        case 'm':
        case 'M':
            scale = 1ull << 20;
            ++end;
            break;
        case 'g':
        case 'G':
            scale = 1ull << 30;
            ++end;
            break;
        default:
            break;
        }
    }
    if (end == text.c_str() || *end != '\0' || parsed < 0) {
        fatal(option, " needs a byte count (optionally k/M/G), got '",
              text, "'");
    }
    return static_cast<std::uint64_t>(parsed) * scale;
}

/** Parse a non-negative seconds count; fatal() on junk. */
std::uint64_t
parseSecondsValue(std::string_view option, std::string_view value)
{
    const std::string text(value);
    char *end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || parsed < 0)
        fatal(option, " needs a seconds count, got '", text, "'");
    return static_cast<std::uint64_t>(parsed);
}

} // namespace

CacheLimitOptions
parseCacheLimitOptions(int &argc, char **argv)
{
    CacheLimitOptions limits;
    int out = 0;
    for (int in = 0; in < argc; ++in) {
        const std::string_view arg(argv[in]);
        const auto next = [&](std::string_view option) {
            if (in + 1 >= argc)
                fatal(option, " needs a value");
            return std::string_view(argv[++in]);
        };
        if (arg == "--cache-max-bytes") {
            limits.maxBytes =
                parseByteValue(arg, next("--cache-max-bytes"));
        } else if (arg.rfind("--cache-max-bytes=", 0) == 0) {
            limits.maxBytes = parseByteValue(
                "--cache-max-bytes", arg.substr(18));
        } else if (arg == "--cache-max-age") {
            limits.maxAgeSeconds =
                parseSecondsValue(arg, next("--cache-max-age"));
        } else if (arg.rfind("--cache-max-age=", 0) == 0) {
            limits.maxAgeSeconds = parseSecondsValue(
                "--cache-max-age", arg.substr(16));
        } else {
            argv[out++] = argv[in];
        }
    }
    argc = out;
    return limits;
}

namespace
{

/** Parse a TCP port (0..65535); fatal() on junk. */
std::uint16_t
parsePortValue(std::string_view value)
{
    const std::string text(value);
    char *end = nullptr;
    const long parsed = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || parsed < 0 ||
        parsed > 65535)
        fatal("--port needs a port number (0..65535), got '", text,
              "'");
    return static_cast<std::uint16_t>(parsed);
}

/** Parse a positive connection cap; fatal() on junk. */
std::size_t
parseConnectionsValue(std::string_view value)
{
    const std::string text(value);
    char *end = nullptr;
    const long parsed = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || parsed <= 0)
        fatal("--max-connections needs a positive integer, got '",
              text, "'");
    return static_cast<std::size_t>(parsed);
}

} // namespace

ServeOptions
parseServeOptions(int &argc, char **argv)
{
    ServeOptions options;
    bool port_set = false;
    int out = 0;
    for (int in = 0; in < argc; ++in) {
        const std::string_view arg(argv[in]);
        const auto next = [&](std::string_view option) {
            if (in + 1 >= argc)
                fatal(option, " needs a value");
            return std::string_view(argv[++in]);
        };
        if (arg == "--port") {
            options.port = parsePortValue(next("--port"));
            port_set = true;
        } else if (arg.rfind("--port=", 0) == 0) {
            options.port = parsePortValue(arg.substr(7));
            port_set = true;
        } else if (arg == "--max-connections") {
            options.maxConnections =
                parseConnectionsValue(next("--max-connections"));
        } else if (arg.rfind("--max-connections=", 0) == 0) {
            options.maxConnections =
                parseConnectionsValue(arg.substr(18));
        } else {
            argv[out++] = argv[in];
        }
    }
    argc = out;
    if (!port_set) {
        const char *env = std::getenv("LAGALYZER_SERVE_PORT");
        if (env != nullptr && env[0] != '\0')
            options.port = parsePortValue(env);
    }
    return options;
}

obs::ObsOptions
parseObsOptions(int &argc, char **argv)
{
    obs::ObsOptions options;
    int out = 0;
    for (int in = 0; in < argc; ++in) {
        const std::string_view arg(argv[in]);
        const auto next = [&](std::string_view option) {
            if (in + 1 >= argc)
                fatal(option, " needs a file path");
            return std::string(argv[++in]);
        };
        if (arg == "--self-trace") {
            options.selfTracePath = next("--self-trace");
        } else if (arg.rfind("--self-trace=", 0) == 0) {
            options.selfTracePath = std::string(arg.substr(13));
        } else if (arg == "--metrics-out") {
            options.metricsPath = next("--metrics-out");
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            options.metricsPath = std::string(arg.substr(14));
        } else if (arg == "--flightrec-path") {
            options.flightrecPath = next("--flightrec-path");
        } else if (arg.rfind("--flightrec-path=", 0) == 0) {
            options.flightrecPath = std::string(arg.substr(17));
        } else {
            argv[out++] = argv[in];
        }
    }
    argc = out;
    if (options.selfTracePath.empty()) {
        const char *env = std::getenv("LAGALYZER_SELF_TRACE");
        if (env != nullptr && env[0] != '\0')
            options.selfTracePath = env;
    }
    if (options.metricsPath.empty()) {
        const char *env = std::getenv("LAGALYZER_METRICS_OUT");
        if (env != nullptr && env[0] != '\0')
            options.metricsPath = env;
    }
    if (options.flightrecPath.empty()) {
        const char *env = std::getenv("LAGALYZER_FLIGHTREC");
        if (env != nullptr && env[0] != '\0')
            options.flightrecPath = env;
    }
    if (options.selfTracePath.empty() && options.metricsPath.empty())
        return options;
    if (options.selfTracePath == options.metricsPath)
        fatal("--self-trace and --metrics-out must differ");
    return options;
}

} // namespace lag::app
