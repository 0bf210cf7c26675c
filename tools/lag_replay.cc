/**
 * @file
 * lag_replay — write an existing trace file out as if it were being
 * recorded live, for exercising the ingest path.
 *
 * Reads SRC fully, then appends its bytes to DEST in chunk-sized
 * writes with a flush after every chunk. The default chunk size is
 * prime, so flush boundaries land mid-record almost always — the
 * tail-reader must cope with partial records to follow along. With
 * --rps the replay is paced to approximately that many records per
 * second (scaled to bytes via the trace's record count); with
 * --rps 0 (default) it writes as fast as the disk takes it.
 *
 * --batch-json instead prints the batch-analysis reference answer
 * for SRC — the exact `/v1/patterns` body lagd serves once a follow
 * of this trace completes (core::patternsJson over the single
 * session's engine::finishApp merge). The CI
 * ingest smoke diffs the live answer against this output.
 *
 * Usage: ./lag_replay SRC.lag DEST.lag [--rps N] [--chunk BYTES]
 *        ./lag_replay SRC.lag --batch-json [--threshold-ms N]
 *
 * Exit status: 0 on success, 2 on usage or I/O errors.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/figure_json.hh"
#include "core/session.hh"
#include "engine/incremental.hh"
#include "engine/result_cache.hh"
#include "trace/io.hh"

namespace
{

int
usage()
{
    std::cerr << "usage: lag_replay SRC.lag DEST.lag [--rps N] "
                 "[--chunk BYTES]\n"
                 "       lag_replay SRC.lag --batch-json "
                 "[--threshold-ms N]\n";
    return 2;
}

/** Count every record the tailer will decode, for rps pacing. */
std::uint64_t
recordCount(const lag::trace::Trace &trace)
{
    std::uint64_t count = trace.threads.size() +
                          trace.strings.size() +
                          trace.events.size() +
                          trace.samples.size();
    return count > 0 ? count : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lag;

    std::string src;
    std::string dest;
    bool batch_json = false;
    std::uint64_t rps = 0;
    std::size_t chunk = 4093; // prime: flushes land mid-record
    int threshold_ms = 100;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--batch-json") {
            batch_json = true;
        } else if (arg == "--rps") {
            if (i + 1 >= argc)
                return usage();
            rps = static_cast<std::uint64_t>(
                std::atoll(argv[++i]));
        } else if (arg == "--chunk") {
            if (i + 1 >= argc)
                return usage();
            chunk = static_cast<std::size_t>(std::atoll(argv[++i]));
            if (chunk == 0)
                return usage();
        } else if (arg == "--threshold-ms") {
            if (i + 1 >= argc)
                return usage();
            threshold_ms = std::atoi(argv[++i]);
            if (threshold_ms < 0)
                return usage();
        } else if (!arg.empty() && arg.front() == '-') {
            return usage();
        } else if (src.empty()) {
            src = std::string(arg);
        } else if (dest.empty()) {
            dest = std::string(arg);
        } else {
            return usage();
        }
    }
    if (src.empty() || (dest.empty() && !batch_json))
        return usage();

    if (batch_json) {
        try {
            const core::Session session = core::Session::fromFile(src);
            const std::string &app = session.meta().appName;
            const engine::SessionAnalysis analysis =
                engine::analyzeSession(
                    session, msToNs(threshold_ms));
            const engine::AppAggregate finished =
                engine::finishApp(app, {&analysis}, {});
            std::cout << core::patternsJson(app, finished.merged,
                                            "episodes", 0)
                      << '\n';
        } catch (const std::exception &e) {
            std::cerr << "lag_replay: " << e.what() << '\n';
            return 2;
        }
        return 0;
    }

    std::string bytes;
    std::uint64_t records = 1;
    try {
        std::ifstream in(src, std::ios::binary);
        if (!in) {
            std::cerr << "lag_replay: cannot open '" << src
                      << "'\n";
            return 2;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
        // Decode once up front: validates the source and yields the
        // record count the rps pacing is defined over.
        records = recordCount(trace::deserializeTrace(bytes));
    } catch (const std::exception &e) {
        std::cerr << "lag_replay: " << e.what() << '\n';
        return 2;
    }

    // records/sec → bytes/sec through the file's own density.
    const double bytes_per_sec =
        rps > 0 ? static_cast<double>(bytes.size()) *
                      static_cast<double>(rps) /
                      static_cast<double>(records)
                : 0.0;

    std::ofstream out(dest,
                      std::ios::binary | std::ios::trunc);
    if (!out) {
        std::cerr << "lag_replay: cannot open '" << dest
                  << "' for writing\n";
        return 2;
    }
    std::size_t offset = 0;
    while (offset < bytes.size()) {
        const std::size_t n =
            std::min(chunk, bytes.size() - offset);
        out.write(bytes.data() + offset,
                  static_cast<std::streamsize>(n));
        out.flush();
        if (!out) {
            std::cerr << "lag_replay: write to '" << dest
                      << "' failed\n";
            return 2;
        }
        offset += n;
        if (bytes_per_sec > 0.0 && offset < bytes.size()) {
            const double seconds =
                static_cast<double>(n) / bytes_per_sec;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
        }
    }
    std::cout << "lag_replay: wrote " << bytes.size()
              << " bytes (" << records << " records) to " << dest
              << '\n';
    return 0;
}
