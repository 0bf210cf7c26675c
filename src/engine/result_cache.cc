#include "result_cache.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>

#include "analysis_partial.hh"
#include "core/pattern.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "trace/bytes.hh"
#include "trace/mapped_file.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace lag::engine
{

namespace fs = std::filesystem;

namespace
{

/** Cache instruments; looked up once, then pure atomics. */
struct CacheMetrics
{
    obs::Counter &hit = obs::metrics().counter("cache.hit");
    obs::Counter &missCount = obs::metrics().counter("cache.miss");
    obs::Counter &storeCount =
        obs::metrics().counter("cache.store");
    obs::Counter &storeFailures =
        obs::metrics().counter("cache.store.failures");
    obs::Counter &evictFiles =
        obs::metrics().counter("cache.evict.files");
    obs::Counter &evictBytes =
        obs::metrics().counter("cache.evict.bytes");
    obs::Gauge &keptBytes =
        obs::metrics().gauge("cache.kept.bytes");
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics metrics;
    return metrics;
}

} // namespace

SessionAnalysis
analyzeSession(const core::Session &session,
               DurationNs perceptible_threshold)
{
    return AnalysisPartial(perceptible_threshold).finish(session);
}

namespace
{

constexpr char kMagic[8] = {'L', 'A', 'G', 'A', 'R', 'E', 'S', '\0'};

void
putF64(trace::ByteWriter &w, double v)
{
    w.u64(std::bit_cast<std::uint64_t>(v));
}

double
getF64(trace::ByteReader &r)
{
    return std::bit_cast<double>(r.u64());
}

void
writeTriggerShares(trace::ByteWriter &w,
                   const core::TriggerShares &s)
{
    putF64(w, s.input);
    putF64(w, s.output);
    putF64(w, s.async);
    putF64(w, s.unspecified);
    w.u64(s.episodeCount);
}

core::TriggerShares
readTriggerShares(trace::ByteReader &r)
{
    core::TriggerShares s;
    s.input = getF64(r);
    s.output = getF64(r);
    s.async = getF64(r);
    s.unspecified = getF64(r);
    s.episodeCount = static_cast<std::size_t>(r.u64());
    return s;
}

void
writeLocationShares(trace::ByteWriter &w,
                    const core::LocationShares &s)
{
    putF64(w, s.appFraction);
    putF64(w, s.libraryFraction);
    w.u64(s.sampleCount);
    putF64(w, s.gcFraction);
    putF64(w, s.nativeFraction);
    w.u64(s.episodeCount);
}

core::LocationShares
readLocationShares(trace::ByteReader &r)
{
    core::LocationShares s;
    s.appFraction = getF64(r);
    s.libraryFraction = getF64(r);
    s.sampleCount = static_cast<std::size_t>(r.u64());
    s.gcFraction = getF64(r);
    s.nativeFraction = getF64(r);
    s.episodeCount = static_cast<std::size_t>(r.u64());
    return s;
}

void
writeGuiStateShares(trace::ByteWriter &w,
                    const core::GuiStateShares &s)
{
    putF64(w, s.blocked);
    putF64(w, s.waiting);
    putF64(w, s.sleeping);
    putF64(w, s.runnable);
    w.u64(s.sampleCount);
}

core::GuiStateShares
readGuiStateShares(trace::ByteReader &r)
{
    core::GuiStateShares s;
    s.blocked = getF64(r);
    s.waiting = getF64(r);
    s.sleeping = getF64(r);
    s.runnable = getF64(r);
    s.sampleCount = static_cast<std::size_t>(r.u64());
    return s;
}

std::string
serializePayload(const SessionAnalysis &a)
{
    trace::ByteWriter w;

    putF64(w, a.overview.e2eSeconds);
    putF64(w, a.overview.inEpsPercent);
    w.u64(a.overview.shortCount);
    w.u64(a.overview.tracedCount);
    w.u64(a.overview.perceptibleCount);
    putF64(w, a.overview.longPerMin);
    w.u64(a.overview.distinctPatterns);
    w.u64(a.overview.coveredEpisodes);
    putF64(w, a.overview.oneEpPercent);
    putF64(w, a.overview.meanDescs);
    putF64(w, a.overview.meanDepth);

    writeTriggerShares(w, a.triggers.all);
    writeTriggerShares(w, a.triggers.perceptible);
    writeLocationShares(w, a.location.all);
    writeLocationShares(w, a.location.perceptible);

    putF64(w, a.concurrency.meanRunnableAll);
    putF64(w, a.concurrency.meanRunnablePerceptible);
    w.u64(a.concurrency.samplesAll);
    w.u64(a.concurrency.samplesPerceptible);

    writeGuiStateShares(w, a.states.all);
    writeGuiStateShares(w, a.states.perceptible);

    putF64(w, a.occurrence.always);
    putF64(w, a.occurrence.sometimes);
    putF64(w, a.occurrence.once);
    putF64(w, a.occurrence.never);
    w.u64(a.occurrence.patternCount);

    w.u64(a.cdf.size());
    for (const auto &[x, y] : a.cdf) {
        putF64(w, x);
        putF64(w, y);
    }
    w.u64(a.patternKeys.size());
    for (const std::uint64_t key : a.patternKeys)
        w.u64(key);
    w.u64(a.episodeDurations.size());
    for (const DurationNs duration : a.episodeDurations)
        w.i64(duration);

    w.i64(a.patternSummary.perceptibleThreshold);
    w.u64(a.patternSummary.patterns.size());
    for (const core::PatternSummary &s : a.patternSummary.patterns) {
        w.str(s.signature);
        w.u64(s.key);
        w.u64(s.episodeCount);
        w.u64(s.perceptibleCount);
        w.i64(s.minLag);
        w.i64(s.maxLag);
        w.i64(s.totalLag);
        w.u64(s.descendants);
        w.u64(s.depth);
    }

    return w.take();
}

SessionAnalysis
deserializePayload(trace::ByteReader &r)
{
    SessionAnalysis a;

    a.overview.e2eSeconds = getF64(r);
    a.overview.inEpsPercent = getF64(r);
    a.overview.shortCount = r.u64();
    a.overview.tracedCount = static_cast<std::size_t>(r.u64());
    a.overview.perceptibleCount = static_cast<std::size_t>(r.u64());
    a.overview.longPerMin = getF64(r);
    a.overview.distinctPatterns = static_cast<std::size_t>(r.u64());
    a.overview.coveredEpisodes = static_cast<std::size_t>(r.u64());
    a.overview.oneEpPercent = getF64(r);
    a.overview.meanDescs = getF64(r);
    a.overview.meanDepth = getF64(r);

    a.triggers.all = readTriggerShares(r);
    a.triggers.perceptible = readTriggerShares(r);
    a.location.all = readLocationShares(r);
    a.location.perceptible = readLocationShares(r);

    a.concurrency.meanRunnableAll = getF64(r);
    a.concurrency.meanRunnablePerceptible = getF64(r);
    a.concurrency.samplesAll = static_cast<std::size_t>(r.u64());
    a.concurrency.samplesPerceptible =
        static_cast<std::size_t>(r.u64());

    a.states.all = readGuiStateShares(r);
    a.states.perceptible = readGuiStateShares(r);

    a.occurrence.always = getF64(r);
    a.occurrence.sometimes = getF64(r);
    a.occurrence.once = getF64(r);
    a.occurrence.never = getF64(r);
    a.occurrence.patternCount = static_cast<std::size_t>(r.u64());

    const std::uint64_t cdf_points = r.u64();
    a.cdf.reserve(cdf_points);
    for (std::uint64_t i = 0; i < cdf_points; ++i) {
        const double x = getF64(r);
        const double y = getF64(r);
        a.cdf.emplace_back(x, y);
    }
    const std::uint64_t keys = r.u64();
    a.patternKeys.reserve(keys);
    for (std::uint64_t i = 0; i < keys; ++i)
        a.patternKeys.push_back(r.u64());
    const std::uint64_t episodes = r.u64();
    a.episodeDurations.reserve(episodes);
    for (std::uint64_t i = 0; i < episodes; ++i)
        a.episodeDurations.push_back(r.i64());

    a.patternSummary.perceptibleThreshold = r.i64();
    const std::uint64_t summaries = r.u64();
    a.patternSummary.patterns.reserve(summaries);
    for (std::uint64_t i = 0; i < summaries; ++i) {
        core::PatternSummary s;
        s.signature = r.str();
        s.key = r.u64();
        s.episodeCount = static_cast<std::size_t>(r.u64());
        s.perceptibleCount = static_cast<std::size_t>(r.u64());
        s.minLag = r.i64();
        s.maxLag = r.i64();
        s.totalLag = r.i64();
        s.descendants = static_cast<std::size_t>(r.u64());
        s.depth = static_cast<std::size_t>(r.u64());
        a.patternSummary.patterns.push_back(std::move(s));
    }

    return a;
}

} // namespace

std::string
serializeSessionAnalysis(const SessionAnalysis &analysis)
{
    const std::string payload = serializePayload(analysis);
    trace::ByteWriter w;
    for (const char c : kMagic)
        w.u8(static_cast<std::uint8_t>(c));
    w.u32(kAnalysisVersion);
    Crc32cHasher hasher;
    hasher.addBytes(payload.data(), payload.size());
    w.u64(hasher.digest()); // zero-extended into the u64 field
    std::string out = w.take();
    out.append(payload);
    return out;
}

namespace
{

/** Bytes before the payload: magic, version, payload checksum. */
constexpr std::size_t kHeaderSize =
    sizeof(kMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);

/**
 * Check @p data's magic, version and payload checksum; throws
 * trace::TraceError on any mismatch. Returns a reader positioned at
 * the start of the (now verified) payload.
 */
trace::ByteReader
verifyEntry(std::string_view data)
{
    trace::ByteReader r(data);
    char magic[sizeof(kMagic)];
    for (char &c : magic)
        c = static_cast<char>(r.u8());
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw trace::TraceError("bad analysis-cache magic");
    const std::uint32_t version = r.u32();
    if (version != kAnalysisVersion) {
        throw trace::TraceError(
            "analysis-cache version mismatch: file has " +
            std::to_string(version) + ", expected " +
            std::to_string(kAnalysisVersion));
    }
    // Nonzero high bits cannot equal the zero-extended CRC32C, so
    // they read as a mismatch.
    const std::uint64_t checksum = r.u64();
    Crc32cHasher hasher;
    hasher.addBytes(data.data() + r.position(), r.remaining());
    if (hasher.digest() != checksum)
        throw trace::TraceError("analysis-cache checksum mismatch");
    return r;
}

/**
 * Digest of an entry whose header verifyEntry() accepted: the
 * header (which carries the payload checksum) and the length. The
 * payload's bytes are already folded into that checksum, so no
 * byte is hashed twice.
 */
std::uint64_t
verifiedEntryDigest(std::string_view data)
{
    Fnv1aHasher hasher;
    hasher.addBytes(data.data(), kHeaderSize);
    hasher.addValue(static_cast<std::uint64_t>(data.size()));
    return hasher.digest();
}

} // namespace

SessionAnalysis
deserializeSessionAnalysis(std::string_view data)
{
    trace::ByteReader r = verifyEntry(data);
    SessionAnalysis analysis = deserializePayload(r);
    if (r.remaining() != 0) {
        throw trace::TraceError(
            "trailing garbage after analysis-cache payload");
    }
    return analysis;
}

ResultCache::ResultCache(std::string cache_dir,
                         std::string study_fingerprint)
    : dir_(std::move(cache_dir)),
      fingerprint_(std::move(study_fingerprint))
{
    Fnv1aHasher hasher;
    hasher.addString(fingerprint_);
    hasher.addValue(kAnalysisVersion);
    std::ostringstream hex;
    hex << std::hex << hasher.digest();
    tag_ = hex.str();
}

namespace
{

/**
 * App names come from study configs and, via the examples, from
 * arbitrary file paths — a '/', '..' or other hostile character
 * must not escape the analysis/ directory or splice into the
 * generation mark. Uniqueness is the content hash's job, so the
 * readable prefix can be lossy: anything outside a conservative
 * charset becomes '_', and long names are clipped.
 */
std::string
sanitizeAppName(std::string_view app_name)
{
    constexpr std::size_t kMaxPrefix = 48;
    std::string safe;
    safe.reserve(std::min(app_name.size(), kMaxPrefix));
    for (const char c : app_name) {
        if (safe.size() == kMaxPrefix)
            break;
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-';
        safe.push_back(ok ? c : '_');
    }
    if (safe.empty())
        safe = "app";
    return safe;
}

} // namespace

std::string
ResultCache::entryPath(std::string_view app_name,
                       std::uint32_t session_index) const
{
    Fnv1aHasher hasher;
    hasher.addString(fingerprint_);
    hasher.addValue(kAnalysisVersion);
    hasher.addString(app_name);
    hasher.addValue(session_index);
    std::ostringstream hex;
    hex << std::hex << hasher.digest();
    return dir_ + "/analysis/" + sanitizeAppName(app_name) + "_s" +
           std::to_string(session_index) + "_g" + tag_ + "-" +
           hex.str() + ".ares";
}

CacheEvictionResult
ResultCache::evict(const CacheEvictionPolicy &policy) const
{
    return evict(policy, [](const fs::path &path) {
        std::error_code remove_ec;
        return fs::remove(path, remove_ec);
    });
}

CacheEvictionResult
ResultCache::evict(const CacheEvictionPolicy &policy,
                   const RemoveFileFn &remove_file) const
{
    LAG_SPAN("cache.evict");
    CacheEvictionResult result;
    const fs::path root = fs::path(dir_) / "analysis";
    std::error_code ec;
    if (!fs::is_directory(root, ec))
        return result;

    struct Entry
    {
        fs::path path;
        std::uint64_t bytes = 0;
        fs::file_time_type mtime;
    };

    // Books an entry as removed or kept depending on what actually
    // happened on disk — a failed unlink leaves the bytes in the
    // directory, so they must stay in keptFiles/keptBytes and the
    // kept-bytes gauge, not vanish from the accounting.
    const auto remove = [&](const Entry &entry) {
        if (remove_file(entry.path)) {
            ++result.removedFiles;
            result.removedBytes += entry.bytes;
            return true;
        }
        warn("result cache: cannot evict '", entry.path.string(),
             "'; keeping it on the books");
        ++result.keptFiles;
        result.keptBytes += entry.bytes;
        return false;
    };

    const std::string liveMark = "_g" + tag_ + "-";
    const auto now = fs::file_time_type::clock::now();
    std::vector<Entry> live;
    for (const auto &dirent : fs::directory_iterator(root, ec)) {
        Entry entry;
        entry.path = dirent.path();
        if (entry.path.extension() != ".ares")
            continue;

        std::error_code type_ec;
        std::error_code size_ec;
        std::error_code time_ec;
        const bool regular = dirent.is_regular_file(type_ec);
        entry.bytes = dirent.file_size(size_ec);
        if (size_ec)
            entry.bytes = 0;
        entry.mtime = dirent.last_write_time(time_ec);

        // A name without the current generation mark was written
        // under another fingerprint or analysis version; its content
        // address can never be requested again. Name-only decision —
        // it must not depend on stat health.
        const std::string name = entry.path.filename().string();
        if (name.find(liveMark) == std::string::npos) {
            if (regular)
                remove(entry);
            continue;
        }

        // A live-named entry we cannot stat must be kept, not
        // treated as size 0 / epoch mtime — a default-initialized
        // mtime looks maximally old and would be evicted first
        // under any age or byte budget.
        if (type_ec || (regular && (size_ec || time_ec))) {
            warn("result cache: cannot stat '", entry.path.string(),
                 "'; keeping it");
            ++result.keptFiles;
            result.keptBytes += entry.bytes;
            continue;
        }
        if (!regular)
            continue;
        if (policy.maxAgeSeconds > 0 &&
            now - entry.mtime >
                std::chrono::seconds(policy.maxAgeSeconds)) {
            remove(entry);
            continue;
        }
        live.push_back(std::move(entry));
    }

    // Oldest first; names break mtime ties so the pass is
    // deterministic on coarse filesystem timestamps.
    std::sort(live.begin(), live.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.filename().string() <
                         b.path.filename().string();
              });
    std::uint64_t total = 0;
    for (const Entry &entry : live)
        total += entry.bytes;
    std::size_t next = 0;
    if (policy.maxBytes > 0) {
        while (next < live.size() && total > policy.maxBytes) {
            // Only debit what really left the disk; a failed
            // removal was booked as kept above and its bytes still
            // count against the budget.
            if (remove(live[next]))
                total -= live[next].bytes;
            ++next;
        }
    }
    for (std::size_t i = next; i < live.size(); ++i) {
        ++result.keptFiles;
        result.keptBytes += live[i].bytes;
    }
    cacheMetrics().keptBytes.set(
        static_cast<std::int64_t>(result.keptBytes));
    if (result.removedFiles > 0) {
        // Eviction throws user state away; say so instead of
        // silently shrinking the directory.
        cacheMetrics().evictFiles.add(result.removedFiles);
        cacheMetrics().evictBytes.add(result.removedBytes);
        inform("result cache: evicted ", result.removedFiles,
               " entries (", result.removedBytes, " bytes), kept ",
               result.keptFiles, " (", result.keptBytes, " bytes)");
    }
    return result;
}

std::optional<SessionAnalysis>
ResultCache::load(std::string_view app_name,
                  std::uint32_t session_index,
                  std::uint64_t *digest) const
{
    LAG_SPAN("cache.load");
    const std::string path = entryPath(app_name, session_index);
    // A cold cache misses on every entry: answer that with one stat
    // rather than a thrown open failure.
    std::error_code exists_ec;
    if (!fs::exists(path, exists_ec))
        return miss();
    try {
        const trace::MappedFile file(path);
        SessionAnalysis analysis =
            deserializeSessionAnalysis(file.view());
        if (digest != nullptr)
            *digest = verifiedEntryDigest(file.view());
        cacheMetrics().hit.add();
        return analysis;
    } catch (const trace::TraceError &e) {
        warn("result cache: discarding invalid entry '", path, "': ",
             e.what());
        return miss();
    }
}

std::optional<SessionAnalysis>
ResultCache::miss() const
{
    cacheMetrics().missCount.add();
    return std::nullopt;
}

std::uint64_t
ResultCache::entryDigest(std::string_view app_name,
                         std::uint32_t session_index) const
{
    const std::string path = entryPath(app_name, session_index);
    Fnv1aHasher hasher;
    std::optional<trace::MappedFile> file;
    try {
        file.emplace(path);
    } catch (const trace::TraceError &) {
        // Absent and unreadable fold the same marker: both mean
        // "this entry contributes nothing", and both must differ
        // from every present-content digest.
        hasher.addString("absent");
        return hasher.digest();
    }
    const std::string_view bytes = file->view();
    try {
        verifyEntry(bytes);
        return verifiedEntryDigest(bytes);
    } catch (const trace::TraceError &) {
        // A damaged entry has no trustworthy checksum to stand for
        // its payload; hash every byte so it still reads as changed.
        hasher.addBytes(bytes.data(), bytes.size());
        return hasher.digest();
    }
}

std::uint64_t
appDigestOf(std::string_view app_name,
            std::span<const std::uint64_t> entry_digests)
{
    Fnv1aHasher hasher;
    hasher.addString(app_name);
    for (std::uint32_t s = 0; s < entry_digests.size(); ++s) {
        hasher.addValue(s);
        hasher.addValue(entry_digests[s]);
    }
    return hasher.digest();
}

std::uint64_t
ResultCache::appDigest(std::string_view app_name,
                       std::uint32_t sessions_per_app) const
{
    LAG_SPAN("cache.app_digest");
    std::vector<std::uint64_t> entries;
    entries.reserve(sessions_per_app);
    for (std::uint32_t s = 0; s < sessions_per_app; ++s)
        entries.push_back(entryDigest(app_name, s));
    return appDigestOf(app_name, entries);
}

std::uint64_t
ResultCache::store(std::string_view app_name,
                   std::uint32_t session_index,
                   const SessionAnalysis &analysis) const
{
    LAG_SPAN("cache.store");
    const std::string path = entryPath(app_name, session_index);
    const std::string temp = path + ".tmp";
    // A cache that cannot be written costs a later recompute, never
    // the caller: every failure warns, is counted and reports what
    // the entry still holds.
    const auto failed = [&](const auto &...why) {
        warn("result cache: ", why...);
        cacheMetrics().storeFailures.add();
        return entryDigest(app_name, session_index);
    };
    std::error_code ec;
    fs::create_directories(dir_ + "/analysis", ec);
    if (ec) {
        return failed("cannot create '", dir_, "/analysis': ",
                      ec.message());
    }
    const std::string data = serializeSessionAnalysis(analysis);
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out)
            return failed("cannot write '", temp, "'");
        out.write(data.data(),
                  static_cast<std::streamsize>(data.size()));
        if (!out)
            return failed("short write to '", temp, "'");
    }
    fs::rename(temp, path, ec);
    if (ec) {
        const std::string why = ec.message();
        fs::remove(temp, ec);
        return failed("cannot rename '", temp, "' to '", path,
                      "': ", why);
    }
    cacheMetrics().storeCount.add();
    return verifiedEntryDigest(data);
}

} // namespace lag::engine
