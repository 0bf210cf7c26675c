/**
 * @file
 * Read-only memory-mapped file with an owned-buffer fallback.
 *
 * The zero-copy decode path maps a trace file and hands the mapping
 * to deserializeTrace as a borrowed string_view: the checksum pass
 * and the record decode read straight out of the page cache, and the
 * only bytes ever copied are the ones that must outlive the mapping
 * (string-table text and decoded record structs).  On platforms
 * without mmap — or for empty files, which cannot be mapped — the
 * class degrades to reading the file into an owned buffer, so
 * callers never need to branch on platform.
 */

#ifndef LAG_TRACE_MAPPED_FILE_HH
#define LAG_TRACE_MAPPED_FILE_HH

#include <string>
#include <string_view>

namespace lag::trace
{

/**
 * Immutable view of a whole file, mmap-backed where possible.
 * The view() is valid exactly as long as the MappedFile lives;
 * decoded structures must copy anything they keep.
 */
class MappedFile
{
  public:
    /** Map (or read) @p path. Throws TraceError on any failure. */
    explicit MappedFile(const std::string &path);
    ~MappedFile();

    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** The file's bytes; borrowed, valid while *this lives. */
    std::string_view
    view() const
    {
        if (map_ != nullptr)
            return {static_cast<const char *>(map_), mapSize_};
        return owned_;
    }

  private:
    void release() noexcept;

    void *map_ = nullptr;
    std::size_t mapSize_ = 0;
    std::string owned_;
};

} // namespace lag::trace

#endif // LAG_TRACE_MAPPED_FILE_HH
