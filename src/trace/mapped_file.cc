#include "mapped_file.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "trace.hh"

#if defined(__unix__) || defined(__APPLE__)
#define LAG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define LAG_HAVE_MMAP 0
#endif

namespace lag::trace
{

#if !LAG_HAVE_MMAP
namespace
{

/** Stream fallback for platforms without mmap. */
std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceError("cannot open '" + path + "' for reading");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in && !in.eof())
        throw TraceError("read from '" + path + "' failed");
    return std::move(buffer).str();
}

} // namespace
#endif

MappedFile::MappedFile(const std::string &path)
{
#if LAG_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        throw TraceError("cannot open '" + path +
                         "' for reading: " + std::strerror(errno));
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        throw TraceError("cannot stat '" + path +
                         "': " + std::strerror(err));
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        // mmap of length 0 is invalid; an empty view is correct.
        ::close(fd);
        return;
    }
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int err = errno;
    ::close(fd);
    if (map == MAP_FAILED) {
        throw TraceError("cannot mmap '" + path +
                         "': " + std::strerror(err));
    }
    map_ = map;
    mapSize_ = size;
#else
    owned_ = readWholeFile(path);
#endif
}

MappedFile::~MappedFile() { release(); }

MappedFile::MappedFile(MappedFile &&other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      mapSize_(std::exchange(other.mapSize_, 0)),
      owned_(std::move(other.owned_))
{
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        release();
        map_ = std::exchange(other.map_, nullptr);
        mapSize_ = std::exchange(other.mapSize_, 0);
        owned_ = std::move(other.owned_);
    }
    return *this;
}

void
MappedFile::release() noexcept
{
#if LAG_HAVE_MMAP
    if (map_ != nullptr)
        ::munmap(map_, mapSize_);
#endif
    map_ = nullptr;
    mapSize_ = 0;
}

} // namespace lag::trace
