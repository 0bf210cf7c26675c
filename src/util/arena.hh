/**
 * @file
 * Bump-allocator arena for many small allocations that all die
 * together.
 *
 * A general-purpose heap pays per-allocation malloc/free plus
 * fragmentation when thousands of small containers share one
 * owner's lifetime; a bump arena turns every allocation into a
 * pointer increment and every deallocation into a no-op, with
 * everything released at once when the arena dies.
 *
 * ArenaAllocator is the std-allocator adapter.  A default-constructed
 * ArenaAllocator has no arena and falls back to the global heap, so
 * containers that are never seeded with an arena keep working
 * unchanged; only containers seeded with an arena pointer
 * bump-allocate.
 */

#ifndef LAG_UTIL_ARENA_HH
#define LAG_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace lag
{

/**
 * Chunked bump allocator.  Memory is carved from geometrically
 * growing blocks; individual frees are no-ops and everything is
 * released when the arena is destroyed (or reset).  Not thread-safe:
 * one arena belongs to one builder thread at a time.
 */
class Arena
{
  public:
    explicit Arena(std::size_t firstBlockBytes = kDefaultBlockBytes)
        : nextBlockBytes_(firstBlockBytes == 0 ? kDefaultBlockBytes
                                               : firstBlockBytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Return @p bytes of storage aligned to @p align.  Alignment
     * must be a power of two no larger than
     * __STDCPP_DEFAULT_NEW_ALIGNMENT__ (blocks come from operator
     * new[] of char, which guarantees exactly that).
     */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        if (bytes == 0)
            bytes = 1;
        std::size_t offset = alignUp(used_, align);
        if (blocks_.empty() || offset + bytes > blocks_.back().size) {
            grow(bytes + align);
            offset = alignUp(used_, align);
        }
        char *ptr = blocks_.back().data.get() + offset;
        used_ = offset + bytes;
        allocated_ += bytes;
        ++allocations_;
        return ptr;
    }

    /**
     * Drop every block.  Outstanding pointers into the arena become
     * dangling; callers must prove nothing refers into it first.
     */
    void
    reset()
    {
        blocks_.clear();
        used_ = 0;
        reserved_ = 0;
        allocated_ = 0;
        allocations_ = 0;
    }

    /** Total bytes handed out by allocate() (live + abandoned). */
    std::size_t
    bytesAllocated() const
    {
        return allocated_;
    }

    /** Total bytes of backing blocks obtained from the heap. */
    std::size_t
    bytesReserved() const
    {
        return reserved_;
    }

    /** Number of allocate() calls served. */
    std::size_t
    allocationCount() const
    {
        return allocations_;
    }

    /** Number of heap blocks backing the arena. */
    std::size_t
    blockCount() const
    {
        return blocks_.size();
    }

  private:
    static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;
    static constexpr std::size_t kMaxBlockBytes = 4 * 1024 * 1024;

    struct Block
    {
        std::unique_ptr<char[]> data;
        std::size_t size = 0;
    };

    static std::size_t
    alignUp(std::size_t offset, std::size_t align)
    {
        return (offset + align - 1) & ~(align - 1);
    }

    void
    grow(std::size_t atLeast)
    {
        std::size_t size = nextBlockBytes_;
        if (size < atLeast)
            size = atLeast;
        blocks_.push_back(
            Block{std::make_unique<char[]>(size), size});
        reserved_ += size;
        used_ = 0;
        if (nextBlockBytes_ < kMaxBlockBytes)
            nextBlockBytes_ *= 2;
    }

    std::vector<Block> blocks_;
    std::size_t used_ = 0;
    std::size_t nextBlockBytes_ = kDefaultBlockBytes;
    std::size_t reserved_ = 0;
    std::size_t allocated_ = 0;
    std::size_t allocations_ = 0;
};

/**
 * std-allocator adapter over Arena with a global-heap fallback.
 *
 * The arena pointer propagates on container move and swap so that
 * structures assembled from arena-seeded builder vectors stay in the
 * arena through move-assignment, but container copies deliberately
 * fall back to the heap (see select_on_container_copy_construction)
 * so a copy can never dangle into someone else's arena.  Containers
 * holding arena storage must not outlive the arena; the owner of
 * both must guarantee it.
 */
template <typename T> class ArenaAllocator
{
  public:
    using value_type = T;
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;
    using is_always_equal = std::false_type;

    /** Heap-fallback allocator: behaves like std::allocator. */
    ArenaAllocator() noexcept = default;

    /** Arena-backed allocator; @p arena must outlive all storage. */
    explicit ArenaAllocator(Arena *arena) noexcept : arena_(arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) noexcept
        : arena_(other.arena())
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (arena_ != nullptr)
            return static_cast<T *>(
                arena_->allocate(bytes, alignof(T)));
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *ptr, std::size_t) noexcept
    {
        if (arena_ == nullptr)
            ::operator delete(ptr);
        // Arena storage is reclaimed wholesale by the arena itself.
    }

    /**
     * Container copies fall back to the heap: a copy must be safe
     * to outlive the source's arena, so it never inherits one.
     */
    ArenaAllocator
    select_on_container_copy_construction() const noexcept
    {
        return ArenaAllocator();
    }

    Arena *
    arena() const noexcept
    {
        return arena_;
    }

    friend bool
    operator==(const ArenaAllocator &a, const ArenaAllocator &b)
    {
        return a.arena_ == b.arena_;
    }

    friend bool
    operator!=(const ArenaAllocator &a, const ArenaAllocator &b)
    {
        return !(a == b);
    }

  private:
    Arena *arena_ = nullptr;
};

} // namespace lag

#endif
