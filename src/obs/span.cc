#include "span.hh"

#include <sys/mman.h>

#include <deque>
#include <new>

#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace lag::obs
{

namespace
{

constexpr std::uint64_t kSlotMask = kSpanCapacity - 1;
static_assert((kSpanCapacity & kSlotMask) == 0,
              "ring capacity must be a power of two");

/** Head of the buffer list: newest first, push-only, never freed,
 * so at-exit exports and crash dumps can walk exited threads'
 * rings. */
std::atomic<const SpanBuffer *> g_firstBuffer{nullptr};

Mutex &
internMutex()
{
    static Mutex mutex{LockRank::Obs, "obs-span-intern"};
    return mutex;
}

/** Interned dynamic names; deque keeps addresses stable. */
std::deque<std::string> &
internTable() LAG_REQUIRES(internMutex())
{
    static auto *table = new std::deque<std::string>();
    return *table;
}

} // namespace

SpanBuffer::SpanBuffer(std::uint32_t tid, std::string threadName)
    : tid_(tid), threadName_(std::move(threadName))
{
    // Fresh anonymous pages read as zero and are committed only
    // when first written, so a ring costs memory only as it fills.
    void *ring = ::mmap(nullptr, kSpanCapacity * sizeof(Slot),
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (ring == MAP_FAILED)
        throw std::bad_alloc();
    slots_ = static_cast<Slot *>(ring);
}

void
SpanBuffer::append(const SpanEvent &event)
{
    const std::uint64_t i = head_.load(std::memory_order_relaxed);
    Slot &slot = slots_[i & kSlotMask];
    // Odd stamp first; each field store is a release, so a reader
    // that acquires any new field value also sees this stamp and
    // rejects the slot. The release on the name also publishes the
    // bytes of an internedName() string minted on this thread.
    constexpr auto release = std::memory_order_release;
    std::atomic_ref(slot.stamp).store(2 * i + 1, std::memory_order_relaxed);
    std::atomic_ref(slot.name).store(event.name, release);
    std::atomic_ref(slot.argKey).store(event.argKey, release);
    std::atomic_ref(slot.argValue).store(event.argValue, release);
    std::atomic_ref(slot.startNs).store(event.startNs, release);
    std::atomic_ref(slot.durNs).store(event.durNs, release);
    std::atomic_ref(slot.traceHi).store(event.traceHi, release);
    std::atomic_ref(slot.traceLo).store(event.traceLo, release);
    std::atomic_ref(slot.stamp).store(2 * i + 2, release);
    head_.store(i + 1, std::memory_order_release);
}

bool
SpanBuffer::read(std::uint64_t index, SpanEvent &out) const
{
    Slot &slot = slots_[index & kSlotMask];
    constexpr auto acquire = std::memory_order_acquire;
    const std::uint64_t whole = 2 * index + 2;
    if (std::atomic_ref(slot.stamp).load(acquire) != whole)
        return false;
    out.name = std::atomic_ref(slot.name).load(acquire);
    out.argKey = std::atomic_ref(slot.argKey).load(acquire);
    out.argValue = std::atomic_ref(slot.argValue).load(acquire);
    out.startNs = std::atomic_ref(slot.startNs).load(acquire);
    out.durNs = std::atomic_ref(slot.durNs).load(acquire);
    out.traceHi = std::atomic_ref(slot.traceHi).load(acquire);
    out.traceLo = std::atomic_ref(slot.traceLo).load(acquire);
    // The acquire field loads keep this load after them: a field
    // taken from a later write makes the stamp differ here.
    return std::atomic_ref(slot.stamp).load(std::memory_order_relaxed) ==
           whole;
}

namespace detail
{

std::atomic<bool> g_spansEnabled{false};

SpanBuffer &
threadBuffer()
{
    thread_local SpanBuffer *t_buffer = nullptr;
    if (t_buffer == nullptr) {
        auto *buffer =
            new SpanBuffer(currentThreadId(), currentThreadName());
        buffer->next_ = g_firstBuffer.load(std::memory_order_relaxed);
        // Release: a walker that sees the buffer sees its fields.
        while (!g_firstBuffer.compare_exchange_weak(
            buffer->next_, buffer, std::memory_order_release,
            std::memory_order_relaxed)) {
        }
        t_buffer = buffer;
    }
    return *t_buffer;
}

} // namespace detail

void
setSpansEnabled(bool enabled)
{
    detail::g_spansEnabled.store(enabled,
                                 std::memory_order_relaxed);
}

const char *
internedName(std::string_view name)
{
    MutexLock lock(internMutex());
    std::deque<std::string> &table = internTable();
    for (const std::string &entry : table) {
        if (entry == name)
            return entry.c_str();
    }
    table.emplace_back(name);
    return table.back().c_str();
}

const SpanBuffer *
firstSpanBuffer()
{
    return g_firstBuffer.load(std::memory_order_acquire);
}

} // namespace lag::obs
