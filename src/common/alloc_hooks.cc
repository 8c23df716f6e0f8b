/**
 * @file
 * Global operator new / delete overrides that tally per-thread
 * allocation counts into AllocCounter's thread-local counters.
 *
 * This translation unit is linked ONLY into the allocation-audited
 * binaries (see eyecod_alloc_hooks in src/common/CMakeLists.txt).
 * Linking it anywhere else is harmless but pointless; keeping it out
 * of the other test binaries leaves the sanitizers' own allocator
 * interposition fully in charge there.
 *
 * The overrides delegate to malloc / aligned allocation, which the
 * sanitizers intercept as usual — so the sanitizer CI job runs
 * tests/test_alloc under ASan/UBSan *with* the counters active.
 */

#include "common/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace eyecod {

namespace {

using alloc_hooks_detail::g_counters;

/** Tally one allocation of @p size bytes and return malloc memory. */
void *
countedAlloc(std::size_t size)
{
    g_counters.allocs += 1;
    g_counters.bytes += size;
    return std::malloc(size ? size : 1);
}

/** Tally one aligned allocation. */
void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_counters.allocs += 1;
    g_counters.bytes += size;
    void *ptr = nullptr;
    if (posix_memalign(&ptr, align < sizeof(void *) ? sizeof(void *)
                                                    : align,
                       size ? size : align) != 0)
        return nullptr;
    return ptr;
}

/** One-shot marker proving the overrides are present in the binary. */
struct HookMarker
{
    HookMarker() { alloc_hooks_detail::g_hooks_installed = true; }
};

HookMarker g_marker;

} // namespace

bool
allocHooksForceLink()
{
    return AllocCounter::hooksInstalled();
}

} // namespace eyecod

void *
operator new(std::size_t size)
{
    void *ptr = eyecod::countedAlloc(size);
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new[](std::size_t size)
{
    void *ptr = eyecod::countedAlloc(size);
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return eyecod::countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return eyecod::countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *ptr =
        eyecod::countedAlignedAlloc(size, std::size_t(align));
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    void *ptr =
        eyecod::countedAlignedAlloc(size, std::size_t(align));
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void
operator delete(void *ptr) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    eyecod::alloc_hooks_detail::g_counters.frees += 1;
    std::free(ptr);
}
