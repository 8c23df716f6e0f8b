/**
 * @file
 * Heap allocation counters for the zero-steady-state-alloc proof.
 *
 * AllocCounter exposes per-thread counts of global operator new
 * calls. The counters are bumped by operator new / delete overrides
 * that live in alloc_hooks.cc, which is linked ONLY into the
 * allocation-audited binaries (tests/test_alloc, bench_runtime,
 * perfbench); every other test binary keeps the stock allocator. In
 * binaries without the hooks, hooksInstalled() is false and every
 * counter reads zero; callers must gate their accounting (and any
 * acceptance gate) on hooksInstalled().
 *
 * Counters are thread-local: a Session::serveFrame call runs
 * entirely on one pool thread, so the delta of threadAllocs() across
 * the call is exactly that frame's allocation count.
 */

#ifndef EYECOD_COMMON_ALLOC_COUNTER_H
#define EYECOD_COMMON_ALLOC_COUNTER_H

#include <cstdint>

namespace eyecod {

namespace alloc_hooks_detail {

/** Per-thread tallies, bumped by the operator new/delete overrides. */
struct ThreadCounters
{
    uint64_t allocs;
    uint64_t frees;
    uint64_t bytes;
};

/** This thread's tallies (trivially-initialized thread_local). */
extern thread_local ThreadCounters g_counters;

/** Set (via static initializer) when alloc_hooks.cc is linked in. */
extern bool g_hooks_installed;

} // namespace alloc_hooks_detail

/** Read-side API over the per-thread allocation tallies. */
class AllocCounter
{
  public:
    /** True when the operator new/delete overrides are linked in. */
    static bool
    hooksInstalled()
    {
        return alloc_hooks_detail::g_hooks_installed;
    }

    /** Global operator new calls made by this thread so far. */
    static uint64_t
    threadAllocs()
    {
        return alloc_hooks_detail::g_counters.allocs;
    }

    /** Global operator delete calls made by this thread so far. */
    static uint64_t
    threadFrees()
    {
        return alloc_hooks_detail::g_counters.frees;
    }

    /** Bytes requested from operator new by this thread so far. */
    static uint64_t
    threadBytes()
    {
        return alloc_hooks_detail::g_counters.bytes;
    }
};

/**
 * Anchor for the hook translation unit: audited binaries call this
 * once so the linker pulls alloc_hooks.o (and with it the operator
 * new / delete overrides) out of the static library. Returns
 * hooksInstalled(). Declared here, defined in alloc_hooks.cc.
 */
bool allocHooksForceLink();

} // namespace eyecod

#endif // EYECOD_COMMON_ALLOC_COUNTER_H
