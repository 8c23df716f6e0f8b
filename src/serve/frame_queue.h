/**
 * @file
 * Bounded per-session frame queue for the serving engine.
 *
 * One queue sits between each session's frame producer (the traffic
 * source / sensor feed) and the cross-session scheduler. The queue is
 * bounded and *never blocks the producer*: when a push finds the
 * queue full, the oldest queued frame is evicted and returned to the
 * caller as an explicit drop record — a frame that has been waiting
 * the longest is also the one whose deadline is closest to (or past)
 * expiry, so drop-oldest sheds the least useful work first and keeps
 * the queue's age bounded by capacity x service time.
 *
 * The discipline is single-producer / single-consumer (the traffic
 * feed pushes, the scheduler pops); a mutex guards the ring so the
 * producer may live on a different thread than the scheduler without
 * TSan findings. All state a frame needs downstream travels in the
 * ticket, so a dropped frame costs no rendering or NN work.
 *
 * Storage is a fixed ring preallocated at construction: push, pop,
 * and drop-oldest all recycle ticket slots in place, so the queue
 * performs zero heap traffic after construction — including under
 * sustained backpressure, where the evicted slot is immediately
 * reused for the incoming ticket.
 */

#ifndef EYECOD_SERVE_FRAME_QUEUE_H
#define EYECOD_SERVE_FRAME_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/snapshot.h"
#include "common/thread_annotations.h"
#include "dataset/synthetic_eye.h"

namespace eyecod {
namespace serve {

/**
 * One frame waiting to be served: identity, virtual arrival time,
 * and the scene parameters to render at dispatch (rendering is
 * deferred past the queue so dropped frames cost nothing).
 */
struct FrameTicket
{
    long frame_index = 0;        ///< Per-session monotone index.
    long long arrival_us = 0;    ///< Virtual arrival timestamp.
    dataset::EyeParams params;   ///< Scene to render when dispatched.

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &t, Ar &ar)
    {
        ar.field(t.frame_index);
        ar.field(t.arrival_us);
        ar.field(t.params.yaw_deg);
        ar.field(t.params.pitch_deg);
        ar.field(t.params.eye_cy);
        ar.field(t.params.eye_cx);
        ar.field(t.params.eye_radius);
        ar.field(t.params.pupil_scale);
        ar.field(t.params.eyelid_open);
    }
};

/** Why a frame was shed (drop accounting is broken out by reason). */
enum class DropReason : int {
    Backpressure = 0, ///< Drop-oldest eviction from a full queue.
    ShedOnClose,      ///< Queue shed at session close / engine stop.
    RateDowngrade,    ///< Refresh-rate downgrade (degradation tier 3).
    Failover,         ///< Retries exhausted after chip failures.
};

/** Number of DropReason values. */
constexpr int kNumDropReasons = 4;

/** Human-readable name of a DropReason. */
const char *dropReasonName(DropReason reason);

/** Record of one shed frame. */
struct DropRecord
{
    long frame_index = 0;     ///< Which frame was shed.
    long long arrival_us = 0; ///< When it arrived.
    long long dropped_us = 0; ///< When the eviction happened.
    DropReason reason = DropReason::Backpressure;

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &d, Ar &ar)
    {
        ar.field(d.frame_index);
        ar.field(d.arrival_us);
        ar.field(d.dropped_us);
        ar.field(snap::wire<uint8_t>(d.reason));
        ar.check(int(d.reason) < kNumDropReasons,
                 "drop reason out of range");
    }
};

/**
 * Bounded SPSC frame queue with drop-oldest backpressure.
 */
class BoundedFrameQueue
{
  public:
    /** @param capacity maximum queued frames (>= 1). */
    explicit BoundedFrameQueue(size_t capacity);

    /**
     * Enqueue @p ticket at virtual time @p now_us. Never blocks: a
     * full queue evicts its oldest entry, which is returned as a
     * DropRecord so the caller can account for the shed frame.
     */
    [[nodiscard]] std::optional<DropRecord> push(const FrameTicket &ticket,
                                   long long now_us);

    /** Arrival time of the oldest queued frame (empty when none). */
    std::optional<long long> frontArrival() const;

    /** Dequeue the oldest frame into @p out; false when empty. */
    [[nodiscard]] bool pop(FrameTicket *out);

    /**
     * Evict every queued frame, counting each as a drop (session
     * close / non-drain stop). Returns the evicted count.
     */
    size_t clear();

    /** Current depth. */
    size_t size() const;
    /** True when no frame is queued. */
    bool empty() const { return size() == 0; }
    /** Configured bound. */
    size_t capacity() const { return capacity_; }

    /** Total frames ever pushed (including later-dropped ones). */
    uint64_t totalPushed() const;
    /** Total frames evicted by backpressure or clear(). */
    uint64_t totalDropped() const;
    /** Largest depth ever observed. */
    size_t maxDepth() const;

    /** Serialize the queued tickets (oldest first) + counters. */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /**
     * Restore into a queue of the same capacity; the snapshot's
     * capacity is validated, queued tickets land at the front of the
     * ring (head 0), and the counters resume exactly.
     */
    [[nodiscard]] Status
    restoreSnapshot(snap::SnapshotReader &r)
    {
        fields(*this, r);
        return r.status();
    }

    /** Snapshot field list (common/snapshot.h); runs under the
     *  queue's lock. */
    template <class Self, class Ar>
    static void
    fields(Self &q, Ar &ar)
    {
        MutexLock lock(q.mutex_);
        ar.tag(0x46515531); // "FQU1"
        ar.expect(uint64_t(q.capacity_));
        if constexpr (Ar::kLoading)
            q.head_ = 0;
        ar.field(snap::wire<uint64_t>(q.count_));
        ar.check(q.count_ <= q.capacity_, "queued tickets above capacity");
        // min(): a count the check refused must not drive the loop.
        for (size_t i = 0; i < std::min(q.count_, q.capacity_); ++i)
            ar.field(q.ring_[(q.head_ + i) % q.capacity_]);
        ar.field(q.pushed_);
        ar.field(q.dropped_);
        ar.field(snap::wire<uint64_t>(q.max_depth_));
    }

  private:
    mutable Mutex mutex_;
    /** Fixed ring: ring_[(head_ + i) % capacity_] is the i-th oldest
     *  queued ticket. Preallocated; slots recycle in place. */
    std::vector<FrameTicket> ring_ EYECOD_GUARDED_BY(mutex_);
    /** Index of the oldest queued ticket. */
    size_t head_ EYECOD_GUARDED_BY(mutex_) = 0;
    /** Queued tickets. */
    size_t count_ EYECOD_GUARDED_BY(mutex_) = 0;
    /** Immutable after construction; read lock-free. */
    size_t capacity_;
    uint64_t pushed_ EYECOD_GUARDED_BY(mutex_) = 0;
    uint64_t dropped_ EYECOD_GUARDED_BY(mutex_) = 0;
    size_t max_depth_ EYECOD_GUARDED_BY(mutex_) = 0;
};

} // namespace serve
} // namespace eyecod

#endif // EYECOD_SERVE_FRAME_QUEUE_H
