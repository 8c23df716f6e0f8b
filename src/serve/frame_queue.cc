#include "serve/frame_queue.h"

#include "common/logging.h"

namespace eyecod {
namespace serve {

const char *
dropReasonName(DropReason reason)
{
    switch (reason) {
    case DropReason::Backpressure:
        return "backpressure";
    case DropReason::ShedOnClose:
        return "shed_on_close";
    case DropReason::RateDowngrade:
        return "rate_downgrade";
    case DropReason::Failover:
        return "failover";
    }
    return "unknown";
}

BoundedFrameQueue::BoundedFrameQueue(size_t capacity)
    : ring_(capacity), capacity_(capacity)
{
    eyecod_assert(capacity >= 1,
                  "frame queue needs capacity >= 1, got %zu",
                  capacity);
}

std::optional<DropRecord>
BoundedFrameQueue::push(const FrameTicket &ticket, long long now_us)
{
    MutexLock lock(mutex_);
    ++pushed_;
    std::optional<DropRecord> shed;
    if (count_ >= capacity_) {
        // Drop-oldest backpressure: the head slot is recycled in
        // place — it becomes the tail slot the incoming ticket is
        // written into below. No heap traffic.
        const FrameTicket &oldest = ring_[head_];
        shed = DropRecord{oldest.frame_index, oldest.arrival_us,
                          now_us};
        head_ = (head_ + 1) % capacity_;
        --count_;
        ++dropped_;
    }
    ring_[(head_ + count_) % capacity_] = ticket;
    ++count_;
    max_depth_ = std::max(max_depth_, count_);
    return shed;
}

std::optional<long long>
BoundedFrameQueue::frontArrival() const
{
    MutexLock lock(mutex_);
    if (count_ == 0)
        return std::nullopt;
    return ring_[head_].arrival_us;
}

bool
BoundedFrameQueue::pop(FrameTicket *out)
{
    MutexLock lock(mutex_);
    if (count_ == 0)
        return false;
    *out = ring_[head_];
    head_ = (head_ + 1) % capacity_;
    --count_;
    return true;
}

size_t
BoundedFrameQueue::clear()
{
    MutexLock lock(mutex_);
    const size_t n = count_;
    count_ = 0;
    dropped_ += n;
    return n;
}

size_t
BoundedFrameQueue::size() const
{
    MutexLock lock(mutex_);
    return count_;
}

uint64_t
BoundedFrameQueue::totalPushed() const
{
    MutexLock lock(mutex_);
    return pushed_;
}

uint64_t
BoundedFrameQueue::totalDropped() const
{
    MutexLock lock(mutex_);
    return dropped_;
}

size_t
BoundedFrameQueue::maxDepth() const
{
    MutexLock lock(mutex_);
    return max_depth_;
}

} // namespace serve
} // namespace eyecod
