#include "serve/session.h"

#include <algorithm>

#include "common/alloc_counter.h"
#include "common/image_view.h"

namespace eyecod {
namespace serve {

Session::Session(int id, const core::SystemConfig &cfg,
                 const eyetrack::RidgeGazeEstimator &trained,
                 size_t queue_capacity, bool record_gaze,
                 size_t drop_log_cap)
    : id_(id), record_gaze_(record_gaze),
      drop_log_cap_(drop_log_cap), system_(cfg),
      queue_(queue_capacity)
{
    // Sessions share the fleet-trained estimator instead of
    // retraining per user (per-user calibration would refit here).
    system_.pipeline().gazeEstimator() = trained;
    // Size the render target on the opening thread, as the pipeline
    // sizes its frame scratch: sized by the first served frame, it
    // would sit in a scheduler thread's malloc arena, and worker
    // arenas keep freed blocks across engine rebuilds.
    const int n = cfg.pipeline.scene_size;
    sample_.image.resetShape(n, n);
    sample_.mask.labels.reserve(size_t(n) * size_t(n));
}

Result<core::GazeSample>
Session::serveFrame(const dataset::SyntheticEyeRenderer &renderer,
                    const FrameTicket &ticket,
                    bool degraded_resolution)
{
    // serveFrame runs wholly on one scheduler thread, so the
    // thread-local allocation counters bracket exactly this frame's
    // heap traffic (zero deltas when the alloc hooks are not linked).
    const uint64_t allocs_before = AllocCounter::threadAllocs();

    // Render at dispatch time — frames shed by the queue never paid
    // for rendering. The noise seed folds the session id in so two
    // sessions viewing the same trajectory still see distinct sensor
    // noise. renderInto() reuses the member sample's storage.
    renderer.renderInto(ticket.params,
                        uint64_t(ticket.frame_index) * 0x9e3779b9ULL +
                            uint64_t(id_),
                        &sample_);

    const Image *scene = &sample_.image;
    if (degraded_resolution) {
        // Tier-2 resolution downgrade: the sensor read-out halves its
        // linear resolution; the pipeline's extents are fixed, so the
        // half-res frame is bilinearly restored before processing.
        // Both hops reuse member storage — after the first downgrade
        // transition this path allocates nothing per frame.
        const int h = sample_.image.height();
        const int w = sample_.image.width();
        resizeBilinearInto(ImageConstView::of(sample_.image),
                           std::max(1, h / 2), std::max(1, w / 2),
                           &lowres_);
        resizeBilinearInto(ImageConstView::of(lowres_), h, w,
                           &restored_);
        scene = &restored_;
        ++metrics_.degraded_res_frames;
    }
    Result<core::GazeSample> r = system_.processFrameChecked(*scene);

    const uint64_t frame_allocs =
        AllocCounter::threadAllocs() - allocs_before;
    // Resolution-mode transitions size the tier-2 scratch buffers, so
    // they count with the refresh frames; frames inside one mode are
    // held to the steady zero-alloc contract.
    const bool transition = degraded_resolution != last_degraded_;
    last_degraded_ = degraded_resolution;
    if (r.ok() && !r.value().roi_refreshed && !transition) {
        ++metrics_.steady_frames;
        metrics_.steady_allocs += (long long)frame_allocs;
    } else {
        ++metrics_.refresh_frames;
        metrics_.refresh_allocs += (long long)frame_allocs;
    }

    if (r.ok())
        last_gaze_ = r.value().gaze;
    if (record_gaze_)
        gaze_log_.push_back(last_gaze_); // detlint:allow(R8) tests
                                         // only; bounded by the trace
    return r;
}

void
Session::recordDrop(const DropRecord &record)
{
    ++metrics_.queue_drops;
    switch (record.reason) {
    case DropReason::Backpressure:
        ++metrics_.drops_backpressure;
        break;
    case DropReason::ShedOnClose:
        ++metrics_.drops_shed_on_close;
        break;
    case DropReason::RateDowngrade:
        ++metrics_.drops_rate_downgrade;
        break;
    case DropReason::Failover:
        ++metrics_.drops_failover;
        break;
    }
    if (metrics_.drop_log.size() < drop_log_cap_)
        metrics_.drop_log.push_back(record); // detlint:allow(R8)
                                             // bounded by the cap
    else
        ++metrics_.drop_log_overflow;
}

SessionHealth
Session::health() const
{
    SessionHealth h;
    h.metrics = metrics_;
    h.pipeline = system_.healthReport();
    h.active = active_;
    return h;
}

} // namespace serve
} // namespace eyecod
