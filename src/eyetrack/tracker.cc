#include "eyetrack/tracker.h"

#include <algorithm>

#include "common/logging.h"

namespace eyecod {
namespace eyetrack {

EyeTracker::EyeTracker(TrackerConfig cfg)
    : cfg_(std::move(cfg)), pipeline_(cfg_.pipeline),
      filter_(cfg_.filter)
{
}

void
EyeTracker::train(const dataset::SyntheticEyeRenderer &renderer,
                  int train_count)
{
    pipeline_.trainGaze(renderer, train_count);
}

TrackerOutput
EyeTracker::processFrame(const Image &scene)
{
    const auto &frame = pipeline_.processFrame(scene);
    ++frames_;

    TrackerOutput out;
    out.roi = frame.roi;
    out.raw_gaze = frame.gaze;

    // Blink detection: a closed eye leaves no pupil-dark pixels in
    // the ROI crop the pipeline returns as its view. Cheap enough to
    // run every frame, unlike the segmentation stage. A stream that
    // opens on a dropped frame has no crop yet, so no pupil either.
    long dark = 0;
    for (float v : frame.view.data())
        dark += v <= cfg_.pupil_dark_level;
    const double dark_fraction =
        frame.view.size() > 0
            ? double(dark) / double(frame.view.size())
            : 0.0;
    out.blink = dark_fraction < cfg_.min_pupil_fraction;

    if (out.blink) {
        ++blinks_;
        // Hold the last good gaze through the blink; the filter
        // state is left untouched so it resumes smoothly.
        out.gaze = has_gaze_ ? held_gaze_
                             : dataset::GazeVec{0.0, 0.0, 1.0};
        out.confidence = 0.0;
        return out;
    }

    const GazeFilter::Output f = filter_.update(frame.gaze);
    out.gaze = f.gaze;
    out.saccade = f.saccade;
    held_gaze_ = f.gaze;
    has_gaze_ = true;

    // Confidence: full when the pupil is clearly visible and the
    // gaze is steady; reduced during saccades (motion blur) and for
    // marginal pupil evidence.
    const double pupil_conf = std::clamp(
        dark_fraction / (2.0 * cfg_.min_pupil_fraction), 0.0, 1.0);
    const double motion_conf = f.saccade ? 0.5 : 1.0;
    out.confidence = pupil_conf * motion_conf;
    return out;
}

void
EyeTracker::reset()
{
    pipeline_.reset();
    filter_.reset();
    has_gaze_ = false;
    frames_ = 0;
    blinks_ = 0;
}

double
EyeTracker::blinkRate() const
{
    return frames_ > 0 ? double(blinks_) / double(frames_) : 0.0;
}

} // namespace eyetrack
} // namespace eyecod
