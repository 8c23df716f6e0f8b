#include "flatcam/fault_injection.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace eyecod {
namespace flatcam {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DroppedFrame: return "dropped-frame";
      case FaultKind::DeadPixelBlock: return "dead-pixel-block";
      case FaultKind::HotPixelBlock: return "hot-pixel-block";
      case FaultKind::Saturation: return "saturation";
      case FaultKind::BurstNoise: return "burst-noise";
      case FaultKind::NanPoison: return "nan-poison";
    }
    return "unknown";
}

bool
FaultConfig::anyEnabled() const
{
    return drop_rate > 0.0 || dead_block_rate > 0.0 ||
           hot_block_rate > 0.0 || saturation_rate > 0.0 ||
           burst_noise_rate > 0.0 || nan_rate > 0.0;
}

FaultConfig
FaultConfig::mixed(double rate, uint64_t seed)
{
    FaultConfig cfg;
    cfg.drop_rate = rate;
    cfg.dead_block_rate = rate;
    cfg.hot_block_rate = rate;
    cfg.saturation_rate = rate;
    cfg.burst_noise_rate = rate;
    cfg.nan_rate = rate;
    cfg.seed = seed;
    return cfg;
}

bool
FrameFaults::any() const
{
    for (bool a : active)
        if (a)
            return true;
    return false;
}

int
FrameFaults::count() const
{
    int n = 0;
    for (bool a : active)
        n += a ? 1 : 0;
    return n;
}

FaultInjector::FaultInjector(FaultConfig cfg) : cfg_(cfg)
{
    eyecod_assert(cfg_.block_extent > 0 && cfg_.burst_rows > 0 &&
                  cfg_.nan_extent > 0,
                  "fault block extents must be positive");
}

namespace {

/** splitmix64 mix of a 64-bit state (public-domain constant set). */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Top-left corner for an extent-sized block inside height x width. */
std::pair<int, int>
blockOrigin(Rng &rng, int height, int width, int extent)
{
    const int max_y = std::max(0, height - extent);
    const int max_x = std::max(0, width - extent);
    return {int(rng.uniformInt(0, max_y)), int(rng.uniformInt(0, max_x))};
}

} // namespace

Rng
FaultInjector::frameRng(long frame, uint64_t stage) const
{
    return Rng(mix64(mix64(cfg_.seed ^ uint64_t(frame)) ^ stage));
}

FrameFaults
FaultInjector::plan(long frame) const
{
    FrameFaults f;
    if (!cfg_.anyEnabled())
        return f;
    if (frame < cfg_.first_frame ||
        (cfg_.last_frame >= 0 && frame > cfg_.last_frame))
        return f;
    Rng rng = frameRng(frame, 0x91a4);
    // Draw in fixed kind order so the schedule is stable even if
    // rates change between runs for untouched kinds' positions.
    f.active[int(FaultKind::DroppedFrame)] =
        rng.bernoulli(cfg_.drop_rate);
    f.active[int(FaultKind::DeadPixelBlock)] =
        rng.bernoulli(cfg_.dead_block_rate);
    f.active[int(FaultKind::HotPixelBlock)] =
        rng.bernoulli(cfg_.hot_block_rate);
    f.active[int(FaultKind::Saturation)] =
        rng.bernoulli(cfg_.saturation_rate);
    f.active[int(FaultKind::BurstNoise)] =
        rng.bernoulli(cfg_.burst_noise_rate);
    f.active[int(FaultKind::NanPoison)] = rng.bernoulli(cfg_.nan_rate);
    return f;
}

namespace {

/** Min / max over a strided view (same scan order as Image::data()). */
float
viewMin(ImageConstView v)
{
    float best = v.at(0, 0);
    for (int y = 0; y < v.height(); ++y)
        for (int x = 0; x < v.width(); ++x)
            best = std::min(best, v.at(y, x));
    return best;
}

float
viewMax(ImageConstView v)
{
    float best = v.at(0, 0);
    for (int y = 0; y < v.height(); ++y)
        for (int x = 0; x < v.width(); ++x)
            best = std::max(best, v.at(y, x));
    return best;
}

} // namespace

void
FaultInjector::applySensorFaults(const FrameFaults &faults, long frame,
                                 ImageView measurement) const
{
    if (measurement.empty())
        return;
    const int h = measurement.height();
    const int w = measurement.width();
    // Dynamic range of this frame, used to scale fault magnitudes so
    // the same config works on [0,1] scene views and on multiplexed
    // sensor measurements with arbitrary scale.
    const float lo = viewMin(measurement);
    const float hi = viewMax(measurement);
    const float range = std::max(1e-6f, hi - lo);

    if (faults.has(FaultKind::DeadPixelBlock)) {
        Rng rng = frameRng(frame, 0xdead);
        const auto [oy, ox] =
            blockOrigin(rng, h, w, cfg_.block_extent);
        for (int y = oy; y < std::min(h, oy + cfg_.block_extent); ++y)
            for (int x = ox;
                 x < std::min(w, ox + cfg_.block_extent); ++x)
                measurement.at(y, x) = lo;
    }
    if (faults.has(FaultKind::HotPixelBlock)) {
        Rng rng = frameRng(frame, 0x407);
        const auto [oy, ox] =
            blockOrigin(rng, h, w, cfg_.block_extent);
        const float hot = hi + range; // a clear outlier level
        for (int y = oy; y < std::min(h, oy + cfg_.block_extent); ++y)
            for (int x = ox;
                 x < std::min(w, ox + cfg_.block_extent); ++x)
                measurement.at(y, x) = hot;
    }
    if (faults.has(FaultKind::Saturation)) {
        const float knee = lo + float(cfg_.saturation_knee) * range;
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                measurement.at(y, x) =
                    std::min(measurement.at(y, x), knee);
    }
    if (faults.has(FaultKind::BurstNoise)) {
        Rng rng = frameRng(frame, 0xb0457);
        const int band = std::min(h, cfg_.burst_rows);
        const int oy = int(rng.uniformInt(0, std::max(0, h - band)));
        const double sigma = cfg_.burst_sigma * double(range);
        for (int y = oy; y < oy + band; ++y)
            for (int x = 0; x < w; ++x)
                measurement.at(y, x) +=
                    float(rng.gaussian(0.0, sigma));
    }
}

void
FaultInjector::applyViewFaults(const FrameFaults &faults, long frame,
                               ImageView view) const
{
    if (view.empty() || !faults.has(FaultKind::NanPoison))
        return;
    Rng rng = frameRng(frame, 0x9a9);
    const auto [oy, ox] = blockOrigin(rng, view.height(), view.width(),
                                      cfg_.nan_extent);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int y = oy;
         y < std::min(view.height(), oy + cfg_.nan_extent); ++y)
        for (int x = ox;
             x < std::min(view.width(), ox + cfg_.nan_extent); ++x)
            view.at(y, x) = nan;
}

} // namespace flatcam
} // namespace eyecod
