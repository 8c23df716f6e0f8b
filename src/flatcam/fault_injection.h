/**
 * @file
 * Deterministic sensor fault injection for robustness testing and the
 * fault-recovery benchmarks.
 *
 * Real lensless front-ends fail in characteristic ways: frames are
 * dropped on the camera link, pixel blocks die or stick hot, the
 * photodiode saturates under strong illumination, bursts of read
 * noise corrupt scanline bands, and a corrupted measurement can drive
 * the Tikhonov reconstruction to non-finite values. The FaultInjector
 * reproduces each of these on demand.
 *
 * The schedule is a pure function of (seed, frame index): plan() and
 * the apply*() stages derive a fresh RNG from a per-frame hash, so
 * the same seed yields bitwise-identical fault sequences regardless
 * of call order or resets — the property the degradation-determinism
 * tests rely on.
 */

#ifndef EYECOD_FLATCAM_FAULT_INJECTION_H
#define EYECOD_FLATCAM_FAULT_INJECTION_H

#include <array>
#include <cstdint>

#include "common/image_view.h"
#include "common/rng.h"

namespace eyecod {
namespace flatcam {

/** The fault taxonomy. */
enum class FaultKind : int {
    DroppedFrame = 0, ///< The sensor delivered nothing this tick.
    DeadPixelBlock,   ///< A block of pixels stuck at zero.
    HotPixelBlock,    ///< A block of pixels stuck at an outlier level.
    Saturation,       ///< Highlights clipped at a reduced full-scale.
    BurstNoise,       ///< Strong noise over a scanline band.
    NanPoison,        ///< Non-finite values in the reconstruction.
};

/** Number of FaultKind values. */
constexpr int kNumFaultKinds = 6;

/** Human-readable name of a FaultKind. */
const char *faultKindName(FaultKind kind);

/** Per-kind, per-frame injection probabilities and shape knobs. */
struct FaultConfig
{
    double drop_rate = 0.0;       ///< P(DroppedFrame) per frame.
    double dead_block_rate = 0.0; ///< P(DeadPixelBlock) per frame.
    double hot_block_rate = 0.0;  ///< P(HotPixelBlock) per frame.
    double saturation_rate = 0.0; ///< P(Saturation) per frame.
    double burst_noise_rate = 0.0; ///< P(BurstNoise) per frame.
    double nan_rate = 0.0;        ///< P(NanPoison) per frame.

    int block_extent = 12;        ///< Dead/hot block side in pixels.
    int burst_rows = 8;           ///< Scanline band height.
    double burst_sigma = 0.5;     ///< Burst noise std-dev, fraction
                                  ///  of the frame's dynamic range.
    double saturation_knee = 0.55; ///< Clip level, fraction of range.
    int nan_extent = 6;           ///< NaN-poisoned block side.

    uint64_t seed = 0xfa017;      ///< Schedule seed.

    /**
     * Active frame window [first_frame, last_frame]. Outside it
     * plan() returns no faults; last_frame < 0 means unbounded. The
     * per-frame schedule inside the window is independent of the
     * bounds, so narrowing the window only masks entries. Used to
     * model a bounded outage followed by a clean recovery tail.
     */
    long first_frame = 0;
    long last_frame = -1;

    /** True when any rate is positive. */
    bool anyEnabled() const;

    /** A uniform mixed-fault config: every kind at @p rate. */
    static FaultConfig mixed(double rate, uint64_t seed = 0xfa017);
};

/** The faults planned for one frame. */
struct FrameFaults
{
    std::array<bool, kNumFaultKinds> active{};

    bool has(FaultKind k) const { return active[size_t(int(k))]; }
    bool dropped() const { return has(FaultKind::DroppedFrame); }

    /** True when any fault is planned. */
    bool any() const;

    /** Number of planned faults. */
    int count() const;
};

/**
 * Stateless, deterministic fault source. All methods are const and
 * derive their randomness from (config seed, frame index) only.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig cfg);

    /** The fault schedule entry for @p frame. */
    FrameFaults plan(long frame) const;

    /**
     * Apply the sensor-domain faults (dead/hot blocks, saturation,
     * burst noise) planned for @p frame to @p measurement in place.
     * DroppedFrame and NanPoison are not handled here.
     */
    void applySensorFaults(const FrameFaults &faults, long frame,
                           ImageView measurement) const;

    /**
     * Apply the reconstruction-domain faults (NanPoison) planned for
     * @p frame to the reconstructed @p view in place.
     */
    void applyViewFaults(const FrameFaults &faults, long frame,
                         ImageView view) const;

    /** Configuration in use. */
    const FaultConfig &config() const { return cfg_; }

  private:
    /** Fresh RNG for (frame, stage); stage decorrelates the draws. */
    Rng frameRng(long frame, uint64_t stage) const;

    FaultConfig cfg_;
};

} // namespace flatcam
} // namespace eyecod

#endif // EYECOD_FLATCAM_FAULT_INJECTION_H
