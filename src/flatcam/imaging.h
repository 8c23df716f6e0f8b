/**
 * @file
 * Forward imaging model of the FlatCam: applies the separable transfer
 * matrices of Eq. (1) to a scene and adds sensor noise (Gaussian read
 * noise plus optional Poisson shot noise), producing the multiplexed
 * measurement a real FlatCam sensor would record.
 *
 * captureFrameInto() is the one capture call: it takes the scene as
 * a non-owning view, runs the forward model through per-sensor matrix
 * scratch (sized at construction, reused every frame), and writes the
 * measurement into a caller-owned image — zero heap allocations in
 * steady state. The sensor is the pure forward model: frame drops
 * and sensor-domain faults are the pipeline's to apply. The mask is
 * immutable SensorOptics (optics.h), shared by every sensor of one
 * mask.
 */

#ifndef EYECOD_FLATCAM_IMAGING_H
#define EYECOD_FLATCAM_IMAGING_H

#include <cstdint>
#include <memory>
#include <string>

#include "common/image.h"
#include "common/image_view.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/status.h"
#include "flatcam/mask.h"
#include "flatcam/optics.h"

namespace eyecod {
namespace flatcam {

/** Sensor noise configuration. */
struct SensorNoise
{
    double read_noise = 0.002;   ///< Gaussian read-noise std-dev.
    double shot_noise_scale = 0.0; ///< Photon count scale (0 = off).
    uint64_t seed = 0xcafe;      ///< Noise RNG seed.
};

/**
 * The FlatCam forward model y = PhiL * x * PhiR^T + e: shared
 * immutable optics plus this instance's noise stream and scratch.
 */
class FlatCamSensor
{
  public:
    /**
     * @param mask separable mask (copied into private optics).
     * @param noise sensor noise parameters.
     */
    FlatCamSensor(SeparableMask mask, SensorNoise noise = {});

    /**
     * @param optics forward optics, shared with any other holder.
     * @param noise sensor noise parameters.
     */
    FlatCamSensor(std::shared_ptr<const SensorOptics> optics,
                  SensorNoise noise = {});

    /**
     * Capture one frame of a stream: the scene arrives as a view and
     * the noisy measurement (sensor extent) lands in @p out, whose
     * buffer is reused across frames. A scene that does not match
     * the mask's scene extent returns a ShapeMismatch status naming
     * @p frame_index (a real sensor feed can deliver garbage; the
     * serving path must not abort) and draws no noise. On error
     * @p out is left unspecified.
     */
    Status captureFrameInto(ImageConstView scene, long frame_index,
                            Image *out) const;

    /**
     * Restart the read/shot-noise RNG from its seed so a replayed
     * sequence sees the identical noise stream (determinism tests and
     * pipeline reset()).
     */
    void resetNoise();

    /**
     * Snapshot field list (common/snapshot.h): the noise RNG's stream
     * position — the only mutable state a sensor carries that the
     * seed alone cannot rebuild — as the engine's standard text
     * (Mt19937_64::text()). A restored sensor continues the
     * read/shot-noise stream from the exact draw the snapshot was
     * taken at (bitwise replay across a checkpoint boundary).
     */
    template <class Self, class Ar>
    static void
    fields(Self &cam, Ar &ar)
    {
        ar.tag(0x534e5331); // "SNS1"
        std::string state = cam.rng_.engine().text();
        ar.field(state, size_t(1) << 15); // ~6.3 KB in practice
        if constexpr (Ar::kLoading)
            ar.check(cam.rng_.engine().parseText(state),
                     "unparsable sensor RNG stream state");
    }

    /** The mask in use. */
    const SeparableMask &mask() const { return optics_->mask; }

    /** Sensor measurement shape. */
    int sensorRows() const { return int(mask().phiL.rows()); }
    int sensorCols() const { return int(mask().phiR.rows()); }

    /** Scene shape expected by captureFrameInto(). */
    int sceneRows() const { return int(mask().phiL.cols()); }
    int sceneCols() const { return int(mask().phiR.cols()); }

  private:
    // Only rng_ is snapshotted: the optics are immutable and the
    // noise model is config.
    std::shared_ptr<const SensorOptics> optics_;
    SensorNoise noise_;
    mutable Rng rng_;

    // Per-frame forward-model scratch, sized by the constructor and
    // reused by every capture. Sized there, it sits in the malloc
    // arena of the thread that builds the sensor (a session opener),
    // not of whichever worker captures first; worker arenas keep
    // freed scratch, so peak RSS would grow with each engine rebuild.
    // mutable for the same reason rng_ is: capture is logically
    // const, the scratch is not observable state. A sensor is owned
    // by one pipeline and never shared across threads (the RNG
    // already forbids that); its optics are.
    mutable Matrix scene_mat_;  ///< x (scene as doubles), then
                                ///  (PhiL * x)^T.
    mutable Matrix left_prod_;  ///< PhiL * x.
    mutable Matrix measurement_; ///< Y^T = PhiR * (PhiL * x)^T.
};

/** Convert a view to a Matrix (double), reusing @p out's buffer. */
void imageToMatrixInto(ImageConstView img, Matrix *out);

/**
 * Convert a Matrix to an Image (float), without rescaling, reusing
 * @p out's buffer.
 */
void matrixToImageInto(const Matrix &m, Image *out);

} // namespace flatcam
} // namespace eyecod

#endif // EYECOD_FLATCAM_IMAGING_H
