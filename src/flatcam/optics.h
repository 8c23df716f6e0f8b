/**
 * @file
 * Immutable FlatCam optics: the operators derived from one calibrated
 * mask, which no frame changes.
 *
 * The forward model (Eq. 1) needs only the mask; the Tikhonov
 * inverse (Eq. 2) needs the four SVD factors and the element-wise
 * filter. Both depend only on the mask and epsilon, so a process
 * builds them once per mask and every FlatCamSensor and
 * FlatCamReconstructor of that mask reads the same copy through a
 * std::shared_ptr<const ...> — the software analogue of the
 * accelerator holding the reconstruction weights once in its weight
 * GB (Sec. 4.1), not once per user. Nothing here is written after
 * construction, so any number of threads read it without a lock;
 * per-frame scratch and the noise stream stay in each sensor and
 * reconstructor.
 */

#ifndef EYECOD_FLATCAM_OPTICS_H
#define EYECOD_FLATCAM_OPTICS_H

#include <memory>

#include "common/matrix.h"
#include "flatcam/mask.h"

namespace eyecod {
namespace flatcam {

/** The forward operator y = PhiL x PhiR^T of one mask (Eq. 1). */
struct SensorOptics
{
    explicit SensorOptics(SeparableMask m);

    SeparableMask mask;
};

/**
 * The separable Tikhonov inverse of one mask (Eq. 2). With
 * PhiL = Ul Sl Vl^T and PhiR = Ur Sr Vr^T a frame reconstructs as
 * X = Vl (F .* (Ul^T y Ur)) Vr^T, where the filter is
 * F_ij = sl_i sr_j / (sl_i^2 sr_j^2 + eps).
 */
struct ReconOptics
{
    /**
     * Runs both SVDs. fatal() unless @p eps is finite and positive:
     * a NaN weight would turn every pixel NaN, an infinite one every
     * pixel 0.
     */
    ReconOptics(const SeparableMask &mask, double eps);

    double epsilon;
    Matrix ul_t;   ///< Ul^T (k_l x sensor_rows).
    Matrix ur;     ///< Ur (sensor_cols x k_r).
    Matrix vl;     ///< Vl (scene_rows x k_l).
    Matrix vr_t;   ///< Vr^T (k_r x scene_cols).
    Matrix filter; ///< F (k_l x k_r).
};

/** Both halves of one mask's optics, as a pipeline uses them. */
struct Optics
{
    Optics(const MaskConfig &cfg, double epsilon);

    SensorOptics sensor;
    ReconOptics recon;
};

/**
 * The process-wide optics of (@p cfg, @p epsilon): the live copy
 * while any holder keeps one, else a freshly built one (two SVDs)
 * that later calls share. Thread-safe; concurrent first calls for
 * one key build it once. fatal() on an invalid @p epsilon.
 */
std::shared_ptr<const Optics> sharedOptics(const MaskConfig &cfg,
                                           double epsilon);

} // namespace flatcam
} // namespace eyecod

#endif // EYECOD_FLATCAM_OPTICS_H
