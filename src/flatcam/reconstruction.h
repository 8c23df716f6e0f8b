/**
 * @file
 * Tikhonov-regularized separable reconstruction of FlatCam
 * measurements (Eq. (2) of the paper).
 *
 * Minimizing ||PhiL X PhiR^T - y||_2^2 + eps ||X||_2^2 has the closed
 * form, via the SVDs PhiL = Ul Sl Vl^T and PhiR = Ur Sr Vr^T:
 *
 *   Yhat   = Ul^T y Ur
 *   Xhat_ij = sl_i * sr_j * Yhat_ij / (sl_i^2 * sr_j^2 + eps)
 *   X      = Vl Xhat Vr^T
 *
 * The SVDs and the filter depend only on the (calibrated) mask, so
 * they are computed once into an immutable ReconOptics (optics.h)
 * and each frame costs four small dense products plus an
 * element-wise filter — this is the "reconstruction" workload whose
 * weights live in the accelerator's weight GB.
 *
 * The last two products are separable in the output: a pixel of X
 * reads one row of Vl and one column of Vr^T. So a frame whose ROI
 * is known before acquisition (predict-then-focus, one stage
 * earlier) reconstructs only the ROI, bit for bit the crop of the
 * full reconstruction.
 */

#ifndef EYECOD_FLATCAM_RECONSTRUCTION_H
#define EYECOD_FLATCAM_RECONSTRUCTION_H

#include <memory>

#include "common/image.h"
#include "common/image_view.h"
#include "common/matrix.h"
#include "common/status.h"
#include "flatcam/mask.h"
#include "flatcam/optics.h"

namespace eyecod {
namespace flatcam {

/**
 * Separable Tikhonov inverse of a FlatCam mask: shared immutable
 * optics plus this instance's per-frame scratch.
 */
class FlatCamReconstructor
{
  public:
    /**
     * Builds a private inverse (two SVDs).
     *
     * @param mask the calibrated separable mask.
     * @param epsilon Tikhonov regularization weight (finite, > 0).
     */
    FlatCamReconstructor(const SeparableMask &mask,
                         double epsilon = 1e-4);

    /** Reads @p optics, shared with any other holder. */
    explicit FlatCamReconstructor(
        std::shared_ptr<const ReconOptics> optics);

    /**
     * Reconstruct one frame: the sensor-extent measurement arrives
     * as a view and the scene estimate, clamped to [0, 1], lands in
     * @p out (buffer reused across frames). A mis-sized measurement
     * returns a ShapeMismatch status instead of aborting, and a
     * measurement containing non-finite values returns NonFinite
     * (the separable inverse would smear a single NaN across the
     * whole scene). On error @p out is left unspecified.
     */
    Status reconstructFrameInto(ImageConstView measurement,
                                Image *out) const;

    /**
     * The same reconstruction over @p roi alone: @p out (roi.height x
     * roi.width) is bit for bit what Image::croppedInto cuts from the
     * full reconstruction, edge-clamped where @p roi leaves the
     * scene. Ul^T y Ur and the filter still run in full; the last
     * two products read only the ROI's rows of Vl and columns of
     * Vr^T. The full-frame call is this one over the whole scene.
     */
    Status reconstructFrameInto(ImageConstView measurement,
                                const Rect &roi, Image *out) const;

    /** Regularization weight in use. */
    double epsilon() const { return optics_->epsilon; }

    /** Scene shape produced by reconstructFrameInto(). */
    int sceneRows() const { return int(optics_->vl.rows()); }
    int sceneCols() const { return int(optics_->vr_t.cols()); }

    /**
     * Multiply-accumulate count of one full-frame reconstruction,
     * used by the accelerator workload compiler (four dense products
     * and the filter).
     */
    long long macsPerFrame() const;

  private:
    std::shared_ptr<const ReconOptics> optics_;

    // Per-frame reconstruction scratch, sized by the constructor (in
    // the building thread's malloc arena, as the sensor's is) and
    // reused by every frame; not observable state, hence mutable. A
    // reconstructor is owned by one pipeline and never shared across
    // threads (its optics are).
    mutable Matrix meas_mat_;  ///< y (measurement as doubles), then
                               ///  the ROI's rows of Vl.
    mutable Matrix left_prod_; ///< Ul^T * y, then the ROI's columns
                               ///  of Vr^T.
    mutable Matrix yhat_;      ///< Ul^T y Ur, then the filter.
    mutable Matrix vl_prod_;   ///< Vl * Xhat, the ROI's rows.
    mutable Matrix scene_mat_; ///< (Vl Xhat) * Vr^T, the ROI.
};

} // namespace flatcam
} // namespace eyecod

#endif // EYECOD_FLATCAM_RECONSTRUCTION_H
