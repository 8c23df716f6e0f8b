/**
 * @file
 * Coded-aperture mask generation for the FlatCam optical model.
 *
 * Following Asif et al. (FlatCam, 2015), the paper's Eq. (1) models the
 * sensor measurement of a scene x as y = PhiL * x * PhiR^T + e, where
 * PhiL and PhiR are separable transfer matrices induced by a
 * maximum-length-sequence (MLS) amplitude mask. This module generates
 * the MLS patterns and the induced transfer matrices, including the
 * fabrication-imperfection perturbations the paper mentions as a source
 * of reconstruction artifacts.
 */

#ifndef EYECOD_FLATCAM_MASK_H
#define EYECOD_FLATCAM_MASK_H

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace eyecod {
namespace flatcam {

/**
 * Generate a maximum-length sequence of length 2^order - 1 using a
 * Fibonacci LFSR with a primitive feedback polynomial.
 *
 * @param order LFSR register width; supported range [3, 16].
 * @return sequence of +1 / -1 values of length 2^order - 1.
 */
std::vector<int> mlsSequence(int order);

/** Configuration of a separable FlatCam mask pair. */
struct MaskConfig
{
    int sensor_rows = 160;   ///< Rows of the sensor measurement.
    int sensor_cols = 160;   ///< Columns of the sensor measurement.
    int scene_rows = 128;    ///< Rows of the scene plane.
    int scene_cols = 128;    ///< Columns of the scene plane.
    int mls_order = 9;       ///< LFSR order for the MLS pattern.
    /**
     * Std-dev of multiplicative per-element perturbation modelling
     * mask fabrication imperfection (0 disables it).
     */
    double fabrication_noise = 0.005;
    uint64_t seed = 0x71a7ca; ///< Seed for the perturbations.

    bool operator==(const MaskConfig &) const = default;
};

/**
 * A separable FlatCam mask: the pair of transfer matrices of Eq. (1).
 *
 * phiL is (sensor_rows x scene_rows) and phiR is
 * (sensor_cols x scene_cols); both have rows drawn from cyclic shifts
 * of a {0, 1} MLS amplitude pattern, scaled so the system is well
 * conditioned for the Tikhonov inversion.
 */
struct SeparableMask
{
    Matrix phiL; ///< Left transfer matrix.
    Matrix phiR; ///< Right transfer matrix.

    /** Mask thickness in millimetres (form-factor bookkeeping). */
    double thickness_mm = 0.5;
    /** Mask weight in grams (form-factor bookkeeping). */
    double weight_g = 0.5;
};

/**
 * Build the separable transfer matrices for the given configuration.
 *
 * Each row r of a transfer matrix is the MLS pattern cyclically
 * shifted by r (mapped from +/-1 to {0, 1} amplitude transmission),
 * truncated to the scene extent and normalized by the scene dimension
 * so measurement magnitudes stay O(1). Fabrication noise perturbs
 * each entry multiplicatively.
 */
SeparableMask makeSeparableMask(const MaskConfig &cfg);

} // namespace flatcam
} // namespace eyecod

#endif // EYECOD_FLATCAM_MASK_H
