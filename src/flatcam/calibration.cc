#include "flatcam/calibration.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace eyecod {
namespace flatcam {

namespace {

/** Rank-1 factorization Y ~ a b^T via the dominant singular pair. */
void
rankOneFactor(const Matrix &y, std::vector<double> &a,
              std::vector<double> &b)
{
    const Svd svd = computeSvd(y);
    const double s = std::sqrt(std::max(0.0, svd.s[0]));
    a.resize(y.rows());
    b.resize(y.cols());
    // Fix the sign so the (physically non-negative) factors have a
    // positive mean.
    double mean_u = 0.0;
    for (size_t i = 0; i < y.rows(); ++i)
        mean_u += svd.u(i, 0);
    const double sign = mean_u >= 0.0 ? 1.0 : -1.0;
    for (size_t i = 0; i < y.rows(); ++i)
        a[i] = sign * svd.u(i, 0) * s;
    for (size_t j = 0; j < y.cols(); ++j)
        b[j] = sign * svd.v(j, 0) * s;
}

/** Project the columns of Y onto a fixed right factor c. */
std::vector<double>
projectColumns(const Matrix &y, const std::vector<double> &c)
{
    double norm2 = 0.0;
    for (double v : c)
        norm2 += v * v;
    eyecod_assert(norm2 > 0.0, "degenerate calibration anchor");
    std::vector<double> out(y.rows(), 0.0);
    for (size_t i = 0; i < y.rows(); ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < y.cols(); ++j)
            acc += y(i, j) * c[j];
        out[i] = acc / norm2;
    }
    return out;
}

} // namespace

CalibrationResult
calibrateSeparable(const FlatCamSensor &sensor,
                   const SeparableMask *truth)
{
    const int sr = sensor.sceneRows();
    const int sc = sensor.sceneCols();

    CalibrationResult result;

    // Each capture lands in one measurement buffer and its matrix
    // copy; every pattern has the mask's scene extent.
    Image meas;
    Matrix ymat;
    const auto capture = [&](const Image &scene) -> const Matrix & {
        const Status s =
            sensor.captureFrameInto(scene, result.captures_used, &meas);
        eyecod_assert(s.isOk(), "calibration capture: %s",
                      s.toString().c_str());
        ++result.captures_used;
        imageToMatrixInto(meas, &ymat);
        return ymat;
    };

    // 1. Full-on anchor capture: Y = (PhiL 1)(PhiR 1)^T.
    std::vector<double> a_hat; // ~ PhiL 1 (up to the scale split)
    std::vector<double> c_hat; // ~ PhiR 1
    rankOneFactor(capture(Image(sr, sc, 1.0f)), a_hat, c_hat);

    // 2. Row impulses: column i of PhiL from Y_i = (PhiL e_i) c^T.
    result.mask.phiL =
        Matrix(size_t(sensor.sensorRows()), size_t(sr));
    for (int i = 0; i < sr; ++i) {
        Image scene(sr, sc, 0.0f);
        for (int x = 0; x < sc; ++x)
            scene.at(i, x) = 1.0f;
        const std::vector<double> col =
            projectColumns(capture(scene), c_hat);
        for (size_t r = 0; r < col.size(); ++r)
            result.mask.phiL(r, size_t(i)) = col[r];
    }

    // 3. Column impulses: column j of PhiR from Y_j = a (PhiR e_j)^T.
    result.mask.phiR =
        Matrix(size_t(sensor.sensorCols()), size_t(sc));
    for (int j = 0; j < sc; ++j) {
        Image scene(sr, sc, 0.0f);
        for (int y = 0; y < sr; ++y)
            scene.at(y, j) = 1.0f;
        const std::vector<double> col =
            projectColumns(capture(scene).transposed(), a_hat);
        for (size_t r = 0; r < col.size(); ++r)
            result.mask.phiR(r, size_t(j)) = col[r];
    }

    // The projection against c_hat ~ gamma^-1 (PhiR 1) makes
    // PhiL_hat = gamma PhiL and PhiR_hat = PhiR / gamma: the product
    // is preserved, which is all reconstruction needs.

    if (truth) {
        // Probe the forward operators on a random scene.
        Rng rng(0xca11b);
        Matrix x(static_cast<size_t>(sr), static_cast<size_t>(sc));
        for (double &v : x.data())
            v = rng.uniform();
        const Matrix ref =
            truth->phiL.multiply(x).multiply(
                truth->phiR.transposed());
        const Matrix est =
            result.mask.phiL.multiply(x).multiply(
                result.mask.phiR.transposed());
        result.product_error =
            est.sub(ref).frobeniusNorm() / ref.frobeniusNorm();
    }
    return result;
}

} // namespace flatcam
} // namespace eyecod
