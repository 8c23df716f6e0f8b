#include "eyetrack/gaze_estimator.h"

#include <cmath>

#include <algorithm>

#include "common/logging.h"
#include "common/matrix.h"
#include "models/model_zoo.h"

namespace eyecod {
namespace eyetrack {

RidgeGazeEstimator::RidgeGazeEstimator(GazeEstimatorConfig cfg)
    : cfg_(cfg), dim_(cfg.feat_height * cfg.feat_width + 1)
{
    eyecod_assert(cfg.feat_height > 0 && cfg.feat_width > 0,
                  "estimator feature extent must be positive");
    feat_img_.resetShape(cfg.feat_height, cfg.feat_width);
    feat_scratch_.resize(size_t(dim_));
}

const std::vector<double> &
RidgeGazeEstimator::featuresInto(ImageConstView roi) const
{
    resizeBilinearInto(roi, cfg_.feat_height, cfg_.feat_width,
                       &feat_img_);
    std::vector<double> &f = feat_scratch_;
    f.assign(static_cast<size_t>(dim_), 0.0);
    for (size_t i = 0; i + 1 < size_t(dim_); ++i) {
        double v = feat_img_.data()[i];
        if (cfg_.quant_bits > 0) {
            // Inputs live in [0, 1]: snap to the unsigned int grid.
            const double levels = double((1 << cfg_.quant_bits) - 1);
            v = std::round(v * levels) / levels;
        }
        f[i] = v - 0.5; // zero-centre
    }
    f[size_t(dim_) - 1] = 1.0; // bias
    return f;
}

void
RidgeGazeEstimator::train(const std::vector<Image> &rois,
                          const std::vector<dataset::GazeVec> &gazes)
{
    eyecod_assert(rois.size() == gazes.size() && !rois.empty(),
                  "train set mismatch: %zu rois vs %zu gazes",
                  rois.size(), gazes.size());

    const size_t n = rois.size();
    const size_t d = size_t(dim_);
    // Accumulate X^T X and X^T Y without materializing X.
    Matrix xtx(d, d);
    Matrix xty(d, 3);
    for (size_t i = 0; i < n; ++i) {
        const std::vector<double> &f = featuresInto(rois[i]);
        for (size_t a = 0; a < d; ++a) {
            const double fa = f[a];
            if (fa == 0.0)
                continue;
            for (size_t b = a; b < d; ++b)
                xtx(a, b) += fa * f[b];
            for (size_t c = 0; c < 3; ++c)
                xty(a, c) += fa * gazes[i][c];
        }
    }
    // Mirror the upper triangle and add the ridge.
    for (size_t a = 0; a < d; ++a) {
        for (size_t b = 0; b < a; ++b)
            xtx(a, b) = xtx(b, a);
        xtx(a, a) += cfg_.lambda;
    }

    const Matrix w = solveSpd(xtx, xty);
    weights_.resize(d * 3);
    for (size_t a = 0; a < d; ++a)
        for (size_t c = 0; c < 3; ++c)
            weights_[a * 3 + c] = w(a, c);

    if (cfg_.quant_bits > 0) {
        // Deploy-time weight quantization (symmetric, per-tensor).
        double max_abs = 0.0;
        for (double v : weights_)
            max_abs = std::max(max_abs, std::fabs(v));
        const double qmax = double((1 << (cfg_.quant_bits - 1)) - 1);
        const double scale = max_abs > 0.0 ? max_abs / qmax : 1.0;
        for (double &v : weights_)
            v = std::round(v / scale) * scale;
    }
}

dataset::GazeVec
RidgeGazeEstimator::predict(ImageConstView roi) const
{
    eyecod_assert(trained(), "predict() before train()");
    const std::vector<double> &f = featuresInto(roi);
    dataset::GazeVec g{0.0, 0.0, 0.0};
    for (size_t a = 0; a < size_t(dim_); ++a)
        for (size_t c = 0; c < 3; ++c)
            g[c] += f[a] * weights_[a * 3 + c];
    return dataset::normalize(g);
}

double
RidgeGazeEstimator::evaluate(
    const std::vector<Image> &rois,
    const std::vector<dataset::GazeVec> &gazes) const
{
    eyecod_assert(rois.size() == gazes.size() && !rois.empty(),
                  "evaluate set mismatch");
    double acc = 0.0;
    for (size_t i = 0; i < rois.size(); ++i)
        acc += dataset::angularErrorDeg(predict(rois[i]), gazes[i]);
    return acc / double(rois.size());
}

long long
RidgeGazeEstimator::macsPerFrame() const
{
    return (long long)dim_ * 3;
}

NeuralGazeEstimator::NeuralGazeEstimator(NeuralGazeConfig cfg)
    : cfg_(cfg),
      graph_(models::buildFBNetC100(cfg.height, cfg.width,
                                    cfg.quant_bits)),
      plan_(graph_),
      backend_(nn::makeBackend(cfg.backend, cfg.threads))
{
}

dataset::GazeVec
NeuralGazeEstimator::predict(ImageConstView roi)
{
    // Same-size inputs reduce to a copy inside resizeBilinearInto, so
    // one path serves every ROI extent.
    resizeBilinearInto(roi, cfg_.height, cfg_.width, &sized_);
    input_.reset(nn::Shape{1, cfg_.height, cfg_.width});
    std::copy(sized_.data().begin(), sized_.data().end(),
              input_.data().begin());
    input_ptrs_.assign(1, &input_);

    // Finite-checked execution: a poisoned tensor degrades to the
    // neutral forward gaze instead of emitting NaN.
    Status status = backend_->runCheckedInto(plan_, input_ptrs_, &out_);
    if (!status.isOk()) {
        warnLimited("neural-gaze-fault", "gaze degraded: %s",
                    status.toString().c_str());
        return dataset::GazeVec{0, 0, 1};
    }
    eyecod_assert(out_.size() == 3,
                  "gaze head must emit 3 values, got %zu",
                  out_.size());
    dataset::GazeVec g{double(out_.data()[0]), double(out_.data()[1]),
                       double(out_.data()[2])};
    return dataset::normalize(g);
}

} // namespace eyetrack
} // namespace eyecod
