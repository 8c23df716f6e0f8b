/**
 * @file
 * Trainable gaze estimator: the lightweight stand-in for the CNN gaze
 * regressor in the accuracy experiments (Tabs. 2, 4, 5; see DESIGN.md
 * on the trained-checkpoint substitution).
 *
 * A ridge regression maps downsampled ROI pixels to a 3-D gaze
 * vector. Its error responds to exactly the factors the paper
 * ablates: crop policy (whether the eye is inside the crop), ROI
 * size, ROI staleness, FlatCam reconstruction noise, and input
 * quantization — so the relative orderings of the paper's tables
 * reproduce end-to-end.
 */

#ifndef EYECOD_EYETRACK_GAZE_ESTIMATOR_H
#define EYECOD_EYETRACK_GAZE_ESTIMATOR_H

#include <memory>
#include <vector>

#include "common/image.h"
#include "common/image_view.h"
#include "dataset/gaze_math.h"
#include "nn/runtime.h"

namespace eyecod {
namespace eyetrack {

/** Estimator configuration. */
struct GazeEstimatorConfig
{
    int feat_height = 16;  ///< Feature-map rows after downsampling.
    int feat_width = 26;   ///< Feature-map columns.
    double lambda = 3.0;   ///< Ridge regularization weight.
    int quant_bits = 0;    ///< 0 float; 8 emulates int8 deployment.
};

/**
 * Ridge regression from ROI pixels to gaze vectors.
 */
class RidgeGazeEstimator
{
  public:
    explicit RidgeGazeEstimator(GazeEstimatorConfig cfg = {});

    /**
     * Fit the regressor on ROI crops with ground-truth gazes.
     * Solves (X^T X + lambda I) W = X^T Y per output via Cholesky.
     */
    void train(const std::vector<Image> &rois,
               const std::vector<dataset::GazeVec> &gazes);

    /**
     * Predict a unit gaze vector for one ROI crop, which may be a
     * strided view. The feature scratch is reused across calls —
     * zero heap allocations in steady state — so concurrent predict
     * calls on one estimator instance are a data race; each
     * pipeline owns its own estimator, which is the existing
     * ownership model.
     */
    dataset::GazeVec predict(ImageConstView roi) const;

    /** True after train(). */
    bool trained() const { return !weights_.empty(); }

    /**
     * Mean angular error in degrees over an evaluation set.
     */
    double evaluate(const std::vector<Image> &rois,
                    const std::vector<dataset::GazeVec> &gazes) const;

    /** Per-frame multiply-accumulates of inference. */
    long long macsPerFrame() const;

    /** Configuration in use. */
    const GazeEstimatorConfig &config() const { return cfg_; }

  private:
    /** Feature extraction into the member scratch (no allocation). */
    const std::vector<double> &featuresInto(ImageConstView roi) const;

    GazeEstimatorConfig cfg_;
    int dim_; ///< Feature dimension including bias.
    std::vector<double> weights_; ///< dim_ x 3, row-major.

    // Per-call scratch, sized by the constructor (in the building
    // thread's malloc arena) and reused by every predict; not
    // observable state, hence mutable (predict stays const for
    // existing callers).
    mutable Image feat_img_;              ///< Downsampled ROI.
    mutable std::vector<double> feat_scratch_; ///< Feature vector.
};

/** Neural gaze estimator configuration. */
struct NeuralGazeConfig
{
    int height = 32;  ///< Network ROI rows (deployment uses 96).
    int width = 64;   ///< Network ROI columns (deployment uses 160).
    int quant_bits = 0;
    /** Execution backend for the planned runtime. */
    nn::BackendKind backend = nn::BackendKind::Serial;
    int threads = 0;  ///< Threaded backend only; 0 = hardware.
};

/**
 * FBNet-C100-based gaze regressor on the planned NN runtime. The
 * graph is planned once; predict() reuses the backend arena.
 */
class NeuralGazeEstimator
{
  public:
    explicit NeuralGazeEstimator(NeuralGazeConfig cfg = {});

    /**
     * Predict a unit gaze vector for one ROI crop. The network
     * input and output tensors are persistent members fed to the
     * backend without copy-in (Backend::runCheckedInto) — zero
     * steady-state heap allocations.
     */
    dataset::GazeVec predict(ImageConstView roi);

    /** Arena/liveness accounting of the underlying plan. */
    const nn::PlanStats &planStats() const { return plan_.stats(); }

    /** Name of the backend in use ("serial", "threaded-N"). */
    std::string backendName() const { return backend_->name(); }

    /** Backend executing the plan (e.g. to install a fault tap). */
    nn::Backend &backend() { return *backend_; }

    /** Configuration in use. */
    const NeuralGazeConfig &config() const { return cfg_; }

  private:
    NeuralGazeConfig cfg_;
    nn::Graph graph_;       ///< Must outlive plan_.
    nn::ExecutionPlan plan_;
    std::unique_ptr<nn::Backend> backend_;

    // Persistent inference scratch: resized ROI, input tensor handed
    // to the backend by pointer, input pointer list, output tensor.
    Image sized_;
    nn::Tensor input_;
    std::vector<const nn::Tensor *> input_ptrs_;
    nn::Tensor out_;
};

} // namespace eyetrack
} // namespace eyecod

#endif // EYECOD_EYETRACK_GAZE_ESTIMATOR_H
