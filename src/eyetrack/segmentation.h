/**
 * @file
 * Eye semantic segmentation: the functional stand-in for RITNet's
 * role in the predict stage (see DESIGN.md on the trained-checkpoint
 * substitution), plus the mIOU metric of Tab. 3.
 *
 * The classical segmenter exploits the same image statistics the
 * paper's Sec. 4.3 relies on: "pupils have a significantly different
 * feature than the other parts in the image, as the pupil is usually
 * a circle with a darker color than its surrounding", while the
 * low-contrast sclera is the hard class — especially on noisy FlatCam
 * reconstructions.
 */

#ifndef EYECOD_EYETRACK_SEGMENTATION_H
#define EYECOD_EYETRACK_SEGMENTATION_H

#include <array>
#include <memory>

#include "common/image.h"
#include "common/image_view.h"
#include "dataset/synthetic_eye.h"
#include "nn/runtime.h"

namespace eyecod {
namespace eyetrack {

/** Segmenter configuration (intensity-band thresholds). */
struct SegmenterConfig
{
    float pupil_max = 0.20f;   ///< Pupil: darkest band.
    float iris_max = 0.48f;    ///< Iris: mid band.
    float sclera_min = 0.66f;  ///< Sclera: bright band.
    /** Smoothing box-filter radius applied before thresholding. */
    int smooth_radius = 1;
    /**
     * Quantization bits emulated on the input (0 = float); the 8-bit
     * rows of Tab. 3 snap the input to a 256-level grid first.
     */
    int quant_bits = 0;
    /**
     * Extra fraction of pixels randomly mislabelled near class
     * boundaries, emulating the residual error of the trained model;
     * 0 disables.
     */
    double boundary_noise = 0.0;
};

/**
 * Threshold-and-region based eye segmenter.
 */
class ClassicalSegmenter
{
  public:
    explicit ClassicalSegmenter(SegmenterConfig cfg = {});

    /**
     * Segment an eye image (or a strided crop of one) into the four
     * OpenEDS classes.
     *
     * The pupil is detected as the largest dark connected component;
     * iris and sclera bands are kept only when connected to the
     * pupil region, which suppresses dark/bright clutter elsewhere.
     * Segmentation runs only on ROI refresh frames, so its internal
     * scratch is allocated per call rather than pooled.
     */
    dataset::SegMask segment(ImageConstView eye) const;

    /** Configuration in use. */
    const SegmenterConfig &config() const { return cfg_; }

  private:
    SegmenterConfig cfg_;
};

/** Neural segmenter configuration. */
struct NeuralSegmenterConfig
{
    int height = 64;  ///< Network input rows (deployment uses 256).
    int width = 64;   ///< Network input columns.
    int quant_bits = 0; ///< 0 float, 8 for the int8 deployment rows.
    /** Execution backend for the planned runtime. */
    nn::BackendKind backend = nn::BackendKind::Serial;
    int threads = 0;  ///< Threaded backend only; 0 = hardware.
};

/**
 * RITNet-based eye segmenter on the planned NN runtime.
 *
 * The graph is planned once at construction; every segment() call
 * reuses the same ExecutionPlan and backend arena, so steady-state
 * inference performs zero tensor allocation.
 */
class NeuralSegmenter
{
  public:
    explicit NeuralSegmenter(NeuralSegmenterConfig cfg = {});

    /**
     * Segment an eye image into the four OpenEDS classes. The input
     * is resized to the network resolution and the per-pixel argmax
     * over the 4-class logits becomes the mask. The network input
     * tensor is a persistent member handed to
     * Backend::runCheckedInto without copy-in.
     */
    dataset::SegMask segment(ImageConstView eye);

    /** Arena/liveness accounting of the underlying plan. */
    const nn::PlanStats &planStats() const { return plan_.stats(); }

    /** Name of the backend in use ("serial", "threaded-N"). */
    std::string backendName() const { return backend_->name(); }

    /** Backend executing the plan (e.g. to install a fault tap). */
    nn::Backend &backend() { return *backend_; }

    /** Configuration in use. */
    const NeuralSegmenterConfig &config() const { return cfg_; }

  private:
    NeuralSegmenterConfig cfg_;
    nn::Graph graph_;       ///< Must outlive plan_.
    nn::ExecutionPlan plan_;
    std::unique_ptr<nn::Backend> backend_;

    // Persistent inference scratch: resized crop, input tensor handed
    // to the backend by pointer, input pointer list, output logits.
    Image sized_;
    nn::Tensor input_;
    std::vector<const nn::Tensor *> input_ptrs_;
    nn::Tensor logits_;
};

/**
 * Per-class intersection-over-union and their mean (mIOU, percent).
 *
 * @return {iou_bg, iou_sclera, iou_iris, iou_pupil, mean} in percent.
 */
std::array<double, 5> segmentationIou(const dataset::SegMask &pred,
                                      const dataset::SegMask &truth);

} // namespace eyetrack
} // namespace eyecod

#endif // EYECOD_EYETRACK_SEGMENTATION_H
