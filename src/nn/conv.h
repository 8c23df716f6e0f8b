/**
 * @file
 * Convolution layers: generic KxK, point-wise 1x1, and depth-wise,
 * the three MAC-dominant layer types of the paper's Sec. 5.1.
 *
 * Batch-norm parameters are folded into the convolution weights
 * (standard inference-time folding) and ReLU may be fused; both
 * choices match what the deployment engine executes.
 *
 * Weights are drawn from each layer's seed on first use, so a graph
 * built only for its shapes, MACs, parameter counts or accelerator
 * workload records never holds them.
 */

#ifndef EYECOD_NN_CONV_H
#define EYECOD_NN_CONV_H

#include <mutex>

#include "nn/layer.h"
#include "nn/quantize.h"

namespace eyecod {
namespace nn {

/**
 * A He-initialized weight tensor, optionally fake-quantized, drawn
 * from its seed on the first values() call. Concurrent first calls
 * draw it once; size() never draws it.
 */
class LazyWeights
{
  public:
    LazyWeights(size_t count, double fan_in, uint64_t seed,
                int quant_bits)
        : count_(count), fan_in_(fan_in), seed_(seed),
          quant_bits_(quant_bits)
    {
    }

    /** Element count. */
    size_t size() const { return count_; }

    /** The weights, drawn on the first call. */
    const std::vector<float> &
    values() const
    {
        draw();
        return values_;
    }
    /** The weights, drawn on the first call (mutable). */
    std::vector<float> &
    values()
    {
        draw();
        return values_;
    }

  private:
    void draw() const;

    size_t count_;
    double fan_in_;
    uint64_t seed_;
    int quant_bits_;
    mutable std::once_flag drawn_;
    mutable std::vector<float> values_;
};

/** Construction parameters of a convolution layer. */
struct ConvSpec
{
    Shape in;            ///< Input tensor shape.
    int out_channels = 1;
    int kernel = 3;      ///< Square kernel size.
    int stride = 1;
    bool depthwise = false; ///< groups == channels when true.
    bool relu = true;    ///< Fused ReLU.
    int quant_bits = 0;  ///< 0 = float; 8 = int8 fake-quantization.
    uint64_t seed = 1;   ///< Weight init seed.
};

/**
 * A 2-D convolution over a CHW tensor with 'same' padding
 * (floor(kernel / 2)) and He-initialized weights.
 */
class Conv2d : public Layer
{
  public:
    Conv2d(std::string name, const ConvSpec &spec);

    using Layer::forward;
    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 const ExecContext &ctx) const override;
    Shape outputShape() const override;
    LayerKind kind() const override;
    long long macs() const override;
    long long paramCount() const override;
    LayerWorkload workload() const override;

    /** Direct weight access: [c_out][c_in_per_group][ky][kx]. */
    std::vector<float> &weights() { return weights_.values(); }
    /** Direct weight access (const). */
    const std::vector<float> &weights() const
    {
        return weights_.values();
    }
    /** Per-output-channel bias. */
    std::vector<float> &bias() { return bias_; }
    /** Per-output-channel bias (const). */
    const std::vector<float> &bias() const { return bias_; }

    /** The construction spec. */
    const ConvSpec &spec() const { return spec_; }

  private:
    ConvSpec spec_;
    int group_channels_; ///< Input channels per group.
    LazyWeights weights_;
    std::vector<float> bias_;
};

/**
 * A fully-connected layer over a flattened tensor.
 */
class FullyConnected : public Layer
{
  public:
    /**
     * @param in input shape (flattened to c*h*w features).
     * @param out_features output width.
     */
    FullyConnected(std::string name, Shape in, int out_features,
                   bool relu = false, int quant_bits = 0,
                   uint64_t seed = 1);

    using Layer::forward;
    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 const ExecContext &ctx) const override;
    Shape outputShape() const override;
    LayerKind kind() const override { return LayerKind::FullyConnected; }
    long long macs() const override;
    long long paramCount() const override;
    LayerWorkload workload() const override;

    /** Direct weight access: [out][in]. */
    std::vector<float> &weights() { return weights_.values(); }
    /** Direct weight access (const). */
    const std::vector<float> &weights() const
    {
        return weights_.values();
    }

  private:
    Shape in_;
    int in_features_;
    int out_features_;
    bool relu_;
    int quant_bits_;
    LazyWeights weights_; ///< [out][in].
    std::vector<float> bias_;
};

/**
 * Matrix-matrix multiplication with a learned right operand, treated
 * by the paper as point-wise convolution with batch > 1: the input is
 * (rows x 1 x k) and the layer computes (rows x 1 x cols).
 *
 * This is the layer type the FlatCam image reconstruction lowers to.
 */
class MatMul : public Layer
{
  public:
    MatMul(std::string name, int rows, int k, int cols,
           uint64_t seed = 1);

    using Layer::forward;
    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 const ExecContext &ctx) const override;
    Shape outputShape() const override;
    LayerKind kind() const override { return LayerKind::MatMul; }
    long long macs() const override;
    long long paramCount() const override;
    LayerWorkload workload() const override;

    /** Direct weight access: [k][cols]. */
    std::vector<float> &weights() { return weights_.values(); }
    /** Direct weight access (const). */
    const std::vector<float> &weights() const
    {
        return weights_.values();
    }

  private:
    int rows_, k_, cols_;
    LazyWeights weights_; ///< [k][cols].
};

} // namespace nn
} // namespace eyecod

#endif // EYECOD_NN_CONV_H
