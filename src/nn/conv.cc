#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace eyecod {
namespace nn {

namespace {

/** He-initialize a weight buffer and optionally fake-quantize it. */
void
initWeights(std::vector<float> &w, double fan_in, uint64_t seed,
            int quant_bits)
{
    Rng rng(seed);
    const double stddev = std::sqrt(2.0 / std::max(1.0, fan_in));
    for (float &v : w)
        v = float(rng.gaussian(0.0, stddev));
    if (quant_bits > 0) {
        const QuantParams qp = chooseQuantParams(w, quant_bits);
        fakeQuantize(w, qp);
    }
}

/**
 * Per-thread accumulator scratch for the conv kernels, grown to at
 * least @p count doubles and reused across calls. Hoisting it out of
 * the parallelFor chunk lambdas keeps the steady-state inference
 * path free of heap allocations (each worker thread reuses its own
 * buffer; contents are overwritten before every use).
 */
std::vector<double> &
accScratch(size_t count)
{
    thread_local std::vector<double> acc;
    if (acc.size() < count)
        acc.resize(count);
    return acc;
}

} // namespace

void
LazyWeights::draw() const
{
    std::call_once(drawn_, [this] {
        values_.resize(count_);
        initWeights(values_, fan_in_, seed_, quant_bits_);
    });
}

Conv2d::Conv2d(std::string name, const ConvSpec &spec)
    : Layer(std::move(name)), spec_(spec),
      group_channels_(spec_.depthwise ? 1 : spec_.in.c),
      weights_(size_t(spec_.out_channels) * size_t(group_channels_) *
                   size_t(spec_.kernel) * size_t(spec_.kernel),
               double(group_channels_) * spec_.kernel * spec_.kernel,
               spec_.seed, spec_.quant_bits)
{
    eyecod_assert(spec_.in.c > 0 && spec_.out_channels > 0 &&
                  spec_.kernel > 0 && spec_.stride > 0,
                  "invalid conv spec for %s", this->name().c_str());
    if (spec_.depthwise) {
        eyecod_assert(spec_.out_channels == spec_.in.c,
                      "depthwise conv %s must keep channel count "
                      "(%d != %d)", this->name().c_str(),
                      spec_.out_channels, spec_.in.c);
    }
    bias_.resize(size_t(spec_.out_channels), 0.0f);
}

Shape
Conv2d::outputShape() const
{
    // 'Same' padding: out = ceil(in / stride).
    return Shape{spec_.out_channels,
                 (spec_.in.h + spec_.stride - 1) / spec_.stride,
                 (spec_.in.w + spec_.stride - 1) / spec_.stride};
}

LayerKind
Conv2d::kind() const
{
    if (spec_.depthwise)
        return LayerKind::ConvDepthwise;
    if (spec_.kernel == 1)
        return LayerKind::ConvPointwise;
    return LayerKind::ConvGeneric;
}

long long
Conv2d::macs() const
{
    const Shape out = outputShape();
    return (long long)out.c * out.h * out.w * group_channels_ *
           spec_.kernel * spec_.kernel;
}

long long
Conv2d::paramCount() const
{
    return (long long)weights_.size() + (long long)bias_.size();
}

LayerWorkload
Conv2d::workload() const
{
    LayerWorkload w = Layer::workload();
    w.c_in = spec_.in.c;
    w.kernel = spec_.kernel;
    w.stride = spec_.stride;
    w.h_in = spec_.in.h;
    w.w_in = spec_.in.w;
    return w;
}

void
Conv2d::forward(const std::vector<const Tensor *> &in, Tensor &out,
                const ExecContext &ctx) const
{
    eyecod_assert(in.size() == 1, "conv %s expects one input",
                  name().c_str());
    const Tensor &x = *in[0];
    eyecod_assert(x.shape() == spec_.in,
                  "conv %s input shape mismatch", name().c_str());
    const Shape out_shape = outputShape();
    eyecod_assert(out.shape() == out_shape,
                  "conv %s output shape mismatch", name().c_str());

    const Tensor *src = &x;
    Tensor quantized;
    if (spec_.quant_bits > 0) {
        quantized = x;
        fakeQuantizeTensor(quantized, spec_.quant_bits);
        src = &quantized;
    }
    const float *in_data = src->data().data();
    float *out_data = out.data().data();
    const std::vector<float> &weights = weights_.values();

    const int k = spec_.kernel;
    const int s = spec_.stride;
    const int pad = k / 2;
    const int kk = k * k;
    const int in_h = spec_.in.h;
    const int in_w = spec_.in.w;
    const size_t in_plane = size_t(in_h) * in_w;
    const size_t out_plane = size_t(out_shape.h) * out_shape.w;
    const int ic_count = group_channels_;
    const bool relu = spec_.relu;

    if (k == 1 && !spec_.depthwise) {
        // Point-wise: an ic-major SAXPY into a per-channel double
        // accumulator plane. The per-element accumulation order
        // (bias, then ascending ic) matches the generic nest, so the
        // result is bitwise identical to it.
        ctx.parallelFor(out_shape.c, 1, [&](long oc_begin,
                                            long oc_end) {
            std::vector<double> &acc = accScratch(out_plane);
            for (long oc = oc_begin; oc < oc_end; ++oc) {
                std::fill(acc.data(), acc.data() + out_plane,
                          double(bias_[size_t(oc)]));
                const float *wrow = &weights[size_t(oc) * ic_count];
                for (int ic = 0; ic < ic_count; ++ic) {
                    const double w = wrow[ic];
                    const float *iplane = in_data + size_t(ic) *
                                          in_plane;
                    if (s == 1) {
                        for (size_t p = 0; p < out_plane; ++p)
                            acc[p] += w * iplane[p];
                    } else {
                        for (int oy = 0; oy < out_shape.h; ++oy) {
                            const float *irow =
                                iplane + size_t(oy) * s * in_w;
                            double *arow =
                                acc.data() + size_t(oy) * out_shape.w;
                            for (int ox = 0; ox < out_shape.w; ++ox)
                                arow[ox] += w * irow[ox * s];
                        }
                    }
                }
                float *oplane = out_data + size_t(oc) * out_plane;
                for (size_t p = 0; p < out_plane; ++p) {
                    double v = acc[p];
                    if (relu && v < 0.0)
                        v = 0.0;
                    oplane[p] = float(v);
                }
            }
        });
        return;
    }

    // Generic / depth-wise KxK: parallel over (oc, oy) output rows.
    // Each row keeps a double accumulator over ox; every (g, ky, kx)
    // tap is applied to its valid ox range as one SAXPY over a
    // contiguous input row (for stride 1), which vectorizes. Per
    // output element the taps still arrive in ascending (g, ky, kx)
    // order over in-bounds positions, so the result is bitwise
    // identical to the original bounds-checked scalar nest.
    const long rows = long(out_shape.c) * out_shape.h;
    const long grain =
        std::max(1L, rows / (long(ctx.concurrency()) * 8));
    ctx.parallelFor(rows, grain, [&](long begin, long end) {
        std::vector<double> &acc = accScratch(size_t(out_shape.w));
        for (long r = begin; r < end; ++r) {
            const int oc = int(r / out_shape.h);
            const int oy = int(r % out_shape.h);
            const int ic_begin = spec_.depthwise ? oc : 0;
            const float *wbase = &weights[size_t(oc) * ic_count * kk];
            float *orow = out_data + size_t(oc) * out_plane +
                          size_t(oy) * out_shape.w;
            const int ky_lo = std::max(0, pad - oy * s);
            const int ky_hi = std::min(k, in_h + pad - oy * s);
            std::fill(acc.data(), acc.data() + out_shape.w,
                      double(bias_[size_t(oc)]));
            for (int g = 0; g < ic_count; ++g) {
                const float *iplane =
                    in_data + size_t(ic_begin + g) * in_plane;
                const float *wk = wbase + size_t(g) * kk;
                for (int ky = ky_lo; ky < ky_hi; ++ky) {
                    const int iy = oy * s + ky - pad;
                    const float *irow = iplane + size_t(iy) * in_w;
                    const float *wrow = wk + ky * k;
                    for (int kx = 0; kx < k; ++kx) {
                        const double w = wrow[kx];
                        const int shift = kx - pad;
                        // ox range with ox*s + shift inside [0,in_w).
                        const int ox_lo = shift < 0
                            ? (-shift + s - 1) / s : 0;
                        const int ox_hi = std::min(
                            out_shape.w, (in_w - 1 - shift) / s + 1);
                        if (ox_hi <= ox_lo)
                            continue;
                        if (s == 1) {
                            const float *ir = irow + shift + ox_lo;
                            double *ar = acc.data() + ox_lo;
                            const int span = ox_hi - ox_lo;
                            for (int t = 0; t < span; ++t)
                                ar[t] += w * ir[t];
                        } else {
                            for (int ox = ox_lo; ox < ox_hi; ++ox)
                                acc[size_t(ox)] +=
                                    w * irow[ox * s + shift];
                        }
                    }
                }
            }
            for (int ox = 0; ox < out_shape.w; ++ox) {
                double v = acc[size_t(ox)];
                if (relu && v < 0.0)
                    v = 0.0;
                orow[ox] = float(v);
            }
        }
    });
}

FullyConnected::FullyConnected(std::string name, Shape in,
                               int out_features, bool relu,
                               int quant_bits, uint64_t seed)
    : Layer(std::move(name)), in_(in),
      in_features_(int(in.size())), out_features_(out_features),
      relu_(relu), quant_bits_(quant_bits),
      weights_(size_t(out_features_) * size_t(in_features_),
               double(in_features_), seed, quant_bits_)
{
    eyecod_assert(out_features > 0, "fc %s needs positive width",
                  this->name().c_str());
    bias_.resize(size_t(out_features_), 0.0f);
}

Shape
FullyConnected::outputShape() const
{
    return Shape{1, 1, out_features_};
}

long long
FullyConnected::macs() const
{
    return (long long)in_features_ * out_features_;
}

long long
FullyConnected::paramCount() const
{
    return (long long)weights_.size() + (long long)bias_.size();
}

LayerWorkload
FullyConnected::workload() const
{
    LayerWorkload w = Layer::workload();
    w.c_in = in_features_;
    w.h_in = 1;
    w.w_in = 1;
    w.kernel = 1;
    return w;
}

void
FullyConnected::forward(const std::vector<const Tensor *> &in,
                        Tensor &out, const ExecContext &ctx) const
{
    eyecod_assert(in.size() == 1, "fc %s expects one input",
                  name().c_str());
    const Tensor &x = *in[0];
    eyecod_assert(int(x.size()) == in_features_,
                  "fc %s input size %zu != %d", name().c_str(),
                  x.size(), in_features_);
    eyecod_assert(out.shape() == outputShape(),
                  "fc %s output shape mismatch", name().c_str());

    const float *input_data = x.data().data();
    std::vector<float> quantized;
    if (quant_bits_ > 0) {
        quantized = x.data();
        const QuantParams qp =
            chooseQuantParams(quantized, quant_bits_);
        fakeQuantize(quantized, qp);
        input_data = quantized.data();
    }
    const std::vector<float> &weights = weights_.values();

    const long grain =
        std::max(1L, long(out_features_) /
                         (long(ctx.concurrency()) * 4));
    ctx.parallelFor(out_features_, grain, [&](long begin, long end) {
        for (long o = begin; o < end; ++o) {
            double acc = bias_[size_t(o)];
            const float *wrow = &weights[size_t(o) * in_features_];
            for (int i = 0; i < in_features_; ++i)
                acc += wrow[i] * input_data[size_t(i)];
            if (relu_ && acc < 0.0)
                acc = 0.0;
            out.at(0, 0, int(o)) = float(acc);
        }
    });
}

MatMul::MatMul(std::string name, int rows, int k, int cols,
               uint64_t seed)
    : Layer(std::move(name)), rows_(rows), k_(k), cols_(cols),
      weights_(size_t(k_) * size_t(cols_), double(k_), seed, 0)
{
    eyecod_assert(rows > 0 && k > 0 && cols > 0,
                  "matmul %s needs positive dims", this->name().c_str());
}

Shape
MatMul::outputShape() const
{
    return Shape{rows_, 1, cols_};
}

long long
MatMul::macs() const
{
    return (long long)rows_ * k_ * cols_;
}

long long
MatMul::paramCount() const
{
    return (long long)weights_.size();
}

LayerWorkload
MatMul::workload() const
{
    LayerWorkload w = Layer::workload();
    w.c_in = k_;
    w.h_in = rows_;
    w.w_in = 1;
    w.kernel = 1;
    return w;
}

void
MatMul::forward(const std::vector<const Tensor *> &in, Tensor &out,
                const ExecContext &ctx) const
{
    eyecod_assert(in.size() == 1, "matmul %s expects one input",
                  name().c_str());
    const Tensor &x = *in[0];
    eyecod_assert(x.shape().c == rows_ && x.shape().w == k_ &&
                  x.shape().h == 1,
                  "matmul %s input shape mismatch", name().c_str());
    eyecod_assert(out.shape() == outputShape(),
                  "matmul %s output shape mismatch", name().c_str());

    const std::vector<float> &weights = weights_.values();
    // Row blocks: each output row is one independent dot-product fan.
    const long grain =
        std::max(1L, long(rows_) / (long(ctx.concurrency()) * 4));
    ctx.parallelFor(rows_, grain, [&](long begin, long end) {
        for (long r = begin; r < end; ++r) {
            for (int c = 0; c < cols_; ++c) {
                double acc = 0.0;
                for (int i = 0; i < k_; ++i)
                    acc += x.at(int(r), 0, i) *
                           weights[size_t(i) * cols_ + c];
                out.at(int(r), 0, c) = float(acc);
            }
        }
    });
}

} // namespace nn
} // namespace eyecod
