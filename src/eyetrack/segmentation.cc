#include "eyetrack/segmentation.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "models/model_zoo.h"
#include "nn/basic_layers.h"

namespace eyecod {
namespace eyetrack {

using dataset::kBackground;
using dataset::kIris;
using dataset::kPupil;
using dataset::kSclera;
using dataset::SegMask;

ClassicalSegmenter::ClassicalSegmenter(SegmenterConfig cfg) : cfg_(cfg)
{
    eyecod_assert(cfg.pupil_max < cfg.iris_max &&
                  cfg.iris_max < cfg.sclera_min,
                  "segmenter thresholds must be ordered");
}

namespace {

/** Box-filter smoothing with the given radius. */
Image
boxSmooth(const Image &img, int radius)
{
    if (radius <= 0)
        return img;
    Image out(img.height(), img.width());
    const int span = 2 * radius + 1;
    const double inv = 1.0 / (span * span);
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            double acc = 0.0;
            for (int dy = -radius; dy <= radius; ++dy)
                for (int dx = -radius; dx <= radius; ++dx)
                    acc += img.atClamped(y + dy, x + dx);
            out.at(y, x) = float(acc * inv);
        }
    }
    return out;
}

/**
 * Flood-fill over a pixel predicate from a set of seed indices;
 * returns the visited set (including seeds).
 */
std::vector<char>
floodFrom(int h, int w, const std::vector<char> &allowed,
          const std::vector<int> &seeds)
{
    std::vector<char> visited(size_t(h) * w, 0);
    std::queue<int> q;
    for (int s : seeds) {
        if (!visited[size_t(s)] && allowed[size_t(s)]) {
            visited[size_t(s)] = 1;
            q.push(s);
        }
    }
    const int dy[] = {-1, 1, 0, 0};
    const int dx[] = {0, 0, -1, 1};
    while (!q.empty()) {
        const int idx = q.front();
        q.pop();
        const int y = idx / w;
        const int x = idx % w;
        for (int d = 0; d < 4; ++d) {
            const int ny = y + dy[d];
            const int nx = x + dx[d];
            if (ny < 0 || ny >= h || nx < 0 || nx >= w)
                continue;
            const int nidx = ny * w + nx;
            if (!visited[size_t(nidx)] && allowed[size_t(nidx)]) {
                visited[size_t(nidx)] = 1;
                q.push(nidx);
            }
        }
    }
    return visited;
}

/** Largest 4-connected component among allowed pixels. */
std::vector<char>
largestComponent(int h, int w, const std::vector<char> &allowed)
{
    std::vector<int> comp(size_t(h) * w, -1);
    int best_id = -1;
    long best_size = 0;
    int next_id = 0;
    for (int start = 0; start < h * w; ++start) {
        if (!allowed[size_t(start)] || comp[size_t(start)] >= 0)
            continue;
        // BFS labelling this component.
        long size = 0;
        std::queue<int> q;
        comp[size_t(start)] = next_id;
        q.push(start);
        const int dy[] = {-1, 1, 0, 0};
        const int dx[] = {0, 0, -1, 1};
        while (!q.empty()) {
            const int idx = q.front();
            q.pop();
            ++size;
            const int y = idx / w;
            const int x = idx % w;
            for (int d = 0; d < 4; ++d) {
                const int ny = y + dy[d];
                const int nx = x + dx[d];
                if (ny < 0 || ny >= h || nx < 0 || nx >= w)
                    continue;
                const int nidx = ny * w + nx;
                if (allowed[size_t(nidx)] && comp[size_t(nidx)] < 0) {
                    comp[size_t(nidx)] = next_id;
                    q.push(nidx);
                }
            }
        }
        if (size > best_size) {
            best_size = size;
            best_id = next_id;
        }
        ++next_id;
    }
    std::vector<char> out(size_t(h) * w, 0);
    if (best_id >= 0)
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = comp[i] == best_id ? 1 : 0;
    return out;
}

} // namespace

SegMask
ClassicalSegmenter::segment(ImageConstView eye) const
{
    const int h = eye.height();
    const int w = eye.width();
    Image img; // refresh-only working copy of the crop view
    img.resetShape(h, w);
    ImageView::of(img).copyFrom(eye);

    if (cfg_.quant_bits > 0) {
        const float levels = float((1 << cfg_.quant_bits) - 1);
        for (float &v : img.data())
            v = std::round(v * levels) / levels;
    }
    img = boxSmooth(img, cfg_.smooth_radius);

    std::vector<char> pupil_band(size_t(h) * w, 0);
    std::vector<char> dark_band(size_t(h) * w, 0);  // pupil + iris
    std::vector<char> sclera_band(size_t(h) * w, 0);
    for (int i = 0; i < h * w; ++i) {
        const float v = img.data()[size_t(i)];
        pupil_band[size_t(i)] = v <= cfg_.pupil_max;
        dark_band[size_t(i)] = v <= cfg_.iris_max;
        sclera_band[size_t(i)] = v >= cfg_.sclera_min;
    }

    // Pupil: the largest dark connected component.
    const std::vector<char> pupil = largestComponent(h, w, pupil_band);

    // Iris: dark-band pixels reachable from the pupil.
    std::vector<int> pupil_seeds;
    for (int i = 0; i < h * w; ++i)
        if (pupil[size_t(i)])
            pupil_seeds.push_back(i);
    const std::vector<char> eye_dark =
        floodFrom(h, w, dark_band, pupil_seeds);

    // Sclera: bright-band pixels near the iris region. The iris is
    // dilated a few pixels first because smoothing (and FlatCam
    // reconstruction blur) creates a thin mid-band transition ring
    // between iris and sclera that would otherwise break adjacency.
    std::vector<char> near_eye = eye_dark;
    for (int iter = 0; iter < 4; ++iter) {
        std::vector<char> grown = near_eye;
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                if (near_eye[size_t(y) * w + x])
                    continue;
                const bool touch =
                    (y > 0 && near_eye[size_t(y - 1) * w + x]) ||
                    (y + 1 < h && near_eye[size_t(y + 1) * w + x]) ||
                    (x > 0 && near_eye[size_t(y) * w + x - 1]) ||
                    (x + 1 < w && near_eye[size_t(y) * w + x + 1]);
                if (touch)
                    grown[size_t(y) * w + x] = 1;
            }
        }
        near_eye = std::move(grown);
    }
    std::vector<int> sclera_seeds;
    for (int i = 0; i < h * w; ++i)
        if (near_eye[size_t(i)] && sclera_band[size_t(i)])
            sclera_seeds.push_back(i);
    const std::vector<char> sclera =
        floodFrom(h, w, sclera_band, sclera_seeds);

    SegMask mask;
    mask.height = h;
    mask.width = w;
    mask.labels.assign(size_t(h) * w, kBackground);
    for (int i = 0; i < h * w; ++i) {
        if (pupil[size_t(i)])
            mask.labels[size_t(i)] = kPupil;
        else if (eye_dark[size_t(i)])
            mask.labels[size_t(i)] = kIris;
        else if (sclera[size_t(i)])
            mask.labels[size_t(i)] = kSclera;
    }

    // Fill enclosed unlabeled pixels — specular glints and the thin
    // transition rings the smoothing leaves between intensity bands.
    // Background pixels unreachable from the image border are holes;
    // they take the majority class of their labelled neighbours.
    {
        std::vector<char> bg(size_t(h) * w, 0);
        for (size_t i = 0; i < bg.size(); ++i)
            bg[i] = mask.labels[i] == kBackground;
        std::vector<int> border_seeds;
        for (int x = 0; x < w; ++x) {
            border_seeds.push_back(x);
            border_seeds.push_back((h - 1) * w + x);
        }
        for (int y = 0; y < h; ++y) {
            border_seeds.push_back(y * w);
            border_seeds.push_back(y * w + w - 1);
        }
        const std::vector<char> outside =
            floodFrom(h, w, bg, border_seeds);
        for (int iter = 0; iter < 8; ++iter) {
            bool changed = false;
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x) {
                    const int i = y * w + x;
                    if (mask.labels[size_t(i)] != kBackground ||
                        outside[size_t(i)])
                        continue;
                    int votes[4] = {0, 0, 0, 0};
                    if (y > 0)
                        ++votes[mask.at(y - 1, x)];
                    if (y + 1 < h)
                        ++votes[mask.at(y + 1, x)];
                    if (x > 0)
                        ++votes[mask.at(y, x - 1)];
                    if (x + 1 < w)
                        ++votes[mask.at(y, x + 1)];
                    int best = kBackground, best_v = 0;
                    for (int c = 1; c < 4; ++c) {
                        if (votes[c] > best_v) {
                            best_v = votes[c];
                            best = c;
                        }
                    }
                    if (best != kBackground) {
                        mask.labels[size_t(i)] = uint8_t(best);
                        changed = true;
                    }
                }
            }
            if (!changed)
                break;
        }
    }

    // Emulated residual model error: flip labels of pixels adjacent
    // to a class boundary with the configured probability.
    if (cfg_.boundary_noise > 0.0) {
        uint64_t hash = 0x9e37;
        for (int i = 0; i < h * w; i += 97)
            hash = hash * 31 +
                   uint64_t(img.data()[size_t(i)] * 255.0f);
        Rng rng(hash);
        SegMask noisy = mask;
        for (int y = 1; y + 1 < h; ++y) {
            for (int x = 1; x + 1 < w; ++x) {
                const uint8_t c = mask.at(y, x);
                const bool boundary =
                    mask.at(y - 1, x) != c || mask.at(y + 1, x) != c ||
                    mask.at(y, x - 1) != c || mask.at(y, x + 1) != c;
                if (boundary && rng.bernoulli(cfg_.boundary_noise)) {
                    // Flip to a random 4-neighbour's class.
                    const uint8_t nb[4] = {
                        mask.at(y - 1, x), mask.at(y + 1, x),
                        mask.at(y, x - 1), mask.at(y, x + 1)};
                    noisy.at(y, x) = nb[rng.uniformInt(0, 3)];
                }
            }
        }
        mask = std::move(noisy);
    }
    return mask;
}

NeuralSegmenter::NeuralSegmenter(NeuralSegmenterConfig cfg)
    : cfg_(cfg),
      graph_(models::buildRitNet(cfg.height, cfg.width,
                                 cfg.quant_bits)),
      plan_(graph_),
      backend_(nn::makeBackend(cfg.backend, cfg.threads))
{
}

SegMask
NeuralSegmenter::segment(ImageConstView eye)
{
    // Same-size inputs reduce to a copy inside resizeBilinearInto, so
    // one path serves every input extent.
    resizeBilinearInto(eye, cfg_.height, cfg_.width, &sized_);
    input_.reset(nn::Shape{1, cfg_.height, cfg_.width});
    std::copy(sized_.data().begin(), sized_.data().end(),
              input_.data().begin());
    input_ptrs_.assign(1, &input_);

    SegMask mask;
    mask.height = cfg_.height;
    mask.width = cfg_.width;
    // Finite-checked execution: a NaN-poisoned input or activation
    // surfaces as a typed error; degrade to an all-background mask
    // (the ROI gate downstream treats it as a failed segmentation).
    Status status =
        backend_->runCheckedInto(plan_, input_ptrs_, &logits_);
    if (!status.isOk()) {
        warnLimited("neural-seg-fault", "segmentation degraded: %s",
                    status.toString().c_str());
        mask.labels.assign(size_t(cfg_.height) * size_t(cfg_.width),
                           uint8_t(dataset::kBackground));
        return mask;
    }
    const std::vector<int> classes = nn::channelArgmax(logits_);
    mask.labels.resize(classes.size());
    for (size_t i = 0; i < classes.size(); ++i)
        mask.labels[i] = uint8_t(classes[i]);
    return mask;
}

std::array<double, 5>
segmentationIou(const SegMask &pred, const SegMask &truth)
{
    eyecod_assert(pred.height == truth.height &&
                  pred.width == truth.width,
                  "IOU mask shape mismatch");
    std::array<long, 4> inter{}, uni{};
    for (size_t i = 0; i < pred.labels.size(); ++i) {
        const uint8_t p = pred.labels[i];
        const uint8_t t = truth.labels[i];
        if (p == t)
            ++inter[p];
        ++uni[p];
        if (p != t)
            ++uni[t];
    }
    std::array<double, 5> out{};
    double mean = 0.0;
    for (int c = 0; c < 4; ++c) {
        const double iou =
            uni[size_t(c)] > 0
                ? 100.0 * double(inter[size_t(c)]) /
                      double(uni[size_t(c)])
                : 100.0;
        out[size_t(c)] = iou;
        mean += iou;
    }
    out[4] = mean / 4.0;
    return out;
}

} // namespace eyetrack
} // namespace eyecod
