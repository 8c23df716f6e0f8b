#include "dataset/synthetic_eye.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eyecod {
namespace dataset {

namespace {

/** Mix an index into a seed (splitmix64 finalizer). */
uint64_t
mixSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Standard normals of one Rng, in its stream order, drawn a block at
 * a time through Rng::fillGaussian. It reads ahead up to one block,
 * so the Rng must not be drawn from otherwise while the stream lives.
 */
class NormalStream
{
  public:
    explicit NormalStream(Rng &rng) : rng_(rng) {}

    double
    next()
    {
        if (pos_ == kBlock) {
            rng_.fillGaussian(block_, kBlock);
            pos_ = 0;
        }
        return block_[pos_++];
    }

  private:
    static constexpr size_t kBlock = 256;
    Rng &rng_;
    double block_[kBlock];
    size_t pos_ = kBlock;
};

} // namespace

SegMask
SegMask::resized(int new_height, int new_width) const
{
    SegMask out;
    out.height = new_height;
    out.width = new_width;
    out.labels.resize(size_t(new_height) * new_width);
    for (int y = 0; y < new_height; ++y) {
        const int sy = std::min(height - 1, y * height / new_height);
        for (int x = 0; x < new_width; ++x) {
            const int sx = std::min(width - 1, x * width / new_width);
            out.at(y, x) = at(sy, sx);
        }
    }
    return out;
}

SyntheticEyeRenderer::SyntheticEyeRenderer(RenderConfig cfg,
                                           uint64_t seed)
    : cfg_(cfg), seed_(seed)
{
    eyecod_assert(cfg_.image_size >= 32,
                  "renderer needs image_size >= 32, got %d",
                  cfg_.image_size);
}

EyeParams
SyntheticEyeRenderer::sampleParams(uint64_t index) const
{
    Rng rng(mixSeed(seed_, index));
    const double n = cfg_.image_size;
    EyeParams p;
    p.yaw_deg = rng.uniform(-cfg_.max_yaw_deg, cfg_.max_yaw_deg);
    p.pitch_deg =
        rng.uniform(-cfg_.max_pitch_deg, cfg_.max_pitch_deg);
    p.eye_cy = n / 2.0 +
               rng.uniform(-1.0, 1.0) * cfg_.centre_jitter * n;
    p.eye_cx = n / 2.0 +
               rng.uniform(-1.0, 1.0) * cfg_.centre_jitter * n;
    p.eye_radius = n * (0.20 + 0.03 * rng.uniform());
    p.pupil_scale = 0.8 + 0.4 * rng.uniform();
    p.eyelid_open = 0.72 + 0.28 * rng.uniform();
    return p;
}

EyeSample
SyntheticEyeRenderer::sample(uint64_t index) const
{
    return render(sampleParams(index), mixSeed(seed_ ^ 0xabcd, index));
}

EyeSample
SyntheticEyeRenderer::render(const EyeParams &p,
                             uint64_t noise_seed) const
{
    EyeSample s;
    renderInto(p, noise_seed, &s);
    return s;
}

void
SyntheticEyeRenderer::renderInto(const EyeParams &p,
                                 uint64_t noise_seed,
                                 EyeSample *out) const
{
    const int n = cfg_.image_size;
    Rng rng(noise_seed);

    EyeSample &s = *out;
    s.params = p;
    s.gaze = anglesToVector(p.yaw_deg, p.pitch_deg);
    // Capacity-reusing (re)initialization: same values the
    // Image(n, n, skin_level) constructor would produce.
    s.image.resetShape(n, n);
    std::fill(s.image.data().begin(), s.image.data().end(),
              float(cfg_.skin_level));
    s.mask.height = n;
    s.mask.width = n;
    s.mask.labels.assign(size_t(n) * n, kBackground);

    // Low-frequency skin texture: a few random sinusoidal ripples.
    const int waves = 4;
    double wy[waves], wx[waves], ph[waves], amp[waves];
    for (int i = 0; i < waves; ++i) {
        wy[i] = rng.uniform(0.5, 3.0) * 2.0 * M_PI / n;
        wx[i] = rng.uniform(0.5, 3.0) * 2.0 * M_PI / n;
        ph[i] = rng.uniform(0.0, 2.0 * M_PI);
        amp[i] = rng.uniform(0.01, 0.035);
    }

    // Geometry. Image y grows downward, so positive pitch (up) moves
    // the iris centre up, i.e. toward smaller y.
    const double r = p.eye_radius;
    const double gx = s.gaze[0];
    const double gy = s.gaze[1];
    // Eye opening (sclera aperture), clipped by the eyelids.
    const double ap_rx = 1.60 * r;
    const double ap_ry = 0.95 * r * p.eyelid_open;
    // Iris centre displaced across the eyeball by the gaze.
    const double iris_cy = p.eye_cy - gy * r * 0.90;
    const double iris_cx = p.eye_cx + gx * r * 0.90;
    const double ri = 0.82 * r;
    const double iris_rx = ri * std::sqrt(1.0 - 0.75 * gx * gx);
    const double iris_ry = ri * std::sqrt(1.0 - 0.75 * gy * gy);
    const double rp = 0.38 * ri * p.pupil_scale;
    const double pup_rx = rp * std::sqrt(1.0 - 0.75 * gx * gx);
    const double pup_ry = rp * std::sqrt(1.0 - 0.75 * gy * gy);
    s.pupil_cy = iris_cy;
    s.pupil_cx = iris_cx;

    auto inside = [](double y, double x, double cy, double cx,
                     double ry, double rx) {
        const double dy = (y - cy) / ry;
        const double dx = (x - cx) / rx;
        return dy * dy + dx * dx <= 1.0;
    };
    auto in_aperture = [&](int y, int x) {
        return inside(y, x, p.eye_cy, p.eye_cx, ap_ry, ap_rx);
    };

    // Every noise term is the next standard normal z of one stream,
    // scaled where it is used: z * sd has the bits of the
    // gaussian(0.0, sd) draw it replaces. The draw order is one
    // texture draw per pixel, then the sclera, iris and pupil draws
    // of each aperture pixel, then one capture draw per pixel.
    NormalStream z(rng);

    // Texture noise is drawn for every pixel, but the aperture loop
    // below overwrites aperture pixels, so their ripples are skipped.
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            const double noise = z.next();
            if (in_aperture(y, x))
                continue;
            double v = s.image.at(y, x);
            for (int i = 0; i < waves; ++i)
                v += amp[i] * std::sin(wy[i] * y + wx[i] * x + ph[i]);
            v += noise * cfg_.texture_noise;
            s.image.at(y, x) = float(v);
        }
    }

    const double sclera_sd = cfg_.texture_noise * 1.5;
    const double pupil_sd = cfg_.texture_noise * 0.5;
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            if (!in_aperture(y, x))
                continue; // skin / eyelid
            const double sclera_noise = z.next();
            double v;
            uint8_t cls;
            if (!inside(y, x, iris_cy, iris_cx, iris_ry, iris_rx)) {
                v = cfg_.sclera_level + sclera_noise * sclera_sd;
                cls = kSclera;
            } else {
                const double iris_noise = z.next();
                if (!inside(y, x, iris_cy, iris_cx, pup_ry, pup_rx)) {
                    const double ang =
                        std::atan2(y - iris_cy, x - iris_cx);
                    v = cfg_.iris_level + 0.05 * std::sin(8.0 * ang) +
                        iris_noise * cfg_.texture_noise;
                    cls = kIris;
                } else {
                    v = cfg_.pupil_level + z.next() * pupil_sd;
                    cls = kPupil;
                }
            }
            s.image.at(y, x) = float(v);
            s.mask.at(y, x) = cls;
        }
    }

    // Specular glint from the (fixed) NIR illuminator: a small bright
    // spot at the lower-left pupil boundary. Class labels unchanged.
    if (cfg_.draw_glint) {
        const double g_cy = iris_cy + 0.45 * rp;
        const double g_cx = iris_cx - 0.45 * rp;
        const double g_r = std::max(1.0, 0.30 * rp);
        for (int y = std::max(0, int(g_cy - g_r));
             y <= std::min(n - 1, int(g_cy + g_r)); ++y) {
            for (int x = std::max(0, int(g_cx - g_r));
                 x <= std::min(n - 1, int(g_cx + g_r)); ++x) {
                if (inside(y, x, g_cy, g_cx, g_r, g_r))
                    s.image.at(y, x) = 0.95f;
            }
        }
    }

    // Capture noise.
    if (cfg_.sensor_noise > 0.0) {
        for (float &v : s.image.data())
            v += float(z.next() * cfg_.sensor_noise);
    }
    s.image.clamp();
}

} // namespace dataset
} // namespace eyecod
