#include "flatcam/optics.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace eyecod {
namespace flatcam {

namespace {

/** A plain `eps <= 0` test lets NaN through. */
void
requireValidEpsilon(double eps)
{
    if (!(std::isfinite(eps) && eps > 0.0))
        fatal("Tikhonov epsilon must be finite and positive, got %g",
              eps);
}

/** Weak references to the live optics, one per (config, epsilon). */
class OpticsTable
{
  public:
    std::shared_ptr<const Optics>
    intern(const MaskConfig &cfg, double epsilon)
    {
        // Held across the build, so racing first calls for one key
        // decompose once.
        MutexLock lock(mutex_);
        for (const Entry &e : entries_) {
            if (e.cfg == cfg && e.epsilon == epsilon) {
                if (std::shared_ptr<const Optics> live = e.optics.lock())
                    return live;
            }
        }
        std::erase_if(entries_,
                      [](const Entry &e) { return e.optics.expired(); });
        auto built = std::make_shared<const Optics>(cfg, epsilon);
        entries_.push_back(Entry{cfg, epsilon, built});
        return built;
    }

  private:
    struct Entry
    {
        MaskConfig cfg;
        double epsilon;
        std::weak_ptr<const Optics> optics;
    };

    Mutex mutex_;
    std::vector<Entry> entries_ EYECOD_GUARDED_BY(mutex_);
};

} // namespace

SensorOptics::SensorOptics(SeparableMask m)
    : mask(std::move(m))
{
}

ReconOptics::ReconOptics(const SeparableMask &mask, double eps)
    : epsilon(eps)
{
    requireValidEpsilon(eps);
    Svd left = computeSvd(mask.phiL);
    Svd right = computeSvd(mask.phiR);
    ul_t = left.u.transposed();
    ur = std::move(right.u);
    vl = std::move(left.v);
    vr_t = right.v.transposed();
    filter = Matrix(left.s.size(), right.s.size());
    for (size_t i = 0; i < filter.rows(); ++i) {
        for (size_t j = 0; j < filter.cols(); ++j) {
            const double sl = left.s[i];
            const double sr = right.s[j];
            filter(i, j) = sl * sr / (sl * sl * sr * sr + epsilon);
        }
    }
}

Optics::Optics(const MaskConfig &cfg, double epsilon)
    : sensor(makeSeparableMask(cfg)), recon(sensor.mask, epsilon)
{
}

std::shared_ptr<const Optics>
sharedOptics(const MaskConfig &cfg, double epsilon)
{
    // Checked before the lookup: a NaN key never compares equal.
    requireValidEpsilon(epsilon);
    static OpticsTable table;
    return table.intern(cfg, epsilon);
}

} // namespace flatcam
} // namespace eyecod
