#include "serve/health.h"

#include <algorithm>

#include "common/logging.h"

namespace eyecod {
namespace serve {

const char *
degradationTierName(int tier)
{
    switch (tier) {
    case 0:
        return "healthy";
    case 1:
        return "drop_oldest";
    case 2:
        return "resolution_downgrade";
    case 3:
        return "rate_downgrade";
    case 4:
        return "admission_reject";
    }
    return "unknown";
}

FleetHealthController::FleetHealthController(
    const HealthControllerConfig &cfg)
    : cfg_(cfg)
{
    for (int i = 0; i < kNumDegradationTiers; ++i) {
        eyecod_assert(cfg_.disengage_pressure[size_t(i)] <
                          cfg_.engage_pressure[size_t(i)],
                      "tier %d hysteresis band is empty", i + 1);
        if (i > 0)
            eyecod_assert(cfg_.engage_pressure[size_t(i)] >=
                              cfg_.engage_pressure[size_t(i - 1)],
                          "tier %d engage threshold decreases",
                          i + 1);
    }
    eyecod_assert(cfg_.engage_ticks >= 1,
                  "engage_ticks must be >= 1");
    eyecod_assert(cfg_.disengage_ticks >= 1,
                  "disengage_ticks must be >= 1");
}

int
FleetHealthController::update(const FleetSignal &signal)
{
    last_pressure_ =
        std::max(signal.utilization,
                 signal.queue_occupancy * cfg_.occupancy_gain);

    // Escalate at most one tier per engage window and de-escalate at
    // most one per disengage window: the ladder walks rung by rung,
    // so a capacity cliff still produces an ordered, replayable
    // escalation sequence rather than a jump.
    if (tier_ < kNumDegradationTiers &&
        last_pressure_ >= cfg_.engage_pressure[size_t(tier_)]) {
        below_ticks_ = 0;
        if (++above_ticks_ >= cfg_.engage_ticks) {
            ++tier_;
            ++transitions_;
            above_ticks_ = 0;
        }
    } else if (tier_ > 0 &&
               last_pressure_ <
                   cfg_.disengage_pressure[size_t(tier_ - 1)]) {
        above_ticks_ = 0;
        if (++below_ticks_ >= cfg_.disengage_ticks) {
            --tier_;
            ++transitions_;
            below_ticks_ = 0;
        }
    } else {
        // Inside the hysteresis band: hold the tier, reset streaks.
        above_ticks_ = 0;
        below_ticks_ = 0;
    }

    ++residency_[size_t(tier_)];
    return tier_;
}

} // namespace serve
} // namespace eyecod
