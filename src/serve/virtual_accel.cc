#include "serve/virtual_accel.h"

#include <algorithm>

#include "accel/analytic.h"
#include "accel/orchestrator.h"
#include "common/logging.h"

namespace eyecod {
namespace serve {

namespace {

using accel::cyclesToUs;

/** splitmix64 mix of a 64-bit state (public-domain constant set). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic schedule order: time, then chip, then kind. */
bool
eventBefore(const ChipFaultEvent &a, const ChipFaultEvent &b)
{
    if (a.at_us != b.at_us)
        return a.at_us < b.at_us;
    if (a.chip != b.chip)
        return a.chip < b.chip;
    if (a.kind != b.kind)
        return int(a.kind) < int(b.kind);
    return a.lanes < b.lanes;
}

} // namespace

Result<ServiceModel>
deriveServiceModel(const accel::PipelineWorkloadConfig &workload,
                   const accel::HwConfig &hw)
{
    const auto all = accel::buildPipelineWorkload(workload);

    // Full pipeline: amortized steady frame + the peak segmentation
    // boundary frame (Fig. 7).
    Result<accel::FrameSchedule> full =
        accel::scheduleFrameChecked(all, hw);
    if (!full.ok())
        return full.status();

    // Per-frame workloads only (reconstruction + gaze): the cost of
    // a frame inside the refresh window.
    std::vector<accel::ModelWorkload> per_frame;
    for (const auto &m : all)
        if (m.period == 1)
            per_frame.push_back(m);
    Result<accel::FrameSchedule> steady =
        accel::scheduleFrameChecked(per_frame, hw);
    if (!steady.ok())
        return steady.status();

    ServiceModel model;
    model.gaze_frame_us =
        cyclesToUs(steady.value().frame_cycles, hw);
    model.seg_frame_us =
        cyclesToUs(full.value().peak_frame_cycles, hw);
    model.amortized_frame_us =
        cyclesToUs(full.value().frame_cycles, hw);
    if (model.amortized_frame_us > 0.0)
        model.chip_fps = 1e6 / model.amortized_frame_us;
    // Partial time-multiplexing hides segmentation work in gaze
    // slack, so the peak frame can only extend the steady frame.
    model.seg_frame_us =
        std::max(model.seg_frame_us, model.gaze_frame_us);
    return model;
}

Result<double>
resolutionCostFactor(const accel::PipelineWorkloadConfig &workload,
                     const accel::HwConfig &hw)
{
    Result<ServiceModel> at_full = deriveServiceModel(workload, hw);
    if (!at_full.ok())
        return at_full.status();

    // The tier-2 downgrade halves the linear resolution of the
    // camera-facing stages; the gaze ROI crop stays fixed (the ROI
    // is produced by the predictor at its own extent).
    accel::PipelineWorkloadConfig half = workload;
    half.scene = std::max(1, workload.scene / 2);
    half.sensor = std::max(1, workload.sensor / 2);
    half.seg_input = std::max(1, workload.seg_input / 2);
    Result<ServiceModel> at_half = deriveServiceModel(half, hw);
    if (!at_half.ok())
        return at_half.status();

    if (at_full.value().amortized_frame_us <= 0.0)
        return Status::error(ErrorCode::InvalidArgument,
                             "full-resolution frame cost is zero");
    const double ratio = at_half.value().amortized_frame_us /
                         at_full.value().amortized_frame_us;
    // The billing contract requires a factor in (0, 1]; a half-res
    // pipeline can never cost more than the full one under this
    // dataflow, but clamp defensively.
    return std::clamp(ratio, 1e-6, 1.0);
}

std::vector<ChipFaultEvent>
makeChipFaultSchedule(const ChaosScheduleConfig &cfg,
                      const accel::HwConfig &hw, int chips)
{
    eyecod_assert(chips >= 1, "schedule needs >= 1 chip");
    eyecod_assert(cfg.epoch_us >= 1, "epoch_us must be >= 1");
    eyecod_assert(cfg.outage_us >= 1, "outage_us must be >= 1");
    std::vector<ChipFaultEvent> events;
    for (int c = 0; c < chips; ++c) {
        // Each chip is its own fault domain: fold the chip index into
        // the seed so per-chip schedules decorrelate, same discipline
        // as the per-(seed, frame, unit) streams inside the injector.
        accel::HwFaultConfig per_chip = cfg.hw_faults;
        per_chip.seed = mix64(cfg.hw_faults.seed ^
                              (uint64_t(c) << 17) ^ 0xc41b5ULL);
        const accel::HwFaultInjector injector(per_chip, hw);

        // Manufacturing-dead lanes surface as one BIST retirement
        // event once the detection window elapses.
        const int dead = int(injector.chip().dead_lanes.size());
        if (dead > 0 && cfg.bist_detect_us < cfg.horizon_us)
            events.push_back(ChipFaultEvent{
                cfg.bist_detect_us, c, ChipEventKind::RetireLanes,
                dead});

        // Whole-chip outages: one stall-rate draw per epoch (the
        // injector's per-frame plan, with the epoch index standing in
        // for the frame index). Epochs inside an ongoing outage are
        // skipped — a chip that is already down cannot fail again.
        long long down_until = -1;
        const long long epochs = cfg.horizon_us / cfg.epoch_us;
        for (long long e = 0; e < epochs; ++e) {
            const long long at = e * cfg.epoch_us;
            if (at < down_until)
                continue;
            if (injector.plan(long(e)).stall_cycles <= 0)
                continue;
            events.push_back(
                ChipFaultEvent{at, c, ChipEventKind::Fail, 0});
            const long long back = at + cfg.outage_us;
            if (back < cfg.horizon_us)
                events.push_back(ChipFaultEvent{
                    back, c, ChipEventKind::Rejoin, 0});
            down_until = back;
        }
    }
    std::sort(events.begin(), events.end(), eventBefore);
    return events;
}

VirtualAccelPool::VirtualAccelPool(int chips,
                                   const ServiceModel &model,
                                   double batch_amortized_fraction)
    : model_(model), batch_fraction_(batch_amortized_fraction)
{
    eyecod_assert(chips >= 1, "need >= 1 virtual chip, got %d",
                  chips);
    eyecod_assert(batch_fraction_ >= 0.0 && batch_fraction_ < 1.0,
                  "batch fraction %g outside [0, 1)",
                  batch_fraction_);
    ChipState healthy;
    healthy.model = model_;
    state_.assign(size_t(chips), healthy);
}

void
VirtualAccelPool::configureHardware(
    const accel::PipelineWorkloadConfig &workload,
    const accel::HwConfig &hw)
{
    workload_ = workload;
    hw_ = hw;
    have_hardware_ = true;
}

void
VirtualAccelPool::setFaultSchedule(std::vector<ChipFaultEvent> events)
{
    eyecod_assert(next_event_ == 0,
                  "fault schedule installed after events ran");
    for (const ChipFaultEvent &ev : events) {
        eyecod_assert(ev.chip >= 0 && ev.chip < chips(),
                      "fault event chip %d out of range", ev.chip);
        eyecod_assert(ev.at_us >= 0,
                      "fault event at negative virtual time");
    }
    schedule_ = std::move(events);
    std::sort(schedule_.begin(), schedule_.end(), eventBefore);
}

std::optional<ServiceModel>
VirtualAccelPool::degradedModel(int retired) const
{
    if (retired <= 0)
        return model_;
    eyecod_assert(have_hardware_,
                  "lane retirement on a pool without configureHardware()");
    // Re-derive the timing model on the surviving lanes: the
    // orchestrator re-partitions work exactly as the simulator's
    // retirement path does, so serve-time degradation and
    // simulator-time degradation agree.
    const Result<accel::HwConfig> hw = accel::retireLanes(hw_, retired);
    if (!hw.ok())
        return std::nullopt;
    const Result<ServiceModel> m = deriveServiceModel(workload_, hw.value());
    if (!m.ok() || m.value().amortized_frame_us <= 0.0)
        return std::nullopt;
    return m.value();
}

VirtualAccelPool::EventOutcome
VirtualAccelPool::applyEventsUpTo(long long now_us)
{
    EventOutcome out;
    while (next_event_ < schedule_.size() &&
           schedule_[next_event_].at_us <= now_us) {
        const ChipFaultEvent &ev = schedule_[next_event_++];
        ChipState &chip = state_[size_t(ev.chip)];
        switch (ev.kind) {
        case ChipEventKind::Fail:
            if (!chip.alive)
                break;
            chip.alive = false;
            // Work past the failure instant was never served: refund
            // it from the busy accounting and free the horizon so
            // utilization stays truthful.
            if (chip.busy_until_us > ev.at_us) {
                total_busy_us_ -=
                    double(chip.busy_until_us - ev.at_us);
                chip.busy_until_us = ev.at_us;
            }
            out.failed.push_back(ev.chip);
            break;
        case ChipEventKind::Rejoin:
            if (chip.alive || !chip.usable)
                break;
            chip.alive = true;
            chip.busy_until_us =
                std::max(chip.busy_until_us, ev.at_us);
            out.rejoined.push_back(ev.chip);
            break;
        case ChipEventKind::RetireLanes: {
            if (!chip.usable)
                break;
            const int retired = chip.retired_lanes + ev.lanes;
            const std::optional<ServiceModel> m = degradedModel(retired);
            chip.retired_lanes = retired;
            out.lanes_retired += ev.lanes;
            if (!m) {
                // No usable lane survives: the chip is bricked, not
                // degraded — it fails and never rejoins.
                chip.usable = false;
                if (chip.alive) {
                    chip.alive = false;
                    if (chip.busy_until_us > ev.at_us) {
                        total_busy_us_ -=
                            double(chip.busy_until_us - ev.at_us);
                        chip.busy_until_us = ev.at_us;
                    }
                    out.failed.push_back(ev.chip);
                }
                break;
            }
            chip.model = *m;
            out.lane_retired.push_back(ev.chip);
            break;
        }
        }
    }
    return out;
}

int
VirtualAccelPool::aliveChips() const
{
    int n = 0;
    for (const ChipState &chip : state_)
        if (chip.alive)
            ++n;
    return n;
}

double
VirtualAccelPool::effectiveCapacity() const
{
    double capacity = 0.0;
    for (const ChipState &chip : state_) {
        if (!chip.alive || chip.model.amortized_frame_us <= 0.0)
            continue;
        capacity +=
            model_.amortized_frame_us / chip.model.amortized_frame_us;
    }
    return capacity;
}

int
VirtualAccelPool::idleChip(long long now_us) const
{
    for (size_t c = 0; c < state_.size(); ++c)
        if (state_[c].alive && state_[c].busy_until_us <= now_us)
            return int(c);
    return -1;
}

double
VirtualAccelPool::batchServiceUs(
    const std::vector<double> &costs_us) const
{
    if (costs_us.empty())
        return 0.0;
    double sum = 0.0;
    double peak = 0.0;
    for (double c : costs_us) {
        sum += c;
        peak = std::max(peak, c);
    }
    return (1.0 - batch_fraction_) * sum + batch_fraction_ * peak;
}

long long
VirtualAccelPool::dispatch(int chip, long long now_us,
                           double service_us)
{
    eyecod_assert(chip >= 0 && chip < chips(),
                  "chip %d out of range", chip);
    ChipState &st = state_[size_t(chip)];
    eyecod_assert(st.alive, "dispatch to failed chip %d", chip);
    eyecod_assert(st.busy_until_us <= now_us,
                  "dispatch to busy chip %d", chip);
    // Ceil to whole microseconds so completion timestamps stay
    // integral (and therefore exactly comparable across runs).
    const long long span = (long long)(service_us + 0.999999);
    st.busy_until_us = now_us + span;
    total_busy_us_ += double(span);
    return st.busy_until_us;
}

bool
VirtualAccelPool::allIdle(long long now_us) const
{
    for (const ChipState &chip : state_)
        if (chip.busy_until_us > now_us)
            return false;
    return true;
}

} // namespace serve
} // namespace eyecod
