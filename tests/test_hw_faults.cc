/**
 * @file
 * Tests of the hardware fault model: deterministic schedules, SECDED
 * classification, lane retirement, watchdogs, the faulted simulation
 * path, and the zero-rate bitwise-identity guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "accel/executor.h"
#include "accel/hw_faults.h"
#include "accel/isa.h"
#include "accel/simulator.h"
#include "core/eyecod.h"

namespace eyecod {
namespace accel {
namespace {

std::vector<ModelWorkload>
pipeline()
{
    return buildPipelineWorkload(PipelineWorkloadConfig{});
}

TEST(HwConfigValidation, DefaultIsValid)
{
    EXPECT_TRUE(validateHwConfig(HwConfig{}).isOk());
}

TEST(HwConfigValidation, RejectsBrokenFields)
{
    HwConfig hw;
    hw.mac_lanes = 0;
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.clock_hz = -1.0;
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.act_gb_banks = -3;
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.partial_util_threshold = 1.5;
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.watchdog_cycle_budget = -1;
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);
}

TEST(HwConfigValidation, RejectsOverflowingDerivedProducts)
{
    // Each individual field passes its own positivity check; only
    // the derived product (total MACs, total SRAM, bank bandwidth)
    // exceeds the supported bound. These are the DSE lattice corners
    // that used to overflow 32-bit intermediates silently.
    HwConfig hw;
    hw.mac_lanes = 1 << 13;
    hw.macs_per_lane = 1 << 13; // 64 Mi MACs > kMaxTotalMacs.
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.act_gb_count = kMaxActGbCount + 1;
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.act_gb_bytes = long(kMaxSramBytes / 2);
    hw.act_gb_count = 4; // Product 2 TiB > kMaxSramBytes.
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.weight_buf_bytes = long(kMaxSramBytes / 2) + 1;
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);

    hw = HwConfig{};
    hw.act_gb_banks = 1 << 12;
    hw.act_bank_width_bytes = 1 << 12; // 16 MiB/cy > bound.
    EXPECT_EQ(validateHwConfig(hw).code(),
              ErrorCode::InvalidArgument);
}

TEST(HwConfigValidation, SingleLaneConfigSimulates)
{
    // The degenerate 1x1 array is a legal design point: everything
    // time-multiplexes onto one MAC and the schedule stays finite.
    HwConfig hw;
    hw.mac_lanes = 1;
    hw.macs_per_lane = 1;
    ASSERT_TRUE(validateHwConfig(hw).isOk());
    const auto r = simulateChecked(pipeline(), hw, EnergyModel{});
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().fps, 0.0);
    EXPECT_GT(r.value().frame_cycles, 0);
    // Utilization is nominal MAC ops over array-cycles; the
    // depthwise intra-channel reuse can push it slightly past 1.0 on
    // a degenerate 1-MAC array, so only boundedness is asserted.
    EXPECT_GT(r.value().utilization, 0.0);
    EXPECT_LT(r.value().utilization, 2.0);
}

TEST(HwConfigValidation, NonPowerOfTwoBankingSimulates)
{
    // Bank counts are not required to be powers of two; bandwidth
    // math is plain multiplication, not shifts.
    HwConfig hw;
    hw.act_gb_banks = 3;
    hw.act_bank_width_bytes = 24;
    ASSERT_TRUE(validateHwConfig(hw).isOk());
    const auto odd = simulateChecked(pipeline(), hw, EnergyModel{});
    ASSERT_TRUE(odd.ok());
    EXPECT_GT(odd.value().fps, 0.0);
}

TEST(HwConfigValidation, SimulateCheckedSurfacesErrors)
{
    HwConfig hw;
    hw.weight_buf_bytes = 0;
    const auto r = simulateChecked(pipeline(), hw, EnergyModel{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);

    HwConfig no_lanes;
    no_lanes.mac_lanes = 0;
    EXPECT_EQ(simulateChecked(pipeline(), no_lanes, EnergyModel{})
                  .status()
                  .code(),
              ErrorCode::InvalidArgument);

    const auto empty =
        simulateChecked({}, HwConfig{}, EnergyModel{});
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), ErrorCode::InvalidArgument);

    // A cycle budget no frame can fit is a typed watchdog timeout.
    HwConfig strangled;
    strangled.watchdog_cycle_budget = 1;
    EXPECT_EQ(simulateChecked(pipeline(), strangled, EnergyModel{})
                  .status()
                  .code(),
              ErrorCode::ScheduleTimeout);
}

TEST(LaneRetirement, ReducesLanes)
{
    const auto r = retireLanes(HwConfig{}, 4);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().mac_lanes, HwConfig{}.mac_lanes - 4);
}

TEST(LaneRetirement, RetiringEverythingIsALaneFault)
{
    HwConfig hw;
    const auto r = retireLanes(hw, hw.mac_lanes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::HwLaneFault);

    // Over-retirement beyond the physical lane count is the same
    // fault, and a negative count is a plain argument error.
    EXPECT_EQ(retireLanes(hw, hw.mac_lanes + 5).status().code(),
              ErrorCode::HwLaneFault);
    EXPECT_EQ(retireLanes(hw, -1).status().code(),
              ErrorCode::InvalidArgument);
}

TEST(LaneRetirement, SingleSurvivorStillSimulates)
{
    const HwConfig hw;
    const auto r = retireLanes(hw, hw.mac_lanes - 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().mac_lanes, 1);
    ASSERT_TRUE(validateHwConfig(r.value()).isOk());

    const auto full = simulateChecked(pipeline(), hw, EnergyModel{});
    const auto one =
        simulateChecked(pipeline(), r.value(), EnergyModel{});
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(one.ok());
    EXPECT_GT(one.value().fps, 0.0);
    EXPECT_LT(one.value().fps, full.value().fps);
}

TEST(HwFaultInjector, DeterministicForFixedSeed)
{
    HwFaultConfig cfg = HwFaultConfig::mixed(0.05, 1234);
    const HwConfig hw;
    const HwFaultInjector a(cfg, hw);
    const HwFaultInjector b(cfg, hw);

    EXPECT_EQ(a.chip().dead_lanes, b.chip().dead_lanes);
    EXPECT_EQ(a.chip().stuck_words, b.chip().stuck_words);
    for (long f : {0L, 1L, 7L, 100L}) {
        const FrameHwFaults fa = a.plan(f);
        const FrameHwFaults fb = b.plan(f);
        EXPECT_EQ(fa.stuck_lanes, fb.stuck_lanes);
        EXPECT_EQ(fa.flips, fb.flips);
        EXPECT_EQ(fa.stall_cycles, fb.stall_cycles);
        const EccCounters ca = a.classify(fa, f);
        const EccCounters cb = b.classify(fb, f);
        EXPECT_EQ(ca.corrected, cb.corrected);
        EXPECT_EQ(ca.detected_uncorrectable,
                  cb.detected_uncorrectable);
        EXPECT_EQ(ca.silent, cb.silent);
        EXPECT_EQ(ca.overhead_cycles, cb.overhead_cycles);
    }
}

TEST(HwFaultInjector, SeedChangesSchedule)
{
    const HwConfig hw;
    const HwFaultInjector a(HwFaultConfig::mixed(0.2, 1), hw);
    const HwFaultInjector b(HwFaultConfig::mixed(0.2, 2), hw);
    long differing = 0;
    for (long f = 0; f < 32; ++f) {
        const FrameHwFaults fa = a.plan(f);
        const FrameHwFaults fb = b.plan(f);
        if (fa.stuck_lanes != fb.stuck_lanes ||
            fa.flips != fb.flips)
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(HwFaultInjector, ZeroRatesPlanNothing)
{
    const HwFaultInjector inj(HwFaultConfig{}, HwConfig{});
    EXPECT_TRUE(inj.chip().dead_lanes.empty());
    EXPECT_EQ(inj.chip().totalStuckWords(), 0);
    for (long f = 0; f < 16; ++f) {
        EXPECT_FALSE(inj.plan(f).any());
        EXPECT_EQ(inj.silentEvents(f), 0);
    }
}

TEST(HwFaultInjector, FrameWindowGatesTransients)
{
    HwFaultConfig cfg = HwFaultConfig::mixed(0.5, 77);
    cfg.first_frame = 10;
    cfg.last_frame = 20;
    const HwFaultInjector inj(cfg, HwConfig{});
    EXPECT_FALSE(inj.plan(9).any());
    EXPECT_FALSE(inj.plan(21).any());
    long inside = 0;
    for (long f = 10; f <= 20; ++f)
        inside += inj.plan(f).any() ? 1 : 0;
    EXPECT_GT(inside, 0);
}

TEST(Ecc, DisabledMeansEverythingIsSilent)
{
    HwFaultConfig cfg;
    cfg.transient_flip_rate = 2.0;
    cfg.ecc.enabled = false;
    const HwFaultInjector inj(cfg, HwConfig{});
    for (long f = 0; f < 8; ++f) {
        const FrameHwFaults faults = inj.plan(f);
        const EccCounters c = inj.classify(faults, f);
        EXPECT_EQ(c.corrected, 0);
        EXPECT_EQ(c.detected_uncorrectable, 0);
        EXPECT_EQ(c.silent, faults.totalFlips());
        EXPECT_EQ(c.overhead_cycles, 0);
    }
}

TEST(Ecc, EnabledClassifiesAndCharges)
{
    HwFaultConfig cfg;
    cfg.transient_flip_rate = 4.0;
    const HwFaultInjector inj(cfg, HwConfig{});
    EccCounters total;
    long long flips = 0;
    for (long f = 0; f < 64; ++f) {
        const FrameHwFaults faults = inj.plan(f);
        flips += faults.totalFlips();
        total += inj.classify(faults, f);
    }
    ASSERT_GT(flips, 0);
    EXPECT_EQ(total.total(), flips);
    // The overwhelming majority of upsets are single-bit corrected.
    EXPECT_GT(total.corrected, total.detected_uncorrectable);
    EXPECT_GT(total.corrected, total.silent);
    EXPECT_EQ(total.overhead_cycles,
              total.corrected * cfg.ecc.correction_cycles +
                  total.detected_uncorrectable *
                      cfg.ecc.retry_cycles);
}

TEST(Ecc, StuckWordsRecorrectEveryFrame)
{
    HwFaultConfig cfg;
    cfg.persistent_flip_rate = 1.0; // Every bank carries one.
    const HwFaultInjector inj(cfg, HwConfig{});
    ASSERT_GT(inj.chip().totalStuckWords(), 0);
    const EccCounters c = inj.classify(inj.plan(3), 3);
    EXPECT_EQ(c.corrected,
              (long long)inj.chip().totalStuckWords() *
                  cfg.persistent_touches_per_frame);
    EXPECT_EQ(c.silent, 0);
}

TEST(SimulateFaulted, ZeroRatesBitwiseIdenticalToClean)
{
    const auto w = pipeline();
    const HwConfig hw;
    const EnergyModel energy;
    const auto clean = simulateChecked(w, hw, energy);
    ASSERT_TRUE(clean.ok());

    const HwFaultInjector inj(HwFaultConfig{}, hw);
    const auto faulted = simulateFaulted(w, hw, energy, inj, 0);
    ASSERT_TRUE(faulted.ok());

    const PerfReport &c = clean.value();
    const PerfReport &f = faulted.value();
    EXPECT_EQ(f.frame_cycles, c.frame_cycles);
    EXPECT_EQ(f.fps, c.fps);
    EXPECT_EQ(f.fps_peak, c.fps_peak);
    EXPECT_EQ(f.utilization, c.utilization);
    EXPECT_EQ(f.energy_per_frame_j, c.energy_per_frame_j);
    EXPECT_EQ(f.power_w, c.power_w);
    EXPECT_EQ(f.fps_per_watt, c.fps_per_watt);
    EXPECT_EQ(f.active_lanes, c.active_lanes);
    EXPECT_EQ(f.retired_lanes, 0);
    EXPECT_EQ(f.stuck_lane_events, 0);
    EXPECT_EQ(f.ecc.total(), 0);
    EXPECT_EQ(f.ecc_energy_j, 0.0);
}

TEST(SimulateFaulted, RetirementDegradesThroughputMonotonically)
{
    const auto w = pipeline();
    const HwConfig hw;
    const EnergyModel energy;
    double prev_fps = 1e18;
    for (int retired : {0, 1, 2, 4, 8}) {
        HwFaultConfig cfg;
        cfg.retired_lanes = retired;
        const HwFaultInjector inj(cfg, hw);
        const auto r = simulateFaulted(w, hw, energy, inj, 0);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().retired_lanes, retired);
        EXPECT_EQ(r.value().active_lanes, hw.mac_lanes - retired);
        EXPECT_LE(r.value().fps, prev_fps);
        prev_fps = r.value().fps;
    }
}

TEST(SimulateFaulted, NoSurvivingLaneIsAnError)
{
    const auto w = pipeline();
    const HwConfig hw;
    HwFaultConfig cfg;
    cfg.retired_lanes = hw.mac_lanes;
    const HwFaultInjector inj(cfg, hw);
    const auto r = simulateFaulted(w, hw, EnergyModel{}, inj, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::HwLaneFault);
}

TEST(SimulateFaulted, EccAndStallsExtendTheFrame)
{
    const auto w = pipeline();
    const HwConfig hw;
    const EnergyModel energy;
    const auto clean = simulateChecked(w, hw, energy);
    ASSERT_TRUE(clean.ok());

    HwFaultConfig cfg;
    cfg.transient_flip_rate = 8.0;
    cfg.stall_rate = 1.0;
    const HwFaultInjector inj(cfg, hw);
    const auto r = simulateFaulted(w, hw, energy, inj, 0);
    ASSERT_TRUE(r.ok());
    const PerfReport &f = r.value();
    ASSERT_GT(f.ecc.overhead_cycles + f.injected_stall_cycles, 0);
    EXPECT_EQ(f.frame_cycles,
              clean.value().frame_cycles + f.ecc.overhead_cycles +
                  f.injected_stall_cycles);
    EXPECT_LT(f.fps, clean.value().fps);
    EXPECT_GT(f.energy_per_frame_j,
              clean.value().energy_per_frame_j);
    EXPECT_GT(f.ecc_energy_j, 0.0);
}

TEST(SimulateFaulted, WatchdogTripsOnStalledFrame)
{
    const auto w = pipeline();
    HwConfig hw;
    const auto clean = simulateChecked(w, hw, EnergyModel{});
    ASSERT_TRUE(clean.ok());
    // Budget admits the clean frame but not a stalled one.
    hw.watchdog_cycle_budget = clean.value().frame_cycles + 1000;

    HwFaultConfig cfg;
    cfg.stall_rate = 1.0;
    cfg.stall_cycles = 50000;
    const HwFaultInjector inj(cfg, hw);
    const auto r = simulateFaulted(w, hw, EnergyModel{}, inj, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ScheduleTimeout);

    // The clean path still fits the same budget.
    EXPECT_TRUE(simulateChecked(w, hw, EnergyModel{}).ok());
}

TEST(CorruptStepOutput, NoSilentEventsLeavesTensorUntouched)
{
    const HwFaultInjector inj(HwFaultConfig{}, HwConfig{});
    nn::Tensor t(nn::Shape{4, 8, 8}, 0.5f);
    const std::vector<float> before = t.data();
    inj.corruptStepOutput(t, 0, 0x1234, 7);
    EXPECT_EQ(t.data(), before);
}

TEST(CorruptStepOutput, DeterministicPerturbation)
{
    HwFaultConfig cfg;
    cfg.stuck_lane_rate = 0.2;
    cfg.transient_flip_rate = 4.0;
    cfg.ecc.enabled = false; // Everything silent.
    const HwFaultInjector inj(cfg, HwConfig{});

    nn::Tensor a(nn::Shape{8, 16, 16}, 1.0f);
    nn::Tensor b(nn::Shape{8, 16, 16}, 1.0f);
    bool perturbed = false;
    for (long f = 0; f < 16 && !perturbed; ++f) {
        std::fill(a.data().begin(), a.data().end(), 1.0f);
        std::fill(b.data().begin(), b.data().end(), 1.0f);
        inj.corruptStepOutput(a, f, 0xbeef, 3);
        inj.corruptStepOutput(b, f, 0xbeef, 3);
        EXPECT_EQ(a.data(), b.data());
        for (float v : a.data())
            perturbed = perturbed || v != 1.0f;
    }
    EXPECT_TRUE(perturbed);
    // All perturbed values stay finite (mantissa/sign flips only).
    for (float v : a.data())
        EXPECT_TRUE(std::isfinite(v));
}

TEST(CorruptStepOutput, ModelTagDecorrelates)
{
    HwFaultConfig cfg;
    cfg.transient_flip_rate = 16.0;
    cfg.ecc.enabled = false;
    const HwFaultInjector inj(cfg, HwConfig{});
    nn::Tensor a(nn::Shape{8, 16, 16}, 1.0f);
    nn::Tensor b(nn::Shape{8, 16, 16}, 1.0f);
    long differing = 0;
    for (long f = 0; f < 8; ++f) {
        std::fill(a.data().begin(), a.data().end(), 1.0f);
        std::fill(b.data().begin(), b.data().end(), 1.0f);
        inj.corruptStepOutput(a, f, 0x1111, 3);
        inj.corruptStepOutput(b, f, 0x2222, 3);
        if (a.data() != b.data())
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(ExecutorWatchdog, RunawayStreamIsAScheduleTimeout)
{
    const auto w = pipeline();
    const HwConfig hw;
    const InstructionStream stream = compileModel(w[0], hw);
    // A cap far below the stream's dynamic length trips the watchdog
    // instead of panicking.
    const auto r = executeStreamChecked(stream, w[0], hw, 10);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ScheduleTimeout);
    // The default cap executes fine.
    EXPECT_TRUE(executeStreamChecked(stream, w[0], hw).ok());
}

TEST(SystemHealth, FaultedSimulationAccumulates)
{
    core::SystemConfig cfg;
    cfg.hw_faults.stall_rate = 1.0;
    cfg.hw_faults.transient_flip_rate = 2.0;
    core::EyeCoDSystem sys(cfg);
    for (long f = 0; f < 4; ++f)
        EXPECT_TRUE(sys.simulateFaultedPerformance(f).ok());
    const core::HealthReport h = sys.healthReport();
    EXPECT_EQ(h.accel.frames, 4);
    EXPECT_EQ(h.accel.stall_frames, 4);
    EXPECT_GT(h.accel.ecc.total(), 0);
    EXPECT_EQ(h.accel.schedule_timeouts, 0);

    sys.reset();
    EXPECT_EQ(sys.healthReport().accel.frames, 0);
}

TEST(SystemHealth, WatchdogTimeoutsAreCounted)
{
    core::SystemConfig cfg;
    cfg.hw.watchdog_cycle_budget = 1; // Nothing fits.
    core::EyeCoDSystem sys(cfg);
    const auto r = sys.simulateFaultedPerformance(0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ScheduleTimeout);
    const core::HealthReport h = sys.healthReport();
    EXPECT_EQ(h.accel.schedule_timeouts, 1);
    EXPECT_EQ(h.accel.last_error, ErrorCode::ScheduleTimeout);
}

TEST(Names, CoverTheTaxonomy)
{
    EXPECT_STREQ(hwFaultKindName(HwFaultKind::DeadLane),
                 "dead-lane");
    EXPECT_STREQ(hwFaultKindName(HwFaultKind::OrchestratorStall),
                 "orchestrator-stall");
    EXPECT_STREQ(sramDomainName(SramDomain::ActGb), "act-gb");
    EXPECT_STREQ(sramDomainName(SramDomain::InputBuffer),
                 "input-buffer");
    EXPECT_STREQ(errorCodeName(ErrorCode::HwLaneFault),
                 "hw-lane-fault");
    EXPECT_STREQ(errorCodeName(ErrorCode::EccUncorrectable),
                 "ecc-uncorrectable");
    EXPECT_STREQ(errorCodeName(ErrorCode::ScheduleTimeout),
                 "schedule-timeout");
}

} // namespace
} // namespace accel
} // namespace eyecod
