/**
 * @file
 * Optics and algorithm design-space ablations: the Tikhonov
 * regularization weight, sensor noise, mask fabrication error with
 * and without calibration, and gaze-stage quantization depth — the
 * knobs behind Secs. 4.1-4.3 that the paper fixes without sweeping.
 */

#include <cstdio>

#include "common/stats.h"
#include "eyetrack/pipeline.h"
#include "eyetrack/segmentation.h"
#include "flatcam/calibration.h"

using namespace eyecod;
using namespace eyecod::eyetrack;

namespace {

flatcam::MaskConfig
maskCfg(int scene, double fab_noise)
{
    flatcam::MaskConfig mc;
    mc.scene_rows = mc.scene_cols = scene;
    mc.sensor_rows = mc.sensor_cols = scene + 32;
    mc.fabrication_noise = fab_noise;
    mc.mls_order = 3;
    while ((1 << mc.mls_order) - 1 < mc.sensor_rows)
        ++mc.mls_order;
    return mc;
}

} // namespace

int
main()
{
    dataset::RenderConfig rc;
    rc.image_size = 128;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    const ClassicalSegmenter seg;

    // --- Tikhonov epsilon sweep ---
    {
        const flatcam::SeparableMask mask =
            flatcam::makeSeparableMask(maskCfg(128, 0.005));
        flatcam::SensorNoise nz;
        nz.read_noise = 0.002;
        const flatcam::FlatCamSensor cam(mask, nz);
        TextTable t({"epsilon", "PSNR dB", "mIOU"});
        for (double eps : {1e-5, 1e-4, 1e-3, 2e-3, 1e-2, 1e-1}) {
            const flatcam::FlatCamReconstructor rec(mask, eps);
            double psnr = 0.0, miou = 0.0;
            const int n = 6;
            for (int i = 0; i < n; ++i) {
                const auto s = ren.sample(500 + i);
                Image y, out;
                if (!cam.captureFrameInto(s.image, i, &y).isOk() ||
                    !rec.reconstructFrameInto(y, &out).isOk()) {
                    std::fprintf(stderr, "FlatCam frame %d failed\n", i);
                    return 1;
                }
                psnr += imagePsnr(out, s.image);
                miou += segmentationIou(seg.segment(out),
                                        s.mask)[4];
            }
            t.addRow({formatDouble(eps, 5),
                      formatDouble(psnr / n, 1),
                      formatDouble(miou / n, 1)});
        }
        std::printf("=== Ablation: Tikhonov regularization (Eq. 2; "
                    "the pipeline uses 2e-3) ===\n%s\n",
                    t.render().c_str());
    }

    // --- Sensor noise sweep ---
    {
        const flatcam::SeparableMask mask =
            flatcam::makeSeparableMask(maskCfg(128, 0.005));
        TextTable t({"read noise", "PSNR dB", "mIOU"});
        for (double noise : {0.0, 0.002, 0.005, 0.01, 0.02}) {
            flatcam::SensorNoise nz;
            nz.read_noise = noise;
            const flatcam::FlatCamSensor cam(mask, nz);
            const flatcam::FlatCamReconstructor rec(mask, 2e-3);
            double psnr = 0.0, miou = 0.0;
            const int n = 6;
            for (int i = 0; i < n; ++i) {
                const auto s = ren.sample(600 + i);
                Image y, out;
                if (!cam.captureFrameInto(s.image, i, &y).isOk() ||
                    !rec.reconstructFrameInto(y, &out).isOk()) {
                    std::fprintf(stderr, "FlatCam frame %d failed\n", i);
                    return 1;
                }
                psnr += imagePsnr(out, s.image);
                miou += segmentationIou(seg.segment(out),
                                        s.mask)[4];
            }
            t.addRow({formatDouble(noise, 3),
                      formatDouble(psnr / n, 1),
                      formatDouble(miou / n, 1)});
        }
        std::printf("=== Ablation: sensor read noise (low-light "
                    "robustness, Sec. 2) ===\n%s\n",
                    t.render().c_str());
    }

    // --- Fabrication error, designed vs calibrated mask ---
    {
        TextTable t({"fabrication noise", "PSNR w/ design dB",
                     "PSNR w/ calibration dB"});
        for (double fab : {0.0, 0.02, 0.05, 0.10}) {
            const flatcam::SeparableMask design =
                flatcam::makeSeparableMask(maskCfg(64, 0.0));
            flatcam::MaskConfig devc = maskCfg(64, fab);
            const flatcam::SeparableMask device =
                flatcam::makeSeparableMask(devc);
            flatcam::SensorNoise nz;
            nz.read_noise = 0.001;
            const flatcam::FlatCamSensor cam(device, nz);
            const auto cal = flatcam::calibrateSeparable(cam);
            const flatcam::FlatCamReconstructor rec_design(design,
                                                           2e-3);
            const flatcam::FlatCamReconstructor rec_cal(cal.mask,
                                                        2e-3);
            dataset::RenderConfig rc64;
            rc64.image_size = 64;
            const dataset::SyntheticEyeRenderer ren64(rc64, 2019);
            double p_design = 0.0, p_cal = 0.0;
            const int n = 4;
            for (int i = 0; i < n; ++i) {
                const auto s = ren64.sample(700 + i);
                Image y, x_design, x_cal;
                if (!cam.captureFrameInto(s.image, i, &y).isOk() ||
                    !rec_design.reconstructFrameInto(y, &x_design)
                         .isOk() ||
                    !rec_cal.reconstructFrameInto(y, &x_cal).isOk()) {
                    std::fprintf(stderr, "FlatCam frame %d failed\n", i);
                    return 1;
                }
                p_design += imagePsnr(x_design, s.image);
                p_cal += imagePsnr(x_cal, s.image);
            }
            t.addRow({formatDouble(fab, 2),
                      formatDouble(p_design / n, 1),
                      formatDouble(p_cal / n, 1)});
        }
        std::printf("=== Ablation: mask fabrication error — why the "
                    "device is calibrated (Sec. 4.1) ===\n%s\n",
                    t.render().c_str());
    }

    // --- Gaze-stage quantization depth ---
    {
        TextTable t({"bits", "gaze error deg"});
        for (int bits : {0, 10, 8, 6, 4}) {
            PipelineConfig pc;
            pc.camera = CameraKind::FlatCam;
            pc.gaze.quant_bits = bits;
            PredictThenFocusPipeline pipe(pc);
            pipe.trainGaze(ren, 300);
            double err = 0.0;
            const int n = 60;
            for (int i = 0; i < n; ++i) {
                pipe.reset();
                const auto s = ren.sample(uint64_t(400000 + i));
                err += dataset::angularErrorDeg(
                    pipe.processFrame(s.image).gaze, s.gaze);
            }
            t.addRow({bits == 0 ? "float" : std::to_string(bits),
                      formatDouble(err / n, 2)});
        }
        std::printf("=== Ablation: gaze-stage quantization depth "
                    "(Tab. 2 ships 8-bit) ===\n%s\n",
                    t.render().c_str());
    }
    return 0;
}
