/**
 * @file
 * Visual-privacy demonstration: a FlatCam's raw sensor measurement
 * carries almost no spatial resemblance to the eye it observed —
 * only the holder of the calibrated mask can reconstruct it. The
 * example renders an eye, captures it through the FlatCam, and
 * prints ASCII previews plus similarity metrics of the scene, the
 * raw measurement, and the Tikhonov reconstruction.
 *
 *   $ ./examples/privacy_demo
 */

#include <cstdio>

#include "eyetrack/pipeline.h"

using namespace eyecod;

namespace {

/** Print a small ASCII rendition of an image. */
void
asciiPreview(const char *title, const Image &img)
{
    static const char *ramp = " .:-=+*#%@";
    Image small = img.resized(16, 32);
    small.normalize();
    std::printf("%s\n", title);
    for (int y = 0; y < small.height(); ++y) {
        std::printf("  ");
        for (int x = 0; x < small.width(); ++x) {
            const int level =
                std::min(9, int(small.at(y, x) * 9.99f));
            std::putchar(ramp[level]);
        }
        std::putchar('\n');
    }
    std::putchar('\n');
}

} // namespace

int
main()
{
    dataset::RenderConfig rc;
    rc.image_size = 128;
    const dataset::SyntheticEyeRenderer eyes(rc, 2019);
    const dataset::EyeSample s = eyes.sample(7);

    // The FlatCam front-end of the pipeline.
    eyetrack::PipelineConfig pc;
    pc.camera = eyetrack::CameraKind::FlatCam;
    flatcam::MaskConfig mc;
    mc.scene_rows = mc.scene_cols = 128;
    mc.sensor_rows = mc.sensor_cols = 160;
    const flatcam::SeparableMask mask =
        flatcam::makeSeparableMask(mc);
    const flatcam::FlatCamSensor sensor(mask, {});
    const flatcam::FlatCamReconstructor recon(mask, 2e-3);

    Image measurement;
    Image reconstructed;
    Status status = sensor.captureFrameInto(s.image, 0, &measurement);
    if (status.isOk())
        status = recon.reconstructFrameInto(measurement, &reconstructed);
    if (!status.isOk()) {
        std::fprintf(stderr, "FlatCam frame failed: %s\n",
                     status.toString().c_str());
        return 1;
    }
    const Image meas_crop =
        measurement.cropped(Rect{16, 16, 128, 128});

    asciiPreview("scene (what a lens camera would transmit):",
                 s.image);
    asciiPreview("raw FlatCam measurement (what actually leaves "
                 "the sensor):", measurement);
    asciiPreview("reconstruction (requires the calibrated mask):",
                 reconstructed);

    std::printf("similarity to the scene (zero-mean NCC; 1.0 = "
                "identical up to brightness):\n");
    std::printf("  raw measurement : %+.3f  <- visually private\n",
                imageNcc(s.image, meas_crop));
    std::printf("  reconstruction  : %+.3f  (PSNR %.1f dB)\n",
                imageNcc(s.image, reconstructed),
                imagePsnr(reconstructed, s.image));

    // And the eye tracking still works on the reconstruction.
    const eyetrack::ClassicalSegmenter seg;
    const auto iou =
        eyetrack::segmentationIou(seg.segment(reconstructed),
                                  s.mask);
    std::printf("\nsegmentation on the reconstruction: mIOU %.1f "
                "(pupil %.1f, iris %.1f, sclera %.1f)\n",
                iou[4], iou[3], iou[2], iou[1]);
    return 0;
}
