/**
 * @file
 * Non-owning image views for the zero-copy frame spine.
 *
 * An ImageConstView / ImageView is a {data pointer, height, width,
 * row stride} quadruple over somebody else's float storage — an
 * owning common::Image, a BufferArena block, or a strided window
 * into either. Views are how ROI crops travel through the pipeline
 * without materializing: an in-bounds crop is just a pointer offset
 * plus the parent's stride.
 *
 * Ownership rules (DESIGN.md section 11 "Memory spine"):
 *  - a view never outlives the buffer it points into;
 *  - views into a BufferArena are valid only within the epoch that
 *    allocated them — BufferArena::resetEpoch() invalidates them
 *    (and poisons the memory under ASan so stale use traps);
 *  - views into an Image are invalidated by any reallocation of the
 *    image (resetShape to a larger size, assignment, destruction).
 *
 * Out-of-bounds subviews are a typed error (Result<...>), not a
 * clamped fallback: border-clamped crops need materialization and
 * callers must be explicit about paying for it (Image::croppedInto).
 */

#ifndef EYECOD_COMMON_IMAGE_VIEW_H
#define EYECOD_COMMON_IMAGE_VIEW_H

#include <algorithm>
#include <cstddef>

#include "common/image.h"
#include "common/status.h"

namespace eyecod {

/** Read-only strided view over float pixels (row-major). */
class ImageConstView
{
  public:
    /** An empty 0x0 view. */
    ImageConstView() = default;

    /**
     * View over raw storage. @p stride is in elements (>= width).
     */
    ImageConstView(const float *data, int height, int width,
                   ptrdiff_t stride)
        : data_(data), height_(height), width_(width), stride_(stride)
    {
    }

    /**
     * Full view over an owning image (stride == width). Implicit, so
     * every call that takes a view takes an Image too; the view
     * follows the image's lifetime rules above, and one built from a
     * temporary dies with the full expression.
     */
    ImageConstView(const Image &img)
        : ImageConstView(img.data().data(), img.height(), img.width(),
                         img.width())
    {
    }

    /** The same full view, spelled out. */
    static ImageConstView of(const Image &img) { return img; }

    /** View height in pixels. */
    int height() const { return height_; }
    /** View width in pixels. */
    int width() const { return width_; }
    /** Distance between row starts, in elements. */
    ptrdiff_t stride() const { return stride_; }
    /** Pointer to the first pixel (row 0, column 0). */
    const float *data() const { return data_; }
    /** True for a default-constructed / zero-area view. */
    bool empty() const { return height_ <= 0 || width_ <= 0; }
    /** True when rows are contiguous (stride == width). */
    bool contiguous() const { return stride_ == width_; }

    /** Pixel access (no bounds check). */
    float
    at(int y, int x) const
    {
        return data_[ptrdiff_t(y) * stride_ + x];
    }

    /** Pixel access with border clamping to the view's bounds. */
    float
    atClamped(int y, int x) const
    {
        y = std::clamp(y, 0, height_ - 1);
        x = std::clamp(x, 0, width_ - 1);
        return at(y, x);
    }

    /**
     * True when @p r (non-empty) lies fully inside this view — the
     * exact precondition of subview(). Allocation-free; hot paths
     * that expect out-of-bounds rectangles in steady state test this
     * first instead of paying for subview()'s error Status (whose
     * formatted message is a heap allocation).
     */
    bool
    contains(const Rect &r) const
    {
        return r.width > 0 && r.height > 0 && r.x >= 0 && r.y >= 0 &&
               r.x + r.width <= width_ && r.y + r.height <= height_;
    }

    /**
     * Strided sub-window. The rectangle must lie fully inside the
     * view; a rect that pokes outside returns InvalidArgument (use
     * Image::croppedInto for border-clamped materialization).
     */
    Result<ImageConstView> subview(const Rect &r) const;

  private:
    const float *data_ = nullptr;
    int height_ = 0;
    int width_ = 0;
    ptrdiff_t stride_ = 0;
};

/** Mutable strided view over float pixels (row-major). */
class ImageView
{
  public:
    /** An empty 0x0 view. */
    ImageView() = default;

    /**
     * View over raw storage. @p stride is in elements (>= width).
     */
    ImageView(float *data, int height, int width, ptrdiff_t stride)
        : data_(data), height_(height), width_(width), stride_(stride)
    {
    }

    /**
     * Full mutable view over an owning image (stride == width);
     * implicit, with ImageConstView's lifetime rule.
     */
    ImageView(Image &img)
        : ImageView(img.data().data(), img.height(), img.width(),
                    img.width())
    {
    }

    /** The same full view, spelled out. */
    static ImageView of(Image &img) { return img; }

    /** View height in pixels. */
    int height() const { return height_; }
    /** View width in pixels. */
    int width() const { return width_; }
    /** Distance between row starts, in elements. */
    ptrdiff_t stride() const { return stride_; }
    /** Pointer to the first pixel (row 0, column 0). */
    float *data() const { return data_; }
    /** True for a default-constructed / zero-area view. */
    bool empty() const { return height_ <= 0 || width_ <= 0; }
    /** True when rows are contiguous (stride == width). */
    bool contiguous() const { return stride_ == width_; }

    /** Mutable pixel access (no bounds check). */
    float &
    at(int y, int x) const
    {
        return data_[ptrdiff_t(y) * stride_ + x];
    }

    /** Pixel access with border clamping to the view's bounds. */
    float
    atClamped(int y, int x) const
    {
        y = std::clamp(y, 0, height_ - 1);
        x = std::clamp(x, 0, width_ - 1);
        return at(y, x);
    }

    /** Read-only alias of this view. */
    operator ImageConstView() const
    {
        return ImageConstView(data_, height_, width_, stride_);
    }

    /** Read-only alias of this view (explicit spelling). */
    ImageConstView
    asConst() const
    {
        return ImageConstView(data_, height_, width_, stride_);
    }

    /** True when @p r lies fully inside this view (see
     *  ImageConstView::contains). */
    bool
    contains(const Rect &r) const
    {
        return r.width > 0 && r.height > 0 && r.x >= 0 && r.y >= 0 &&
               r.x + r.width <= width_ && r.y + r.height <= height_;
    }

    /**
     * Strided mutable sub-window; same bounds contract as
     * ImageConstView::subview.
     */
    Result<ImageView> subview(const Rect &r) const;

    /** Set every pixel to @p value. */
    void fill(float value) const;

    /**
     * Copy pixels from @p src (shapes must match; panics otherwise —
     * shape agreement is the caller's contract, like Image::at).
     */
    void copyFrom(ImageConstView src) const;

  private:
    float *data_ = nullptr;
    int height_ = 0;
    int width_ = 0;
    ptrdiff_t stride_ = 0;
};

/**
 * Bilinear resize from a (possibly strided) view into an owning
 * image. Reuses @p out's storage when the target shape matches its
 * current capacity; bitwise-identical to Image::resized on a full
 * view. Same-size resizes degrade to an exact pixel copy (which is
 * what the bilinear kernel produces at scale 1, just cheaper).
 */
void resizeBilinearInto(ImageConstView src, int new_height,
                        int new_width, Image *out);

/**
 * Materialize a border-clamped crop of @p src into @p out (reusing
 * storage). Bitwise-identical to Image::cropped.
 */
void cropClampedInto(ImageConstView src, const Rect &r, Image *out);

/**
 * Zero-copy crop of an owning image: a strided view when @p r is
 * fully inside, InvalidArgument when it pokes outside (callers fall
 * back to Image::croppedInto for clamped-border materialization).
 */
inline Result<ImageConstView>
croppedView(const Image &img, const Rect &r)
{
    return ImageConstView::of(img).subview(r);
}

} // namespace eyecod

#endif // EYECOD_COMMON_IMAGE_VIEW_H
