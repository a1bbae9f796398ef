/**
 * @file
 * Dense row-major float tensor used by the reference inference executor.
 *
 * The tensor substrate is deliberately simple: contiguous float32 storage,
 * row-major (C) layout, explicit shapes. Convolutional feature maps use
 * NCHW order; sequence tensors use (N, L, C). All heavy math lives in the
 * free functions declared in tensor/ops.hh so the data structure stays a
 * plain value type.
 */

#ifndef VITDYN_TENSOR_TENSOR_HH
#define VITDYN_TENSOR_TENSOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vitdyn
{

class Rng;

/** Shape of a tensor: per-dimension extents. */
using Shape = std::vector<int64_t>;

/** Number of elements implied by a shape. */
int64_t shapeNumel(const Shape &shape);

/** Render a shape as "[a, b, c]" for diagnostics. */
std::string shapeToString(const Shape &shape);

/** Contiguous row-major float32 tensor. */
class Tensor
{
  public:
    /** Empty tensor (rank 0, no storage). */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Tensor of the given shape filled with @p fill. */
    Tensor(Shape shape, float fill);

    /** Tensor wrapping a copy of explicit data; sizes must agree. */
    Tensor(Shape shape, std::vector<float> data);

    /** Tensor with i.i.d. N(mean, stddev) entries drawn from @p rng. */
    static Tensor randn(Shape shape, Rng &rng, float mean = 0.0f,
                        float stddev = 1.0f);

    /**
     * He/Kaiming-normal initialization for a weight tensor.
     * @param fan_in number of input connections per output.
     */
    static Tensor heInit(Shape shape, Rng &rng, int64_t fan_in);

    const Shape &shape() const { return shape_; }
    int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
    int64_t numel() const { return numel_; }

    /** Extent of dimension @p dim (supports negative indexing). */
    int64_t dim(int64_t dim) const;

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float &operator[](int64_t i) { return data_[i]; }
    float operator[](int64_t i) const { return data_[i]; }

    /**
     * Element accessors for rank-4 (n, c, h, w), rank-3 (n, l, c) and
     * rank-2 (r, c) tensors. Inline, so an accessor loop pays no call
     * per element.
     */
    float &at4(int64_t n, int64_t c, int64_t h, int64_t w)
    {
        return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
    }
    float at4(int64_t n, int64_t c, int64_t h, int64_t w) const
    {
        return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
    }
    float &at3(int64_t n, int64_t l, int64_t c)
    {
        return data_[(n * shape_[1] + l) * shape_[2] + c];
    }
    float at3(int64_t n, int64_t l, int64_t c) const
    {
        return data_[(n * shape_[1] + l) * shape_[2] + c];
    }
    float &at2(int64_t r, int64_t c) { return data_[r * shape_[1] + c]; }
    float at2(int64_t r, int64_t c) const { return data_[r * shape_[1] + c]; }

    /**
     * Return a tensor with the same storage reinterpreted under a new
     * shape. The element count must match; -1 may appear once and is
     * inferred.
     */
    Tensor reshaped(Shape new_shape) const;

    /** Sum of all elements. */
    double sum() const;

    /** Maximum absolute element, 0 for empty tensors. */
    float maxAbs() const;

    /** True when shapes and all elements match within @p tol. */
    bool allClose(const Tensor &other, float tol = 1e-5f) const;

  private:
    Shape shape_;
    int64_t numel_ = 0;
    std::vector<float> data_;
};

} // namespace vitdyn

#endif // VITDYN_TENSOR_TENSOR_HH
