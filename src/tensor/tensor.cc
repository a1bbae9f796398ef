#include "tensor/tensor.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"
#include "util/random.hh"

namespace vitdyn
{

int64_t
shapeNumel(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape)
        n *= d;
    return n;
}

std::string
shapeToString(const Shape &shape)
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < shape.size(); ++i)
        oss << (i ? ", " : "") << shape[i];
    oss << "]";
    return oss.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), numel_(shapeNumel(shape_)),
      data_(static_cast<size_t>(numel_), 0.0f)
{
    for (int64_t d : shape_)
        vitdyn_assert(d >= 0, "negative dimension in ",
                      shapeToString(shape_));
}

Tensor::Tensor(Shape shape, float fill)
    : Tensor(std::move(shape))
{
    for (auto &v : data_)
        v = fill;
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), numel_(shapeNumel(shape_)),
      data_(std::move(data))
{
    vitdyn_assert(static_cast<int64_t>(data_.size()) == numel_,
                  "data size ", data_.size(), " != shape numel ", numel_);
}

Tensor
Tensor::randn(Shape shape, Rng &rng, float mean, float stddev)
{
    Tensor t(std::move(shape));
    for (int64_t i = 0; i < t.numel_; ++i)
        t.data_[i] = static_cast<float>(rng.normal(mean, stddev));
    return t;
}

Tensor
Tensor::heInit(Shape shape, Rng &rng, int64_t fan_in)
{
    vitdyn_assert(fan_in > 0, "heInit needs positive fan_in");
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    return randn(std::move(shape), rng, 0.0f, stddev);
}

int64_t
Tensor::dim(int64_t d) const
{
    const int64_t r = rank();
    if (d < 0)
        d += r;
    vitdyn_assert(d >= 0 && d < r, "dim ", d, " out of range for rank ", r);
    return shape_[d];
}

Tensor
Tensor::reshaped(Shape new_shape) const
{
    int64_t known = 1;
    int infer_at = -1;
    for (size_t i = 0; i < new_shape.size(); ++i) {
        if (new_shape[i] == -1) {
            vitdyn_assert(infer_at < 0, "multiple -1 dims in reshape");
            infer_at = static_cast<int>(i);
        } else {
            known *= new_shape[i];
        }
    }
    if (infer_at >= 0) {
        vitdyn_assert(known > 0 && numel_ % known == 0,
                      "cannot infer reshape dim: numel ", numel_,
                      " vs partial ", known);
        new_shape[infer_at] = numel_ / known;
    }
    vitdyn_assert(shapeNumel(new_shape) == numel_,
                  "reshape ", shapeToString(shape_), " -> ",
                  shapeToString(new_shape), " changes element count");
    Tensor out;
    out.shape_ = std::move(new_shape);
    out.numel_ = numel_;
    out.data_ = data_;
    return out;
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (float v : data_)
        s += v;
    return s;
}

float
Tensor::maxAbs() const
{
    float m = 0.0f;
    for (float v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

bool
Tensor::allClose(const Tensor &other, float tol) const
{
    if (shape_ != other.shape_)
        return false;
    for (int64_t i = 0; i < numel_; ++i)
        if (std::fabs(data_[i] - other.data_[i]) > tol)
            return false;
    return true;
}

} // namespace vitdyn
