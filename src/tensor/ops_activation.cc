#include "tensor/ops.hh"

#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vitdyn
{

namespace
{

/**
 * Run @p fn(i) for every flat index of an @p n-element tensor, sharded
 * over contiguous index ranges of about a quarter MFLOP each. Every
 * index is written by exactly one shard with the sequential loop's
 * expression, so any thread count gives the same bits; tensors within
 * one grain run inline.
 */
template <typename Fn>
void
forEachIndex(int64_t n, int64_t flops_per_elem, const Fn &fn)
{
    parallelFor(0, n, grainForFlops(flops_per_elem),
                [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            fn(i);
    });
}

/**
 * y = GELU(x) over @p n elements (@p x may be @p y), sharded like
 * forEachIndex: each shard hands its contiguous range to the active
 * geluF32 kernel, which gives every element geluScalar()'s bits.
 */
void
geluSharded(const float *x, float *y, int64_t n)
{
    const auto kernel = activeKernels().geluF32;
    parallelFor(0, n, grainForFlops(kGeluFlops),
                [&](int64_t i0, int64_t i1) {
        kernel(x + i0, y + i0, i1 - i0);
    });
}

} // namespace

Tensor
relu(const Tensor &input)
{
    Tensor out(input.shape());
    const float *x = input.data();
    float *y = out.data();
    forEachIndex(input.numel(), 1, [&](int64_t i) {
        y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    });
    return out;
}

Tensor
gelu(const Tensor &input)
{
    Tensor out(input.shape());
    geluSharded(input.data(), out.data(), input.numel());
    return out;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    vitdyn_assert(a.shape() == b.shape(), "add shape mismatch: ",
                  shapeToString(a.shape()), " vs ",
                  shapeToString(b.shape()));
    Tensor out(a.shape());
    const float *pa = a.data();
    const float *pb = b.data();
    float *y = out.data();
    forEachIndex(a.numel(), 1, [&](int64_t i) { y[i] = pa[i] + pb[i]; });
    return out;
}

void
reluInPlace(Tensor &x)
{
    float *y = x.data();
    forEachIndex(x.numel(), 1, [&](int64_t i) {
        y[i] = y[i] > 0.0f ? y[i] : 0.0f;
    });
}

void
geluInPlace(Tensor &x)
{
    geluSharded(x.data(), x.data(), x.numel());
}

void
addInPlace(Tensor &x, const Tensor &other)
{
    vitdyn_assert(x.shape() == other.shape(), "add shape mismatch: ",
                  shapeToString(x.shape()), " vs ",
                  shapeToString(other.shape()));
    float *y = x.data();
    const float *p = other.data();
    // Read-then-write per index, so `other` aliasing `x` is safe.
    forEachIndex(x.numel(), 1, [&](int64_t i) { y[i] = y[i] + p[i]; });
}

} // namespace vitdyn
