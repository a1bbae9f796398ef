/**
 * @file
 * GELU's tanh, written once for every ISA: a port of fdlibm's
 * single-precision tanhf (s_tanhf.c) and expm1f (s_expm1f.c) as
 * templates over a lane type.
 *
 * Why the SIMD kernels are exact: every lane runs the scalar code's
 * sequence of IEEE mul, add, sub and div and integer bit operations,
 * operand for operand. A branch of the scalar code becomes a compare
 * on the input's bits and a select, so a lane computes every branch
 * and keeps the one the scalar code would have taken. The translation
 * units that include this header are compiled with -ffp-contract=off,
 * so no mul/add pair becomes a fused multiply-add, and each IEEE
 * operation rounds the same way on every ISA. The sequence itself is
 * fdlibm's, which is the tanhf glibc ships up to at least 2.36, so on
 * such hosts tanhLanes(x) equals std::tanh(x) for all 2^32 inputs
 * (tools/vitdyn_gelu_check counts both claims).
 *
 * Lane type contract, for F (float lanes), I (int32 lanes) and the
 * mask type M their compares return:
 *  - F: + - * / and unary -, implicitly constructible from float;
 *  - I: + - &, compares < <= > >= == giving M, implicitly
 *    constructible from int32_t, with wrapping arithmetic;
 *  - bitsOf(F) -> I and floatOf(I) -> F reinterpret bits;
 *  - toFloat(I) -> F converts, truncToInt(F) -> I rounds toward zero;
 *  - shl23(I) shifts left by 23, srlv(I a, I n) shifts a right
 *    (logical) by n in [0, 31];
 *  - select(M, F, F) and select(M, I, I) pick per lane.
 * The scalar lane type (float, Int1, bool) is defined below; the SIMD
 * ones live in their kernel translation units.
 *
 * Include this header only from a translation unit compiled with
 * -ffp-contract=off (src/CMakeLists.txt pins it on tensor/kernels/).
 */

/*
 * s_tanhf.c -- float version of s_tanh.c.
 * s_expm1f.c -- float version of s_expm1.c.
 * Conversion to float by Ian Lance Taylor, Cygnus Support,
 * ian@cygnus.com.
 *
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunPro, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 */

#ifndef VITDYN_TENSOR_KERNELS_TANH_LANES_HH
#define VITDYN_TENSOR_KERNELS_TANH_LANES_HH

#include <bit>
#include <cstdint>
#include <type_traits>

#include "tensor/kernels/kernels.hh"

namespace vitdyn
{
namespace lanes
{

/** One int32 lane of the scalar instantiation: wrapping arithmetic, as
 *  in a SIMD register, so branches a lane discards cannot overflow. */
struct Int1
{
    int32_t v;
    Int1(int32_t x) : v(x) {} // implicit: a scalar broadcasts
};

inline Int1
wrap(uint32_t x)
{
    return Int1(static_cast<int32_t>(x));
}
inline Int1
operator+(Int1 a, Int1 b)
{
    return wrap(static_cast<uint32_t>(a.v) + static_cast<uint32_t>(b.v));
}
inline Int1
operator-(Int1 a, Int1 b)
{
    return wrap(static_cast<uint32_t>(a.v) - static_cast<uint32_t>(b.v));
}
inline Int1
operator&(Int1 a, Int1 b)
{
    return Int1(a.v & b.v);
}
inline bool operator<(Int1 a, Int1 b) { return a.v < b.v; }
inline bool operator<=(Int1 a, Int1 b) { return a.v <= b.v; }
inline bool operator>(Int1 a, Int1 b) { return a.v > b.v; }
inline bool operator>=(Int1 a, Int1 b) { return a.v >= b.v; }
inline bool operator==(Int1 a, Int1 b) { return a.v == b.v; }

inline Int1
bitsOf(float x)
{
    return Int1(std::bit_cast<int32_t>(x));
}
inline float
floatOf(Int1 a)
{
    return std::bit_cast<float>(a.v);
}
inline float
toFloat(Int1 a)
{
    return static_cast<float>(a.v);
}
/** Callers keep @p x finite and within int32 range. */
inline Int1
truncToInt(float x)
{
    return Int1(static_cast<int32_t>(x));
}
inline Int1
shl23(Int1 a)
{
    return wrap(static_cast<uint32_t>(a.v) << 23);
}
inline Int1
srlv(Int1 a, Int1 n)
{
    const auto s = static_cast<uint32_t>(n.v);
    return wrap(s > 31 ? 0u : static_cast<uint32_t>(a.v) >> s);
}
inline float
select(bool m, float a, float b)
{
    return m ? a : b;
}
inline Int1
select(bool m, Int1 a, Int1 b)
{
    return m ? a : b;
}

/**
 * Two lane values in lockstep: every operation runs on both halves
 * back to back, so two independent vectors' dependency chains
 * interleave in the instruction stream and the core overlaps their
 * latencies. Twice<T> satisfies the lane contract when T does.
 */
template <class T>
struct Twice
{
    T lo, hi;
    Twice(T l, T h) : lo(l), hi(h) {}
    template <class S>
        requires std::is_arithmetic_v<S>
    Twice(S s) : lo(s), hi(s) // implicit: a scalar broadcasts
    {
    }

    // Float lanes only: contiguous loads and stores, lo first.
    static constexpr int64_t kWidth = 2 * T::kWidth;
    static Twice load(const float *p)
    {
        return {T::load(p), T::load(p + T::kWidth)};
    }
    void store(float *p) const
    {
        lo.store(p);
        hi.store(p + T::kWidth);
    }

    friend Twice operator+(Twice a, Twice b)
    {
        return {a.lo + b.lo, a.hi + b.hi};
    }
    friend Twice operator-(Twice a, Twice b)
    {
        return {a.lo - b.lo, a.hi - b.hi};
    }
    friend Twice operator*(Twice a, Twice b)
    {
        return {a.lo * b.lo, a.hi * b.hi};
    }
    friend Twice operator/(Twice a, Twice b)
    {
        return {a.lo / b.lo, a.hi / b.hi};
    }
    friend Twice operator&(Twice a, Twice b)
    {
        return {a.lo & b.lo, a.hi & b.hi};
    }
    friend Twice operator-(Twice a) { return {-a.lo, -a.hi}; }
    friend auto operator<(Twice a, Twice b)
    {
        return pair(a.lo < b.lo, a.hi < b.hi);
    }
    friend auto operator<=(Twice a, Twice b)
    {
        return pair(a.lo <= b.lo, a.hi <= b.hi);
    }
    friend auto operator>(Twice a, Twice b)
    {
        return pair(a.lo > b.lo, a.hi > b.hi);
    }
    friend auto operator>=(Twice a, Twice b)
    {
        return pair(a.lo >= b.lo, a.hi >= b.hi);
    }
    friend auto operator==(Twice a, Twice b)
    {
        return pair(a.lo == b.lo, a.hi == b.hi);
    }
    friend auto bitsOf(Twice a) { return pair(bitsOf(a.lo), bitsOf(a.hi)); }
    friend auto floatOf(Twice a)
    {
        return pair(floatOf(a.lo), floatOf(a.hi));
    }
    friend auto toFloat(Twice a)
    {
        return pair(toFloat(a.lo), toFloat(a.hi));
    }
    friend auto truncToInt(Twice a)
    {
        return pair(truncToInt(a.lo), truncToInt(a.hi));
    }
    friend Twice shl23(Twice a) { return {shl23(a.lo), shl23(a.hi)}; }
    friend Twice srlv(Twice a, Twice n)
    {
        return {srlv(a.lo, n.lo), srlv(a.hi, n.hi)};
    }
    template <class V>
    friend Twice<V> select(Twice m, Twice<V> a, Twice<V> b)
    {
        return {select(m.lo, a.lo, b.lo), select(m.hi, a.hi, b.hi)};
    }

  private:
    template <class U>
    static Twice<U> pair(U l, U h)
    {
        return {l, h};
    }
};

/**
 * fdlibm's expm1f for the arguments tanhLanes() passes: finite x in
 * [-2, 44]. Omitted, as unreachable there: the non-finite, overflow
 * and x < -27 ln2 filters, and the k == 1 result (k == 1 needs
 * 0.5 ln2 < x < 1.5 ln2, and tanh's positive arguments are >= 2).
 * The k == +-1 reduction is the general one with t = +-1, which is
 * the same arithmetic: t * ln2_hi and t * ln2_lo are exact then.
 */
template <class F>
inline F
expm1Lanes(F x)
{
    const F one = 1.0f;
    const F huge = 1.0e+30f;
    const F ln2_hi = 6.9313812256e-01f; // 0x3f317180
    const F ln2_lo = 9.0580006145e-06f; // 0x3717f7d1
    const F invln2 = 1.4426950216e+00f; // 0x3fb8aa3b
    // Scaled coefficients related to expm1.
    const F Q1 = -3.3333335072e-02f; // 0xbd088889
    const F Q2 = 1.5873016091e-03f;  // 0x3ad00d01
    const F Q3 = -7.9365076090e-05f; // 0xb8a670cd
    const F Q4 = 4.0082177293e-06f;  // 0x36867e54
    const F Q5 = -2.0109921195e-07f; // 0xb457edbb
    using I = decltype(bitsOf(x));

    I hx = bitsOf(x);
    const auto xsb = hx < 0; // sign bit of x
    hx = hx & 0x7fffffff;    // |x|

    // Argument reduction, taken when |x| > 0.5 ln2.
    const I kr = select(hx < 0x3F851592, // |x| < 1.5 ln2
                        select(xsb, I(-1), I(1)),
                        truncToInt(invln2 * x +
                                   select(xsb, F(-0.5f), F(0.5f))));
    const F tk = toFloat(kr);
    const F hi = x - tk * ln2_hi; // t*ln2_hi is exact here
    const F lo = tk * ln2_lo;
    const F xr = hi - lo;
    const F c = (hi - xr) - lo;
    const auto reduced = hx > 0x3eb17218;
    const I k = select(reduced, kr, I(0));
    const F xs = select(reduced, xr, x);

    // xs is now in primary range.
    const F hfx = 0.5f * xs;
    const F hxs = xs * hfx;
    const F r1 =
        one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    const F t = 3.0f - r1 * hfx;
    F e = hxs * ((r1 - t) / (6.0f - xs * t));
    const F y0 = xs - (xs * e - hxs); // k == 0: c is 0
    e = (xs * (e - c) - c);
    e = e - hxs;
    const F ym1 = 0.5f * (xs - e) - 0.5f; // k == -1
    // k <= -2 || k > 56: exp(x)-1 suffices; add k to y's exponent.
    const F yfar = floatOf(bitsOf(one - (e - xs)) + shl23(k)) - one;
    // k < 23: t = 1-2^-k.
    const F tlo = floatOf(I(0x3f800000) - srlv(I(0x1000000), k));
    const F ylo = floatOf(bitsOf(tlo - (e - xs)) + shl23(k));
    // 23 <= k <= 56: t = 2^-k.
    const F thi = floatOf(shl23(I(0x7f) - k));
    const F yhi = floatOf(bitsOf((xs - (e + thi)) + one) + shl23(k));

    F y = select(k < 23, ylo, yhi);
    y = select(k > 56, yfar, y);
    y = select(k <= -2, yfar, y);
    y = select(k == -1, ym1, y);
    y = select(k == 0, y0, y);
    // |x| < 2^-25: return x (with inexact when x != 0).
    const F tt = huge + x;
    return select(hx < 0x33000000, x - (tt - (huge + x)), y);
}

/**
 * fdlibm's tanhf, lane by lane. Lanes whose scalar path returns
 * before calling expm1f (|x| >= 22, Inf, NaN) hand expm1Lanes() an
 * argument clamped to 44 instead and discard what it returns.
 */
template <class F>
inline F
tanhLanes(F x)
{
    const F one = 1.0f, two = 2.0f, tiny = 1.0e-30f;
    using I = decltype(bitsOf(x));

    const I jx = bitsOf(x);
    const I ix = jx & 0x7fffffff;
    const auto positive = jx >= 0;
    const auto nonfinite = ix >= 0x7f800000;
    const auto below22 = ix < 0x41b00000; // |x| < 22
    const auto atleast1 = ix >= 0x3f800000; // |x| >= 1

    // |x| >= 1: t = expm1(2|x|), z = 1 - 2/(t+2);
    // else:     t = expm1(-2|x|), z = -t/(t+2).
    // -2*|x| is -(2*|x|) exactly, and the one division serves both
    // branches and, for Inf and NaN, the scalar code's 1/x.
    const F ax2 = two * floatOf(select(below22, ix, I(0x41b00000)));
    const F t = expm1Lanes(select(atleast1, ax2, -ax2));
    const F q = select(nonfinite, one, select(atleast1, two, -t)) /
                select(nonfinite, x, t + two);
    F z = select(atleast1, one - q, q);
    z = select(below22, z, one - tiny); // |x| >= 22: +-1, inexact
    z = select(positive, z, -z);
    z = select(ix < 0x24000000, x * (one + x), z); // |x| < 2^-55
    z = select(ix == 0, x, z);                     // +-0
    // tanh(+-Inf) = +-1, tanh(NaN) = NaN.
    return select(nonfinite, select(positive, q + one, q - one), z);
}

/** sqrt(2/pi), GELU's tanh-approximation constant. */
constexpr float kGeluAlpha = 0.7978845608f;

/**
 * GELU, tanh approximation as used by PyTorch:
 * 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))), in this operation
 * order (the one every golden output was made with).
 */
template <class F>
inline F
geluLanes(F v)
{
    const F inner = F(kGeluAlpha) * (v + F(0.044715f) * v * v * v);
    return F(0.5f) * v * (F(1.0f) + tanhLanes(inner));
}

/**
 * The body of every SIMD geluF32 kernel: y[i] = geluLanes(x[i]) for i
 * in [0, n), with @p x == @p y allowed. F's lanes run four vectors at
 * a time in lockstep (the chain is latency-bound, and four
 * independent chains roughly halve its cost per element over one),
 * then one vector at a time; the scalar reference geluScalar() takes
 * the last 1 to F::kWidth - 1 elements.
 */
template <class F>
inline void
geluSpan(const float *x, float *y, int64_t n)
{
    using Quad = Twice<Twice<F>>;
    int64_t i = 0;
    for (; i + Quad::kWidth <= n; i += Quad::kWidth)
        geluLanes(Quad::load(x + i)).store(y + i);
    for (; i + F::kWidth <= n; i += F::kWidth)
        geluLanes(F::load(x + i)).store(y + i);
    for (; i < n; ++i)
        y[i] = geluScalar(x[i]);
}

} // namespace lanes
} // namespace vitdyn

#endif // VITDYN_TENSOR_KERNELS_TANH_LANES_HH
