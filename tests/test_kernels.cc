/**
 * @file
 * Parity tests for the ISA-dispatched SIMD microkernels
 * (tensor/kernels/) and the measured conv-plan autotuner.
 *
 * The contract under test (kernels.hh file comment): every float
 * kernel is memcmp-identical to the scalar reference for any
 * blocking, any remainder length and any thread count, and so is
 * every conv plan the autotuner can pick; integer kernels are
 * identical unconditionally. When the suite runs under
 * VITDYN_ISA=scalar (the CI matrix's other leg) the comparisons are
 * scalar-vs-scalar and must still hold trivially.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "graph/executor.hh"
#include "obs/metrics.hh"
#include "parity.hh"
#include "tensor/gemm.hh"
#include "tensor/kernels/conv_autotune.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/ops.hh"
#include "tensor/quant.hh"
#include "util/random.hh"
#include "util/threadpool.hh"

namespace vitdyn
{
namespace
{

/** Restore the global pool size when a test returns or fails. */
struct PoolSizeGuard
{
    explicit PoolSizeGuard(int threads)
    {
        ThreadPool::instance().resize(threads);
    }
    ~PoolSizeGuard() { ThreadPool::instance().resize(0); }
};

bool
bitEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * a.numel()) == 0;
}

TEST(Isa, NamesRoundTrip)
{
    IsaLevel isa = IsaLevel::Avx2;
    EXPECT_TRUE(parseIsaName("scalar", &isa));
    EXPECT_EQ(isa, IsaLevel::Scalar);
    EXPECT_STREQ(isaName(IsaLevel::Scalar), "scalar");
    EXPECT_TRUE(parseIsaName("avx2", &isa));
    EXPECT_EQ(isa, IsaLevel::Avx2);
    EXPECT_STREQ(isaName(IsaLevel::Avx2), "avx2");
    EXPECT_TRUE(parseIsaName("avx512", &isa));
    EXPECT_EQ(isa, IsaLevel::Avx512);
    EXPECT_STREQ(isaName(IsaLevel::Avx512), "avx512");
    EXPECT_TRUE(parseIsaName("neon", &isa));
    EXPECT_EQ(isa, IsaLevel::Neon);
    EXPECT_STREQ(isaName(IsaLevel::Neon), "neon");
}

TEST(Isa, NativeAndAutoSelectDetection)
{
    IsaLevel isa = IsaLevel::Scalar;
    EXPECT_TRUE(parseIsaName("native", &isa));
    EXPECT_EQ(isa, detectBestIsa());
    EXPECT_TRUE(parseIsaName("auto", &isa));
    EXPECT_EQ(isa, detectBestIsa());
}

TEST(Isa, UnknownTokenRejectedAndOutUntouched)
{
    IsaLevel isa = IsaLevel::Neon;
    EXPECT_FALSE(parseIsaName("avx1024", &isa));
    EXPECT_EQ(isa, IsaLevel::Neon);
}

TEST(Isa, ScalarAlwaysAvailableAndDetectionConsistent)
{
    EXPECT_TRUE(isaAvailable(IsaLevel::Scalar));
    EXPECT_TRUE(isaAvailable(detectBestIsa()));
    // Unavailable ISAs must still yield a safe (scalar) kernel set.
    for (IsaLevel isa : {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512,
                         IsaLevel::Neon}) {
        const Microkernels &mk = kernelsFor(isa);
        ASSERT_NE(mk.gemmTileExact, nullptr);
        ASSERT_NE(mk.axpyF32, nullptr);
        ASSERT_NE(mk.dotS8, nullptr);
        ASSERT_NE(mk.quantizeF32S8, nullptr);
        ASSERT_NE(mk.dequantizeS8F32, nullptr);
        ASSERT_NE(mk.geluF32, nullptr);
        ASSERT_NE(mk.depthwiseF32, nullptr);
        ASSERT_NE(mk.bilinearF32, nullptr);
        if (!isaAvailable(isa)) {
            EXPECT_EQ(mk.isa, IsaLevel::Scalar);
        }
    }
    EXPECT_EQ(activeKernels().isa, activeIsa());
}

/** Deterministic value mix including negatives and magnitudes. */
float
mixedValue(int64_t i)
{
    const float base =
        static_cast<float>((i * 2654435761u) % 2001) / 1000.0f - 1.0f;
    return base * (1.0f + static_cast<float>(i % 7));
}

TEST(GemmTile, ExactBitIdenticalToScalarAcrossBlockings)
{
    const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);

    // Remainder coverage: jb spans sub-lane, one-lane, lane+tail, the
    // 16/32-column AVX-512 tile and its masked tails, and the max
    // block; kb spans the 4- and 6-row inner blockings and their
    // tails; len spans short runs and the driver's chunk boundary
    // (the tile itself must be exact at any length).
    const int64_t kbs[] = {1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13};
    const int64_t jbs[] = {1,  5,  8,  15, 16, 17, 31, 32,
                           33, 47, 48, 63, 64, 512};
    const int64_t lens[] = {1,  7,  32, 100, kGemmChunkLen - 1,
                            kGemmChunkLen, kGemmChunkLen + 1,
                            2 * kGemmChunkLen + 3};

    for (IsaLevel isa : availableIsas()) {
        const Microkernels &simd = kernelsFor(isa);
        for (int64_t kb : kbs)
            for (int64_t jb : jbs)
                for (int64_t len : lens) {
                    std::vector<float> w(kb * len), col(len * jb);
                    for (size_t i = 0; i < w.size(); ++i)
                        w[i] = mixedValue(i);
                    for (size_t i = 0; i < col.size(); ++i)
                        col[i] = mixedValue(i + 31);

                    // The tile accumulates onto out: start from a
                    // per-row value (a bias) and from +0.0f.
                    std::vector<float> start(kb * jb);
                    for (int64_t i = 0; i < kb; ++i)
                        std::fill_n(start.begin() + i * jb, jb,
                                    mixedValue(i + 77));
                    for (bool zero : {false, true}) {
                        std::vector<float> ref =
                            zero ? std::vector<float>(kb * jb, 0.0f) : start;
                        std::vector<float> out = ref;
                        scalar.gemmTileExact(w.data(), len, col.data(), jb,
                                             ref.data(), jb, kb, jb, len);
                        simd.gemmTileExact(w.data(), len, col.data(), jb,
                                           out.data(), jb, kb, jb, len);
                        EXPECT_TRUE(bitEqual(ref, out))
                            << "isa=" << isaName(isa) << " kb=" << kb
                            << " jb=" << jb << " len=" << len
                            << " zero start=" << zero;
                    }
                }
    }
}

TEST(GemmTile, ExactHonorsLeadingDimensions)
{
    // Strided output/column/weight views (ld > logical width) must
    // leave the gaps untouched and match the scalar reference.
    const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);
    for (IsaLevel isa : availableIsas()) {
        const Microkernels &simd = kernelsFor(isa);
        for (int64_t jb : {19, 47}) {
            const int64_t kb = 7, len = 11;
            const int64_t ldw = len + 3, ldc = jb + 5, ldo = jb + 2;
            std::vector<float> w(kb * ldw), col(len * ldc);
            for (size_t i = 0; i < w.size(); ++i)
                w[i] = mixedValue(i + 5);
            for (size_t i = 0; i < col.size(); ++i)
                col[i] = mixedValue(i + 13);
            std::vector<float> ref(kb * ldo);
            for (size_t i = 0; i < ref.size(); ++i)
                ref[i] = mixedValue(i + 99);
            for (int64_t i = 0; i < kb; ++i)
                for (int64_t j = jb; j < ldo; ++j)
                    ref[i * ldo + j] = 42.0f;
            std::vector<float> out = ref;
            scalar.gemmTileExact(w.data(), ldw, col.data(), ldc, ref.data(),
                                 ldo, kb, jb, len);
            simd.gemmTileExact(w.data(), ldw, col.data(), ldc, out.data(),
                               ldo, kb, jb, len);
            EXPECT_TRUE(bitEqual(ref, out))
                << "isa=" << isaName(isa) << " jb=" << jb;
            // Gap columns beyond jb kept their sentinel.
            for (int64_t i = 0; i < kb; ++i)
                for (int64_t j = jb; j < ldo; ++j)
                    EXPECT_EQ(out[i * ldo + j], 42.0f)
                        << "isa=" << isaName(isa) << " jb=" << jb;
        }
    }
}

TEST(Axpy, BitIdenticalToScalarIncludingSpecials)
{
    const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);
    const Microkernels &simd = kernelsFor(detectBestIsa());
    const int64_t ns[] = {1, 3, 7, 8, 9, 16, 33, 1000};
    for (int64_t n : ns) {
        std::vector<float> x(n), ref(n), out(n);
        for (int64_t i = 0; i < n; ++i) {
            x[i] = mixedValue(i + 7);
            ref[i] = out[i] = mixedValue(i + 23);
        }
        // Specials must round-trip identically (NaN payload aside —
        // mul/add propagate the same canonical NaN on both paths).
        if (n >= 8) {
            x[1] = -0.0f;
            x[2] = std::numeric_limits<float>::infinity();
            x[3] = -std::numeric_limits<float>::infinity();
        }
        for (float a : {0.5f, -2.25f, 0.0f, -0.0f}) {
            std::vector<float> r = ref, o = out;
            scalar.axpyF32(a, x.data(), r.data(), n);
            simd.axpyF32(a, x.data(), o.data(), n);
            EXPECT_TRUE(bitEqual(r, o)) << "n=" << n << " a=" << a;
        }
    }
}

TEST(DepthwiseAxpy, MatchesScalarReferenceOnEveryAxpy)
{
    // depthwiseAxpy is the depthwise entry of ISAs without their own
    // body: the reference's row sweep with each stride-1 span on that
    // ISA's axpyF32. Run it on every available axpy, over strides 1
    // and 2, pads 0-2, widths 1-33, a shared input plane, a -0.0 bias
    // and Inf/NaN taps.
    struct Case
    {
        int64_t h, w, r, s, stride, pad;
    };
    std::vector<Case> cases = {{7, 9, 3, 3, 2, 1}, {5, 6, 5, 3, 1, 2},
                               {2, 3, 7, 7, 1, 3}, {9, 4, 3, 5, 2, 0}};
    for (int64_t w = 1; w <= 33; ++w)
        cases.push_back({3, w, 3, 3, 1, 1});
    const int64_t planes = 3;
    for (const Case &tc : cases) {
        DepthwiseGeom g{tc.h, tc.w, tc.r, tc.s, tc.stride, tc.stride,
                        tc.pad, tc.pad, 0, 0};
        g.p = (g.h + 2 * g.padH - g.r) / g.strideH + 1;
        g.q = (g.w + 2 * g.padW - g.s) / g.strideW + 1;
        std::vector<float> in(planes * g.h * g.w), wk(planes * g.r * g.s);
        for (size_t i = 0; i < in.size(); ++i)
            in[i] = mixedValue(static_cast<int64_t>(i) + 5);
        for (size_t i = 0; i < wk.size(); ++i)
            wk[i] = mixedValue(static_cast<int64_t>(i) + 17);
        wk[0] = std::numeric_limits<float>::infinity();
        wk[wk.size() - 1] = std::numeric_limits<float>::quiet_NaN();
        const std::vector<float> bias = {-0.0f, 0.25f, -1.5f};
        for (int64_t in_stride : {g.h * g.w, int64_t{0}}) {
            for (const float *b : {bias.data(), (const float *)nullptr}) {
                std::vector<float> want(planes * g.p * g.q);
                kernels::depthwiseScalar(g, in.data(), in_stride,
                                         wk.data(), b, want.data(), planes);
                for (IsaLevel isa : availableIsas()) {
                    std::vector<float> got(want.size(), 7.0f);
                    kernels::depthwiseAxpy(g, in.data(), in_stride,
                                           wk.data(), b, got.data(), planes,
                                           kernelsFor(isa).axpyF32);
                    EXPECT_TRUE(bitEqual(want, got))
                        << "isa=" << isaName(isa) << " h=" << tc.h
                        << " w=" << tc.w << " stride=" << tc.stride
                        << " in_stride=" << in_stride
                        << " bias=" << (b != nullptr);
                }
            }
        }
    }
}

TEST(DotS8, ExactAcrossLengthsAndFlushBoundary)
{
    const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);
    const Microkernels &simd = kernelsFor(detectBestIsa());
    // 262144 = 8192 steps * 32 lanes: crosses the int32->int64 flush
    // boundary of the AVX2 kernel; +35 adds a scalar tail.
    const int64_t ns[] = {1, 31, 32, 33, 100, 8192 * 32 + 35};
    for (int64_t n : ns) {
        std::vector<int8_t> a(n), b(n);
        for (int64_t i = 0; i < n; ++i) {
            // Full range incl. -128, worst-case same-sign products.
            a[i] = static_cast<int8_t>((i * 37 + 11) % 256 - 128);
            b[i] = static_cast<int8_t>((i * 73 + 5) % 256 - 128);
        }
        EXPECT_EQ(scalar.dotS8(a.data(), b.data(), n),
                  simd.dotS8(a.data(), b.data(), n))
            << "n=" << n;
    }
    // Saturation worst case: every product is (-128)*(-128).
    {
        const int64_t n = 8192 * 32;
        std::vector<int8_t> a(n, -128), b(n, -128);
        EXPECT_EQ(scalar.dotS8(a.data(), b.data(), n),
                  simd.dotS8(a.data(), b.data(), n));
        EXPECT_EQ(simd.dotS8(a.data(), b.data(), n),
                  int64_t{16384} * n);
    }
}

TEST(Quantize, BitIdenticalToScalarIncludingEdgeCases)
{
    const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);
    const Microkernels &simd = kernelsFor(detectBestIsa());
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> x = {
        0.0f,    -0.0f,  0.5f,    -0.5f,   1.5f,   -1.5f,  2.5f,
        -2.5f,   126.5f, -126.5f, 127.49f, 200.0f, -200.0f, 1e30f,
        -1e30f,  inf,    -inf,    std::nanf(""),   -std::nanf(""),
        0.49999997f,     -0.49999997f,    126.9f, -126.9f, 63.5f,
        -63.5f,  0.25f,  3.49f,   -3.51f,  99.5f,  -99.5f, 11.5f};
    // Pad to exercise both the 8-wide body and the scalar tail.
    for (int64_t i = 0; x.size() < 67; ++i)
        x.push_back(mixedValue(i) * 150.0f);

    for (float inv_scale : {1.0f, 0.37f, 12.75f}) {
        std::vector<int8_t> ref(x.size(), 55), out(x.size(), -55);
        scalar.quantizeF32S8(x.data(), inv_scale, ref.data(),
                             static_cast<int64_t>(x.size()));
        simd.quantizeF32S8(x.data(), inv_scale, out.data(),
                           static_cast<int64_t>(x.size()));
        for (size_t i = 0; i < x.size(); ++i)
            EXPECT_EQ(ref[i], out[i])
                << "x=" << x[i] << " inv_scale=" << inv_scale;
    }
}

TEST(Quantize, ScalarReferenceSemantics)
{
    // Pin the semantics the SIMD kernels emulate: half-away-from-zero
    // rounding, clamp to [-127, 127], NaN -> 127 (std::min(127, NaN)
    // returns its first argument).
    const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> x = {0.5f,  -0.5f, 1.5f, 200.0f, -200.0f,
                                  inf,   -inf,  std::nanf(""), -0.0f};
    std::vector<int8_t> q(x.size());
    scalar.quantizeF32S8(x.data(), 1.0f, q.data(),
                         static_cast<int64_t>(x.size()));
    const int8_t expect[] = {1, -1, 2, 127, -127, 127, -127, 127, 0};
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(q[i], expect[i]) << "x=" << x[i];
}

TEST(Dequantize, BitIdenticalToScalarOverAllInt8Values)
{
    const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);
    const Microkernels &simd = kernelsFor(detectBestIsa());
    std::vector<int8_t> q(256 + 5); // all values + tail remainder
    for (size_t i = 0; i < q.size(); ++i)
        q[i] = static_cast<int8_t>(i % 256 - 128);
    std::vector<float> ref(q.size()), out(q.size());
    scalar.dequantizeS8F32(q.data(), 0.0371f, ref.data(),
                           static_cast<int64_t>(q.size()));
    simd.dequantizeS8F32(q.data(), 0.0371f, out.data(),
                         static_cast<int64_t>(q.size()));
    EXPECT_TRUE(bitEqual(ref, out));
}

// ---------------------------------------------------------------------
// GELU: every ISA's geluF32 must be memcmp-identical to geluScalar(),
// the fdlibm tanhf port of tanh_lanes.hh, on the edges of every branch
// that port takes, on a strided sweep of the 2^32 bit patterns and at
// every tail length; and geluScalar() itself is pinned by a hash.
// (tools/vitdyn_gelu_check sweeps all 2^32 inputs.)
// ---------------------------------------------------------------------

float
fromBits(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

uint32_t
toBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    return bits;
}

/** Largest non-negative bit pattern b in [lo, hi) with below(b), for a
 *  predicate that holds on a prefix of the range (bisection). */
template <typename Pred>
uint32_t
lastBelow(uint32_t lo, uint32_t hi, const Pred &below)
{
    while (hi - lo > 1) {
        const uint32_t mid = lo + (hi - lo) / 2;
        (below(mid) ? lo : hi) = mid;
    }
    return lo;
}

/**
 * GELU inputs for the edge table. tanh's edges are edges of its
 * argument u = sqrt(2/pi) (v + 0.044715 v^3), so each is mapped back
 * to the inputs v around the one whose u is closest below it (u rises
 * with v, and several v can share a u).
 */
std::vector<float>
geluEdgeInputs()
{
    // tanhf's thresholds: |u| = 2^-55, 1 and 22.
    std::vector<uint32_t> edges = {0x24000000, 0x3f800000, 0x41b00000};
    // expm1f's reduction boundaries reachable from tanhf, which passes
    // it -2|u| for |u| < 1: |2u| = 2^-25 (tiny), 0.5 ln2 (k = 0 / -1)
    // and 1.5 ln2 (k = -1 / -2); halving is exact.
    for (uint32_t arg : {0x33000000u, 0x3eb17218u, 0x3F851592u})
        edges.push_back(arg - (1u << 23));
    // ... and 2|u| for |u| >= 1, with k = (int)(invln2 * 2u + 0.5):
    // the first u of k = 23 and of k = 57.
    for (int k : {23, 57})
        edges.push_back(1 + lastBelow(0x3f800000, 0x41b00000,
                                      [k](uint32_t b) {
            return static_cast<int>(1.4426950216f * (2.0f * fromBits(b)) +
                                    0.5f) < k;
        }));

    std::vector<float> v;
    for (uint32_t edge : edges)
        for (uint32_t u = edge - 1; u <= edge + 1; ++u) {
            v.push_back(fromBits(u)); // u itself as a GELU input too
            const uint32_t at = lastBelow(0, 0x7f800000, [u](uint32_t b) {
                const float x = fromBits(b);
                return 0.7978845608f * (x + 0.044715f * x * x * x) <=
                       fromBits(u);
            });
            for (uint32_t b = at - 2; b <= at + 2; ++b)
                v.push_back(fromBits(b));
        }
    // Signs, zeros, denormals, extremes, Inf and NaNs with payloads
    // (quiet and signalling).
    for (uint32_t b :
         {0x00000000u, 0x00000001u, 0x007fffffu, 0x00800000u, 0x7f7fffffu,
          0x7f800000u, 0x7fc00000u, 0x7fc12345u, 0x7f800001u, 0x7fa54321u})
        v.push_back(fromBits(b));
    const size_t positives = v.size();
    for (size_t i = 0; i < positives; ++i)
        v.push_back(fromBits(toBits(v[i]) ^ 0x80000000u));
    return v;
}

/** Every 4099th of the 2^32 bit patterns: about 1.05 million. */
std::vector<float>
geluSweepInputs()
{
    constexpr uint64_t kStride = 4099;
    std::vector<float> v;
    for (uint64_t b = 0; b < (uint64_t(1) << 32); b += kStride)
        v.push_back(fromBits(static_cast<uint32_t>(b)));
    return v;
}

::testing::AssertionResult
geluMatchesReference(IsaLevel isa, const std::vector<float> &x)
{
    const int64_t n = static_cast<int64_t>(x.size());
    std::vector<float> want(x.size()), got(x.size());
    kernelsFor(IsaLevel::Scalar).geluF32(x.data(), want.data(), n);
    kernelsFor(isa).geluF32(x.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i)
        if (toBits(want[i]) != toBits(got[i]))
            return ::testing::AssertionFailure()
                   << isaName(isa) << ": x bits 0x" << std::hex
                   << toBits(x[i]) << " gave 0x" << toBits(got[i])
                   << ", reference 0x" << toBits(want[i]);
    return ::testing::AssertionSuccess();
}

TEST(GeluKernel, EdgeTableMatchesScalarReference)
{
    const std::vector<float> x = geluEdgeInputs();
    for (IsaLevel isa : availableIsas())
        EXPECT_TRUE(geluMatchesReference(isa, x));
}

TEST(GeluKernel, StridedSweepMatchesScalarReference)
{
    const std::vector<float> x = geluSweepInputs();
    for (IsaLevel isa : availableIsas())
        EXPECT_TRUE(geluMatchesReference(isa, x));
}

TEST(GeluKernel, ScalarReferencePinnedByHash)
{
    // FNV-1a over geluScalar()'s output bits on the sweep, made on an
    // x86-64 host where tanhScalar() equals glibc 2.36's tanhf on all
    // 2^32 inputs. Any edit that moves an output bit fails here on
    // every host, whatever its libm. NaNs hash as one value: the NaN
    // an invalid operation makes (GELU(-Inf) = -Inf * 0) is negative
    // on x86 and positive on AArch64.
    const std::vector<float> x = geluSweepInputs();
    uint64_t hash = 0xcbf29ce484222325ull;
    for (float v : x) {
        const float y = geluScalar(v);
        const uint32_t bits = std::isnan(y) ? 0x7fc00000u : toBits(y);
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
    EXPECT_EQ(hash, 0xb137a197e0778805ull) << std::hex << hash;
}

TEST(GeluKernel, SpanLengthsAndMisalignedStartsCoverTails)
{
    // Lengths 0-33 (every tail of 4-, 8- and 16-lane bodies, and two
    // full vectors of the widest) at every start offset mod 16, out of
    // place and in place; floats outside the span stay untouched.
    Rng rng(211);
    std::vector<float> src(64);
    for (float &f : src)
        f = static_cast<float>(rng.normal(0.0, 3.0));
    src[5] = std::numeric_limits<float>::infinity();
    src[9] = std::nanf("3");
    src[12] = -0.0f;
    const float sentinel = fromBits(0x7fbadbadu);
    for (IsaLevel isa : availableIsas()) {
        const Microkernels &mk = kernelsFor(isa);
        for (int64_t offset = 0; offset < 16; ++offset)
            for (int64_t n = 0; n <= 33; ++n) {
                std::vector<float> want(src.size(), sentinel);
                for (int64_t i = 0; i < n; ++i)
                    want[offset + i] = geluScalar(src[offset + i]);
                std::vector<float> out(src.size(), sentinel);
                mk.geluF32(src.data() + offset, out.data() + offset, n);
                EXPECT_TRUE(bitEqual(want, out))
                    << isaName(isa) << " offset " << offset << " n " << n;
                std::vector<float> inplace = src;
                mk.geluF32(inplace.data() + offset, inplace.data() + offset,
                           n);
                for (int64_t i = 0; i < static_cast<int64_t>(src.size());
                     ++i)
                    if (i < offset || i >= offset + n)
                        want[i] = src[i];
                EXPECT_TRUE(bitEqual(want, inplace))
                    << isaName(isa) << " in place, offset " << offset
                    << " n " << n;
            }
    }
}

// ---------------------------------------------------------------------
// Op-level parity: the dispatched SIMD paths inside conv2d / linear /
// matmul / quant must be memcmp-identical to their scalar-contract
// outputs at multiple thread counts.
// ---------------------------------------------------------------------

class OpParityTest : public testing::TestWithParam<int> {};

TEST_P(OpParityTest, ConvPlansBitIdenticalAcrossIsaAndBlocking)
{
    PoolSizeGuard guard(GetParam());
    Rng rng(41);
    Tensor x = Tensor::randn({2, 12, 13, 13}, rng);
    Tensor w = Tensor::randn({16, 12, 3, 3}, rng);
    Tensor b = Tensor::randn({16}, rng);
    Conv2dParams p;
    p.padH = p.padW = 1;

    Tensor direct = conv2d(x, w, b, p, Conv2dAlgo::Direct);
    const Tensor packed = packConvWeight(w);
    for (IsaLevel isa : availableIsas()) {
        for (int64_t block : {1, 33, 64, 128, 512}) {
            Conv2dPlan plan;
            plan.algo = Conv2dAlgo::Im2col;
            plan.colBlock = block;
            plan.isa = isa;
            Tensor y = conv2d(x, w, b, p, plan);
            EXPECT_TRUE(bitEqual(direct, y))
                << "isa=" << isaName(isa) << " block=" << block
                << " threads=" << GetParam();
            EXPECT_TRUE(
                bitEqual(direct, conv2dPacked(x, packed, b, p, plan)))
                << "packed isa=" << isaName(isa) << " block=" << block
                << " threads=" << GetParam();
        }
    }

    // Timing picks the autotuner's winner, so every plan it can pick
    // must compute the same bits.
    ConvAutotuneOptions opts;
    opts.enabled = true;
    const auto plans =
        enumerateConvPlans(Conv2dShapeKey::of(x.shape(), w.shape(), p), opts);
    EXPECT_GT(plans.size(), 2u);
    for (const Conv2dPlan &plan : plans) {
        Tensor y = conv2d(x, w, b, p, plan);
        EXPECT_TRUE(bitEqual(direct, y))
            << "candidate algo=" << static_cast<int>(plan.algo)
            << " isa=" << isaName(plan.isa) << " block=" << plan.colBlock
            << " threads=" << GetParam();
    }

    // Depthwise (grouped): the tuner only offers Direct, which runs the
    // plan ISA's axpy kernel.
    Tensor xd = Tensor::randn({2, 16, 11, 11}, rng);
    Tensor wd = Tensor::randn({16, 1, 3, 3}, rng);
    Tensor bd = Tensor::randn({16}, rng);
    Conv2dParams pd;
    pd.padH = pd.padW = 1;
    pd.groups = 16;
    Conv2dPlan scalar_direct;
    scalar_direct.algo = Conv2dAlgo::Direct;
    scalar_direct.isa = IsaLevel::Scalar;
    Tensor direct_dw = conv2d(xd, wd, bd, pd, scalar_direct);
    const auto dw_plans = enumerateConvPlans(
        Conv2dShapeKey::of(xd.shape(), wd.shape(), pd), opts);
    ASSERT_FALSE(dw_plans.empty());
    const Tensor packed_dw = packConvWeight(wd);
    for (const Conv2dPlan &plan : dw_plans) {
        EXPECT_EQ(plan.algo, Conv2dAlgo::Direct);
        Tensor y = conv2d(xd, wd, bd, pd, plan);
        EXPECT_TRUE(bitEqual(direct_dw, y))
            << "depthwise isa=" << isaName(plan.isa)
            << " threads=" << GetParam();
        EXPECT_TRUE(
            bitEqual(direct_dw, conv2dPacked(xd, packed_dw, bd, pd, plan)))
            << "packed depthwise isa=" << isaName(plan.isa)
            << " threads=" << GetParam();
    }
}

TEST_P(OpParityTest, LinearBitIdenticalToScalarContract)
{
    PoolSizeGuard guard(GetParam());
    Rng rng(47);
    // A batched (N, L, C) input on the shared GEMM driver.
    Tensor x = Tensor::randn({3, 5, 24}, rng);
    Tensor w = Tensor::randn({17, 24}, rng);
    Tensor b = Tensor::randn({17}, rng);
    Tensor y = linear(x, w, b);

    // Scalar contract: y[r][o] = b[o] + sum over ascending i of
    // x[r][i] * w[o][i], mul and add rounded separately.
    ASSERT_EQ(y.shape(), (Shape{3, 5, 17}));
    const int64_t rows = 15, in_f = 24, out_f = 17;
    std::vector<float> ref(rows * out_f);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t o = 0; o < out_f; ++o) {
            float acc = b[o];
            for (int64_t i = 0; i < in_f; ++i)
                acc += x[r * in_f + i] * w[o * in_f + i];
            ref[r * out_f + o] = acc;
        }
    EXPECT_EQ(std::memcmp(ref.data(), y.data(),
                          sizeof(float) * ref.size()),
              0);
}

TEST_P(OpParityTest, MatmulBmmBitIdenticalToScalarContract)
{
    PoolSizeGuard guard(GetParam());
    Rng rng(53);
    Tensor a = Tensor::randn({9, 11}, rng);
    Tensor c = Tensor::randn({11, 21}, rng);
    // Zeros in A exercise the preserved skip path.
    for (int64_t i = 0; i < a.numel(); i += 5)
        a[i] = 0.0f;
    a[3] = -0.0f;
    Tensor y = matmul(a, c);
    std::vector<float> ref(9 * 21, 0.0f);
    for (int64_t i = 0; i < 9; ++i)
        for (int64_t l = 0; l < 11; ++l) {
            const float av = a[i * 11 + l];
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < 21; ++j)
                ref[i * 21 + j] += av * c[l * 21 + j];
        }
    EXPECT_EQ(std::memcmp(ref.data(), y.data(),
                          sizeof(float) * ref.size()),
              0);

    Tensor ab = Tensor::randn({2, 6, 7}, rng);
    Tensor cb = Tensor::randn({2, 7, 9}, rng);
    Tensor yb = bmm(ab, cb);
    std::vector<float> refb(2 * 6 * 9, 0.0f);
    for (int64_t n = 0; n < 2; ++n)
        for (int64_t i = 0; i < 6; ++i)
            for (int64_t l = 0; l < 7; ++l) {
                const float av = ab[(n * 6 + i) * 7 + l];
                if (av == 0.0f)
                    continue;
                for (int64_t j = 0; j < 9; ++j)
                    refb[(n * 6 + i) * 9 + j] +=
                        av * cb[(n * 7 + l) * 9 + j];
            }
    EXPECT_EQ(std::memcmp(refb.data(), yb.data(),
                          sizeof(float) * refb.size()),
              0);
}

TEST_P(OpParityTest, QuantOpsMatchElementwiseReference)
{
    PoolSizeGuard guard(GetParam());
    Rng rng(59);
    Tensor x = Tensor::randn({3, 1000}, rng);
    QuantTensor q = quantize(x);
    const float inv = 1.0f / q.scale;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float v = std::round(x[i] * inv);
        const auto expect = static_cast<int8_t>(
            std::max(-127.0f, std::min(127.0f, v)));
        ASSERT_EQ(q.data[i], expect) << "i=" << i;
    }
    Tensor back = dequantize(q);
    for (int64_t i = 0; i < x.numel(); ++i)
        ASSERT_EQ(back[i], static_cast<float>(q.data[i]) * q.scale);
}

INSTANTIATE_TEST_SUITE_P(Threads, OpParityTest, testing::Values(1, 4));

TEST(QuantConvKernels, Int8GemmPathMatchesDirectExactly)
{
    // Force the int8 im2col GEMM path (flops over threshold) and pit
    // it against the direct path on a smaller clone of the same
    // problem; both integer-accumulate, so equal inputs give equal
    // int64 sums and a bitwise-equal float epilogue.
    PoolSizeGuard guard(4);
    Rng rng(61);
    Tensor x = Tensor::randn({2, 8, 14, 14}, rng);
    Tensor w = Tensor::randn({16, 8, 3, 3}, rng, 0.0f, 0.2f);
    Tensor b = Tensor::randn({16}, rng, 0.0f, 0.05f);
    Conv2dParams p;
    p.padH = p.padW = 1;
    QuantTensor qx = quantize(x);
    QuantTensor qw = quantize(w);
    Tensor seq, par;
    {
        PoolSizeGuard g1(1);
        seq = conv2dInt8(qx, qw, b, p);
    }
    par = conv2dInt8(qx, qw, b, p);
    EXPECT_TRUE(bitEqual(seq, par));

    // Grouped int8 stays on the direct path and matches the fp32
    // grouped conv within quantization error.
    Conv2dParams gp;
    gp.groups = 2;
    gp.padH = gp.padW = 1;
    Tensor wg = Tensor::randn({16, 4, 3, 3}, rng, 0.0f, 0.2f);
    Tensor refg = conv2d(dequantize(qx), dequantize(quantize(wg)),
                         Tensor{}, gp);
    Tensor qyg = conv2dInt8(qx, quantize(wg), Tensor{}, gp);
    EXPECT_LT(meanAbsError(refg, qyg), 1e-4);
}

// ---------------------------------------------------------------------
// Conv dispatch bugfixes.
// ---------------------------------------------------------------------

TEST(ConvDispatch, GroupedIm2colRequestDegradesToDirect)
{
    // Bugfix: an explicit Conv2dAlgo::Im2col with groups > 1 used to
    // hard-abort through vitdyn_assert. It must now fall back to the
    // direct path, count the fallback, and return the exact direct
    // result.
    Rng rng(67);
    Tensor x = Tensor::randn({1, 6, 9, 9}, rng);
    Tensor w = Tensor::randn({9, 2, 3, 3}, rng);
    Conv2dParams p;
    p.groups = 3;
    p.padH = p.padW = 1;
    Counter &fallbacks = MetricsRegistry::instance().counter(
        "conv.im2col_grouped_fallback");
    const uint64_t before = fallbacks.value();
    Tensor direct = conv2d(x, w, Tensor{}, p, Conv2dAlgo::Direct);
    Tensor gemm = conv2d(x, w, Tensor{}, p, Conv2dAlgo::Im2col);
    EXPECT_TRUE(bitEqual(direct, gemm));
    EXPECT_GT(fallbacks.value(), before);
}

TEST(ConvDispatch, AutotunerNeverEnumeratesGroupedIm2col)
{
    Conv2dShapeKey key;
    key.n = 2;
    key.c = 32;
    key.h = key.w = 28;
    key.k = 32;
    key.r = key.s = 3;
    key.padH = key.padW = 1;
    key.groups = 4;
    ConvAutotuneOptions opts;
    opts.enabled = true;
    for (const Conv2dPlan &plan : enumerateConvPlans(key, opts))
        EXPECT_NE(plan.algo, Conv2dAlgo::Im2col);
    // The ungrouped twin does get Im2col candidates.
    key.groups = 1;
    bool has_im2col = false;
    for (const Conv2dPlan &plan : enumerateConvPlans(key, opts))
        has_im2col |= plan.algo == Conv2dAlgo::Im2col;
    EXPECT_TRUE(has_im2col);
}

TEST(ConvDispatch, NullWorkspaceUsesThreadLocalFallback)
{
    // Consecutive im2col calls on one thread share its column scratch
    // and must stay correct when they use *different* weight tensors
    // of the same shape: nothing of the first weight may survive into
    // the second result.
    Rng rng(71);
    Tensor x = Tensor::randn({1, 16, 12, 12}, rng);
    Tensor w1 = Tensor::randn({24, 16, 3, 3}, rng);
    Tensor w2 = Tensor::randn({24, 16, 3, 3}, rng);
    Conv2dParams p;
    p.padH = p.padW = 1;

    Tensor ref1 = conv2d(x, w1, Tensor{}, p, Conv2dAlgo::Direct);
    Tensor ref2 = conv2d(x, w2, Tensor{}, p, Conv2dAlgo::Direct);
    Tensor y1 = conv2d(x, w1, Tensor{}, p, Conv2dAlgo::Im2col);
    Tensor y2 = conv2d(x, w2, Tensor{}, p, Conv2dAlgo::Im2col);
    Tensor y1b = conv2d(x, w1, Tensor{}, p, Conv2dAlgo::Im2col);
    EXPECT_TRUE(bitEqual(ref1, y1));
    EXPECT_TRUE(bitEqual(ref2, y2)) << "stale packed weights reused";
    EXPECT_TRUE(bitEqual(ref1, y1b));
}

TEST(ConvDispatch, AutoFoldsBatchIntoGemmThreshold)
{
    // Bugfix: the Auto heuristic ignored batch size. Per-image work
    // here is ~36.9 kFLOPs (< 64 kFLOP threshold), so n=1 stays
    // Direct while n=2 crosses into Im2col.
    Conv2dParams p;
    p.padH = p.padW = 1;
    Conv2dPlan one = conv2dAutoPlan({1, 4, 8, 8}, {8, 4, 3, 3}, p);
    EXPECT_EQ(one.algo, Conv2dAlgo::Direct);
    Conv2dPlan two = conv2dAutoPlan({2, 4, 8, 8}, {8, 4, 3, 3}, p);
    EXPECT_EQ(two.algo, Conv2dAlgo::Im2col);

    // Whatever side of the threshold a shape lands on, the three
    // dispatch modes agree bitwise.
    Rng rng(73);
    for (int64_t n : {1, 2, 4}) {
        Tensor x = Tensor::randn({n, 4, 8, 8}, rng);
        Tensor w = Tensor::randn({8, 4, 3, 3}, rng);
        Tensor b = Tensor::randn({8}, rng);
        Tensor autod = conv2d(x, w, b, p, Conv2dAlgo::Auto);
        Tensor direct = conv2d(x, w, b, p, Conv2dAlgo::Direct);
        Tensor gemm = conv2d(x, w, b, p, Conv2dAlgo::Im2col);
        EXPECT_TRUE(bitEqual(autod, direct)) << "n=" << n;
        EXPECT_TRUE(bitEqual(autod, gemm)) << "n=" << n;
    }
}

// ---------------------------------------------------------------------
// Autotuner.
// ---------------------------------------------------------------------

/** Small key that is cheap to measure. */
Conv2dShapeKey
tinyKey(int64_t c = 8, int64_t k = 8)
{
    Conv2dShapeKey key;
    key.n = 1;
    key.c = c;
    key.h = key.w = 10;
    key.k = k;
    key.r = key.s = 3;
    key.padH = key.padW = 1;
    return key;
}

TEST(Autotune, HeuristicPlanIsFirstCandidate)
{
    const Conv2dShapeKey key = tinyKey();
    ConvAutotuneOptions opts;
    opts.enabled = true;
    const auto plans = enumerateConvPlans(key, opts);
    ASSERT_FALSE(plans.empty());
    const Conv2dPlan heuristic = conv2dAutoPlan(
        {key.n, key.c, key.h, key.w}, {key.k, key.c, key.r, key.s},
        Conv2dParams{1, 1, key.padH, key.padW, 1});
    EXPECT_EQ(plans[0].algo, heuristic.algo);
    EXPECT_EQ(plans[0].colBlock, heuristic.colBlock);
    EXPECT_EQ(plans[0].isa, heuristic.isa);
    // Candidates are unique.
    for (size_t i = 0; i < plans.size(); ++i)
        for (size_t j = i + 1; j < plans.size(); ++j)
            EXPECT_FALSE(plans[i].algo == plans[j].algo &&
                         plans[i].colBlock == plans[j].colBlock &&
                         plans[i].isa == plans[j].isa);
}

TEST(Autotune, CacheMeasuresEachShapeOnce)
{
    ConvPlanCache &cache = ConvPlanCache::instance();
    cache.clear();
    ConvAutotuneOptions opts;
    opts.enabled = true;
    opts.minMeasureFlops = 0; // measure even the tiny key
    opts.budgetMs = 1e9;
    const Conv2dShapeKey key = tinyKey();
    cache.plan(key, opts);
    const uint64_t after_first = cache.measurements();
    EXPECT_GT(after_first, 0u);
    EXPECT_EQ(cache.size(), 1u);
    // Second warmup of the same shape: pure cache hit, zero new
    // measurements (the CI smoke asserts the same property).
    for (int i = 0; i < 3; ++i)
        cache.plan(key, opts);
    EXPECT_EQ(cache.measurements(), after_first);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
}

TEST(Autotune, DisabledAndOutOfWindowShapesAreNotMeasured)
{
    ConvPlanCache &cache = ConvPlanCache::instance();
    cache.clear();
    ConvAutotuneOptions off;
    off.enabled = false;
    cache.plan(tinyKey(), off);
    EXPECT_EQ(cache.measurements(), 0u);

    ConvAutotuneOptions on;
    on.enabled = true; // default window: tiny key is below min
    cache.plan(tinyKey(16, 16), on);
    EXPECT_EQ(cache.measurements(), 0u);

    // Zero budget: the miss falls back to the heuristic unmeasured.
    ConvAutotuneOptions broke;
    broke.enabled = true;
    broke.minMeasureFlops = 0;
    broke.budgetMs = 0.0;
    cache.plan(tinyKey(4, 4), broke);
    EXPECT_EQ(cache.measurements(), 0u);
    EXPECT_EQ(cache.size(), 3u);
    cache.clear();
}

TEST(Autotune, TunedPlanNeverChangesExecutorOutput)
{
    // Every autotuned plan is exact, so a tuned executor must
    // be bit-identical to an untuned one regardless of which plan won.
    Graph g("tuned");
    int in = g.addInput("x", {1, 8, 16, 16});
    Layer conv;
    conv.name = "conv1";
    conv.kind = LayerKind::Conv2d;
    conv.attrs.inChannels = 8;
    conv.attrs.outChannels = 16;
    conv.attrs.kernelH = conv.attrs.kernelW = 3;
    conv.attrs.padH = conv.attrs.padW = 1;
    conv.inputs = {in};
    g.addOutput(std::move(conv));

    Rng rng(79);
    Tensor x = Tensor::randn({1, 8, 16, 16}, rng);

    Executor plain(g, 11);
    plain.warmupWeights();
    Tensor ref = plain.runSimple(x);

    ConvPlanCache::instance().clear();
    Executor tuned(g, 11);
    ConvAutotuneOptions opts;
    opts.enabled = true;
    opts.minMeasureFlops = 0;
    opts.budgetMs = 1e9;
    tuned.setConvAutotune(opts);
    tuned.warmupWeights();
    EXPECT_GT(ConvPlanCache::instance().measurements(), 0u);
    Tensor out = tuned.runSimple(x);
    EXPECT_TRUE(bitEqual(ref, out));

    // A second warmup re-installs plans from the cache without
    // re-measuring.
    const uint64_t measured = ConvPlanCache::instance().measurements();
    Executor again(g, 11);
    again.setConvAutotune(opts);
    again.warmupWeights();
    EXPECT_EQ(ConvPlanCache::instance().measurements(), measured);
    ConvPlanCache::instance().clear();
}

} // namespace
} // namespace vitdyn
