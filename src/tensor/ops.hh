/**
 * @file
 * Reference implementations of the neural network operators used by the
 * vision transformer models in this library.
 *
 * These are straightforward, correctness-first CPU kernels. They define
 * the semantics against which the analytic FLOP counts and the accelerator
 * mapper are validated; they are not tuned for speed.
 *
 * Layout conventions:
 *  - Feature maps: NCHW.
 *  - Sequences:    (N, L, C) with L = tokens, C = embedding dim.
 *  - Conv weights: (K, C, R, S) = (out channels, in channels, kh, kw).
 *  - Linear weights: (out_features, in_features), y = x W^T + b.
 */

#ifndef VITDYN_TENSOR_OPS_HH
#define VITDYN_TENSOR_OPS_HH

#include <cstdint>
#include <vector>

#include "tensor/kernels/kernels.hh"
#include "tensor/tensor.hh"

namespace vitdyn
{

/** Static parameters of a 2-D convolution. */
struct Conv2dParams
{
    int64_t strideH = 1;
    int64_t strideW = 1;
    int64_t padH = 0;
    int64_t padW = 0;
    /** Channel groups; groups == in channels gives a depthwise conv. */
    int64_t groups = 1;
};

/**
 * Output spatial extent of a convolution along one axis. Floored (not
 * truncated toward zero), so a kernel that does not fit the padded
 * input yields a non-positive extent the callers' `p > 0` asserts
 * catch instead of a silent spurious 1.
 */
int64_t convOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad);

/** Kernel-path selector for conv2d; Auto picks per shape. */
enum class Conv2dAlgo
{
    Auto,   ///< Im2col when groups == 1 and the layer is big enough.
    Direct, ///< The loop-nest reference path.
    Im2col, ///< Column matrix + blocked GEMM (groups == 1; grouped
            ///< requests degrade gracefully to Direct).
};

/**
 * Fully resolved conv2d execution plan: which algorithm, which GEMM
 * column block and which microkernel ISA. Every plan produces
 * bit-identical output to every other plan (and to the seed scalar
 * kernels) at any thread count.
 */
struct Conv2dPlan
{
    Conv2dAlgo algo = Conv2dAlgo::Direct;
    /** GEMM column block; clamped to [1, kMaxGemmTileCols]. */
    int64_t colBlock = 128;
    IsaLevel isa = IsaLevel::Scalar;
};

/**
 * Reusable scratch for conv2d's im2col + blocked-GEMM path: the column
 * matrix and the (R,S,C)-ordered repacked weights. Caching one per
 * layer (as Executor does) amortizes both across frames. All paths
 * produce bit-identical outputs — the repack exists precisely so the
 * GEMM accumulates in the direct path's r -> s -> c order.
 */
struct Conv2dWorkspace
{
    std::vector<float> col;   ///< (R*S*C, P*Q) column matrix.
    std::vector<float> wpack; ///< (K, R*S*C) repacked weights.
    Shape packedFor;          ///< Weight shape wpack was built from.

    /**
     * Tuned execution plan for this layer, installed by the conv
     * autotuner at executor warmup (kernels/conv_autotune.hh). When
     * set, conv2d(..., Conv2dAlgo::Auto, this) runs the plan instead
     * of the static heuristic. Survives invalidate(): weight mutation
     * changes values, not shapes, so the measured choice stays valid.
     */
    bool hasPlan = false;
    Conv2dPlan plan;

    /** Drop the cached packing (required after in-place weight
     *  mutation; the column matrix is rebuilt every call anyway). */
    void invalidate()
    {
        wpack.clear();
        packedFor.clear();
    }
};

/**
 * 2-D convolution.
 * @param input  (N, C, H, W)
 * @param weight (K, C/groups, R, S)
 * @param bias   (K) or empty tensor for no bias.
 */
Tensor conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
              const Conv2dParams &params = {});

/**
 * conv2d with an explicit algorithm and an optional cross-call
 * workspace. Every algorithm returns bit-identical results for any
 * thread count. With a null @p workspace the GEMM path borrows a
 * thread-local fallback workspace (counting conv.workspace_miss)
 * instead of paying a fresh allocation per call. Auto consults the
 * workspace's tuned plan when the autotuner installed one.
 */
Tensor conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
              const Conv2dParams &params, Conv2dAlgo algo,
              Conv2dWorkspace *workspace = nullptr);

/**
 * conv2d executing a fully resolved plan (the autotuner's measurement
 * entry point). An Im2col plan for a grouped conv degrades to Direct.
 */
Tensor conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
              const Conv2dParams &params, const Conv2dPlan &plan,
              Conv2dWorkspace *workspace = nullptr);

/**
 * The static Auto heuristic's plan for this (input, weight, params)
 * shape: Im2col on activeIsa() when the whole-batch GEMM is big
 * enough and the column matrix footprint is sane, Direct otherwise.
 * Exposed so the autotuner can seed its candidate set with it and so
 * tests can probe the decision boundary.
 */
Conv2dPlan conv2dAutoPlan(const Shape &input_shape,
                          const Shape &weight_shape,
                          const Conv2dParams &params = {});

/**
 * Fully connected layer over the last dimension.
 * @param input  (..., in_features)
 * @param weight (out_features, in_features)
 * @param bias   (out_features) or empty.
 *
 * Runs on the shared GEMM driver (tensor/gemm.hh) as
 * Y^T = W X^T + b, memcmp-identical to the scalar loop
 * y[r][o] = b[o] + sum over ascending i of x[r][i] * W[o][i].
 */
Tensor linear(const Tensor &input, const Tensor &weight, const Tensor &bias);

/** linear() on an explicit microkernel set (parity tests, benches). */
Tensor linear(const Tensor &input, const Tensor &weight, const Tensor &bias,
              const Microkernels &mk);

/**
 * Per-head scaled attention scores: q (N, Lq, C), k (N, Lkv, C) ->
 * (N, H, Lq, Lkv) with out[n][h][i][j] = (q_h[i] . k_h[j]) * scale,
 * scale = 1/sqrt(C/H). Each dot starts at zero and accumulates over
 * ascending head channel before the scale multiply, so the shared GEMM
 * driver reproduces the scalar loop bit-for-bit.
 */
Tensor attentionScores(const Tensor &q, const Tensor &k, int64_t num_heads);

/** attentionScores() on an explicit microkernel set. */
Tensor attentionScores(const Tensor &q, const Tensor &k, int64_t num_heads,
                       const Microkernels &mk);

/**
 * Per-head attention context: scores (N, H, Lq, Lkv) (already
 * softmaxed) x v (N, Lkv, C) -> (N, Lq, C), head h writing channels
 * [h*C/H, (h+1)*C/H). Each element starts at zero and accumulates over
 * ascending j, exactly the scalar loop.
 */
Tensor attentionContext(const Tensor &scores, const Tensor &v);

/** attentionContext() on an explicit microkernel set. */
Tensor attentionContext(const Tensor &scores, const Tensor &v,
                        const Microkernels &mk);

/** Matrix product of rank-2 tensors: (m, k) x (k, n) -> (m, n). */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * Batched matrix product: (B, m, k) x (B, k, n) -> (B, m, n).
 * Used for attention score and context computation.
 */
Tensor bmm(const Tensor &a, const Tensor &b);

/** Softmax over the last dimension. */
Tensor softmax(const Tensor &input);

/**
 * Multi-head self-attention over a sequence.
 *
 * Computes softmax(Q K^T / sqrt(d_h)) V per head, where Q comes from
 * @p query (N, Lq, C) and K/V from @p kv (N, Lkv, C). The projections are
 * supplied by the caller; this routine performs the scaled dot-product
 * core only.
 */
Tensor attention(const Tensor &q, const Tensor &k, const Tensor &v,
                 int64_t num_heads);

/** Layer normalization over the last dimension with learned scale/shift. */
Tensor layerNorm(const Tensor &input, const Tensor &gamma,
                 const Tensor &beta, float eps = 1e-5f);

/**
 * Inference-mode batch normalization of an NCHW tensor using running
 * statistics folded into @p gamma / @p beta / @p mean / @p var (each of
 * size C).
 */
Tensor batchNorm(const Tensor &input, const Tensor &gamma,
                 const Tensor &beta, const Tensor &mean, const Tensor &var,
                 float eps = 1e-5f);

/** Elementwise rectified linear unit. */
Tensor relu(const Tensor &input);

/**
 * GELU's cost per element in FLOPs, as the kernels size their shards.
 * The geluF32 kernels run tanh without a libm call, at about 2 ns per
 * element on one AVX-512 core and 4 ns on AVX2 (BM_Gelu), where
 * libm's scalar tanhf took 29 ns and was costed at 32; so a shard
 * carries 65536 elements, and smaller activations run inline.
 */
constexpr int64_t kGeluFlops = 4;

/**
 * Elementwise GELU: geluScalar() (tensor/kernels/kernels.hh) per
 * element, through the active ISA's geluF32 kernel, which is
 * memcmp-identical to it.
 */
Tensor gelu(const Tensor &input);

/** Elementwise sum; shapes must match. */
Tensor add(const Tensor &a, const Tensor &b);

/**
 * In-place variants of the elementwise ops, used by the executor when
 * the pass framework has marked a layer for buffer reuse. Each applies
 * exactly the per-element expression of its out-of-place counterpart,
 * so results are bit-identical — only the output allocation is gone.
 */
void reluInPlace(Tensor &x);
void geluInPlace(Tensor &x);
/** x += other elementwise; @p other may alias @p x. */
void addInPlace(Tensor &x, const Tensor &other);
/** batchNorm overwriting @p x (NCHW). */
void batchNormInPlace(Tensor &x, const Tensor &gamma, const Tensor &beta,
                      const Tensor &mean, const Tensor &var,
                      float eps = 1e-5f);

/** Activation applied by a fused conv epilogue. */
enum class EpilogueAct
{
    None,
    ReLU,
    GELU,
};

/**
 * Fused conv+BN+activation epilogue over an NCHW tensor, in place:
 * per channel c, y = act(y * scale[c] + shift[c]), where scale/shift
 * are batchNorm()'s folded per-channel form (pass nullptr for both to
 * skip the affine step). The per-element arithmetic is exactly
 * batchNorm() followed by relu()/gelu(), so the result is
 * bit-identical to the unfused op sequence at any thread count; the
 * fusion only removes the intermediate tensors and memory passes.
 */
void convEpilogueInPlace(Tensor &x, const float *scale,
                         const float *shift, EpilogueAct act);

/** Bilinear resize of an NCHW tensor to (outH, outW), align_corners=false. */
Tensor interpolateBilinear(const Tensor &input, int64_t out_h,
                           int64_t out_w);

/** interpolateBilinear on an explicit microkernel set (parity tests). */
Tensor interpolateBilinear(const Tensor &input, int64_t out_h,
                           int64_t out_w, const Microkernels &mk);

/** 2x2 (or general) max pooling with stride == kernel. */
Tensor maxPool2d(const Tensor &input, int64_t kernel, int64_t stride,
                 int64_t pad = 0);

/** Global/adaptive average pooling of NCHW to (out_h, out_w). */
Tensor adaptiveAvgPool2d(const Tensor &input, int64_t out_h, int64_t out_w);

/**
 * Concatenate along the channel dimension (dim 1) of NCHW tensors.
 * Sharded over output (n, c) rows, each contiguous run of one input's
 * rows copied with one std::copy.
 */
Tensor concatChannels(const std::vector<const Tensor *> &inputs);

/** Concatenate (N, L_i, C) token sequences along L, as concatChannels. */
Tensor concatTokens(const std::vector<const Tensor *> &inputs);

/**
 * Keep the first @p keep channels: dim 1 of an NCHW tensor, the last
 * dimension of any other layout (tokens). Contiguous row copies,
 * sharded as concatChannels.
 */
Tensor narrowChannels(const Tensor &input, int64_t keep);

/**
 * (N, C, H, W) -> (N, (H/p)*(W/p), C*p*p) non-overlapping p x p patches
 * in row-major grid order, each patch flattened (c, py, px).
 */
Tensor patchify(const Tensor &input, int64_t patch);

/**
 * (N, C, H, W) -> (N, H*W, C) token layout: a blocked transpose per
 * image, sharded over (n, token block).
 */
Tensor nchwToTokens(const Tensor &input);

/**
 * (N, H*W, C) -> (N, C, H, W); H*W must equal the token count. A
 * blocked transpose per image, sharded over (n, channel block).
 */
Tensor tokensToNchw(const Tensor &input, int64_t h, int64_t w);

/**
 * Partition (N, H, W, C)-ordered tokens of an (N, L, C) tensor whose L is
 * h*w into non-overlapping windows of side @p window. Result is
 * (N * numWindows, window*window, C). H and W must be divisible by
 * @p window.
 */
Tensor windowPartition(const Tensor &tokens, int64_t h, int64_t w,
                       int64_t window);

/** Inverse of windowPartition. */
Tensor windowReverse(const Tensor &windows, int64_t h, int64_t w,
                     int64_t window, int64_t batch);

/**
 * Cyclic shift of the spatial grid underlying an (N, L, C) token tensor,
 * by (@p shift_h, @p shift_w) with wraparound (torch.roll semantics).
 */
Tensor cyclicShift(const Tensor &tokens, int64_t h, int64_t w,
                   int64_t shift_h, int64_t shift_w);

} // namespace vitdyn

#endif // VITDYN_TENSOR_OPS_HH
