/**
 * @file
 * Microbenchmarks of the reference tensor kernels — the substrate
 * every executed experiment stands on. These timings bound how large
 * an "executed" configuration the test suite and examples can afford;
 * they are not a statement about deployment performance (the
 * reference kernels are correctness-first).
 */

#include "bench_common.hh"

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "graph/executor.hh"
#include "graph/passes/pass.hh"
#include "graph/weight_store.hh"
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

/** Median-of-3 wall time of @p fn, in milliseconds. */
double
timeMs(const std::function<Tensor()> &fn, Tensor *out = nullptr)
{
    double best = 0.0;
    std::vector<double> runs;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        Tensor y = fn();
        const auto t1 = std::chrono::steady_clock::now();
        runs.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        if (rep == 0 && out)
            *out = std::move(y);
    }
    std::sort(runs.begin(), runs.end());
    best = runs[1];
    return best;
}

/**
 * The before/after table the threading work is judged on: the
 * SegFormer-B2 decoder Conv2DFuse layer (1x1 conv fusing the four
 * upsampled stage embeddings, C = 4*768 = 3072 -> K = 768) timed
 * sequentially, threaded, and through the im2col/GEMM fast path.
 * Outputs are checked bit-identical across all variants.
 */
void
conv2dFuseTable()
{
    const int threads = ThreadPool::instance().threads();
    Rng rng(42);
    Tensor x = Tensor::randn({1, 3072, 16, 16}, rng);
    Tensor w = Tensor::randn({768, 3072, 1, 1}, rng);
    Tensor b = Tensor::randn({768}, rng);
    const Conv2dParams p;
    const double gflop = 2.0 * 768 * 3072 * 16 * 16 / 1e9;

    Tensor ref, y;
    ThreadPool::instance().resize(1);
    const double seq_ms = timeMs(
        [&] { return conv2d(x, w, b, p, Conv2dAlgo::Direct); }, &ref);
    ThreadPool::instance().resize(threads);
    const double par_ms = timeMs(
        [&] { return conv2d(x, w, b, p, Conv2dAlgo::Direct); }, &y);
    const bool par_ok = std::memcmp(ref.data(), y.data(),
                                    sizeof(float) * ref.numel()) == 0;
    Conv2dWorkspace ws;
    const double gemm_cold_ms = timeMs(
        [&] { return conv2d(x, w, b, p, Conv2dAlgo::Im2col, &ws); }, &y);
    const bool gemm_ok = std::memcmp(ref.data(), y.data(),
                                     sizeof(float) * ref.numel()) == 0;
    // Warm workspace: what the Executor sees from frame 2 onward.
    const double gemm_ms = timeMs(
        [&] { return conv2d(x, w, b, p, Conv2dAlgo::Im2col, &ws); });

    auto row = [&](const char *name, int t, double ms, bool exact) {
        return std::vector<std::string>{
            name, std::to_string(t), Table::num(ms, 1),
            Table::num(gflop / (ms / 1e3), 2),
            Table::num(seq_ms / ms, 2), exact ? "yes" : "NO"};
    };
    Table table("SegFormer-B2 Conv2DFuse (1x3072x16x16 -> 768): "
                "threading before/after",
                {"variant", "threads", "ms", "GFLOP/s", "speedup",
                 "bit-identical"});
    table.addRow(row("direct sequential", 1, seq_ms, true));
    table.addRow(row("direct threaded", threads, par_ms, par_ok));
    table.addRow(
        row("im2col cold workspace", threads, gemm_cold_ms, gemm_ok));
    table.addRow(row("im2col warm workspace", threads, gemm_ms, gemm_ok));
    emitTable(table, "bench_ops_conv2dfuse");
}

/**
 * The fused-vs-unfused table the pass framework is judged on: the
 * SegFormer-B2 decoder fuse stage (1x1 conv 3072 -> 768, BatchNorm,
 * ReLU, then the classifier conv) executed as four layers and as one
 * fused conv after PassManager::standardPipeline. Both executors read
 * the same WeightStore, and outputs are checked bit-identical at one
 * thread and at the pool's current width.
 */
void
fusedDecoderConvTable()
{
    auto build = [] {
        Graph g("decoder_conv_chain");
        const int in = g.addInput("input", {1, 3072, 16, 16});
        Layer conv;
        conv.name = "decoder.fuse_conv";
        conv.kind = LayerKind::Conv2d;
        conv.attrs.inChannels = 3072;
        conv.attrs.outChannels = 768;
        conv.inputs = {in};
        Layer bn;
        bn.name = "decoder.fuse_bn";
        bn.kind = LayerKind::BatchNorm;
        bn.attrs.inChannels = 768;
        bn.inputs = {g.addLayer(conv)};
        Layer relu;
        relu.name = "decoder.fuse_relu";
        relu.kind = LayerKind::ReLU;
        relu.inputs = {g.addLayer(bn)};
        Layer head;
        head.name = "decoder.classifier";
        head.kind = LayerKind::Conv2d;
        head.attrs.inChannels = 768;
        head.attrs.outChannels = 150;
        head.inputs = {g.addLayer(relu)};
        g.markOutput(g.addLayer(head));
        return g;
    };

    Graph unfused = build();
    Graph fused = build();
    PassManager pipeline = PassManager::standardPipeline();
    Result<PipelineReport> rewritten = pipeline.run(fused);
    vitdyn_assert(rewritten, "pass pipeline failed: ",
                  rewritten.status().message());

    WeightStore store;
    Executor ex_unfused(unfused, 1, &store);
    Executor ex_fused(fused, 1, &store);
    ex_unfused.warmupWeights();
    ex_fused.warmupWeights();

    Rng rng(42);
    const Tensor x = Tensor::randn({1, 3072, 16, 16}, rng);
    auto frame = [&x](Executor &ex) {
        return [&ex, &x] {
            return ex.run({{"input", x}}).at("decoder.classifier");
        };
    };

    const int threads = ThreadPool::instance().threads();
    Tensor ref, y;
    ThreadPool::instance().resize(1);
    const double unfused_seq_ms = timeMs(frame(ex_unfused), &ref);
    const double fused_seq_ms = timeMs(frame(ex_fused), &y);
    const bool seq_ok = std::memcmp(ref.data(), y.data(),
                                    sizeof(float) * ref.numel()) == 0;
    ThreadPool::instance().resize(threads);
    const double unfused_par_ms = timeMs(frame(ex_unfused), &y);
    const bool unfused_par_ok =
        std::memcmp(ref.data(), y.data(),
                    sizeof(float) * ref.numel()) == 0;
    const double fused_par_ms = timeMs(frame(ex_fused), &y);
    const bool fused_par_ok =
        std::memcmp(ref.data(), y.data(),
                    sizeof(float) * ref.numel()) == 0;

    Table table("SegFormer-B2 decoder conv+BN+ReLU: unfused layers vs "
                "pass-fused epilogue (4 -> 2 layers)",
                {"variant", "threads", "ms/frame", "speedup",
                 "bit-identical"});
    auto row = [](const char *name, int t, double ms, double base,
                  bool exact) {
        return std::vector<std::string>{
            name, std::to_string(t), Table::num(ms, 2),
            Table::num(base / ms, 2), exact ? "yes" : "NO"};
    };
    table.addRow(row("unfused", 1, unfused_seq_ms, unfused_seq_ms, true));
    table.addRow(row("fused", 1, fused_seq_ms, unfused_seq_ms, seq_ok));
    table.addRow(row("unfused", threads, unfused_par_ms,
                     unfused_par_ms, unfused_par_ok));
    table.addRow(row("fused", threads, fused_par_ms, unfused_par_ms,
                     fused_par_ok));
    emitTable(table, "bench_ops_fused_decoder");
}

/**
 * What fusion actually removes, isolated at the kernel level: the
 * unfused executor materializes a fresh tensor for BatchNorm and
 * another for ReLU (two allocations, four memory passes over the conv
 * output); the fused epilogue is one in-place sweep with precomputed
 * per-channel scale/shift. Timed at one thread so the comparison is
 * fusion, not parallelism; shapes are the SegFormer-B2 decoder
 * fuse-conv output at 1/8 scale and the stride-4 scale the decoder
 * upsamples to.
 */
void
epilogueKernelTable()
{
    const int threads = ThreadPool::instance().threads();
    ThreadPool::instance().resize(1);
    Rng rng(7);

    Table table("Conv epilogue: separate BatchNorm+ReLU layers vs "
                "fused in-place sweep (1 thread)",
                {"shape", "unfused ms", "fused ms", "speedup",
                 "bit-identical"});
    for (const Shape &shape :
         {Shape{1, 768, 16, 16}, Shape{1, 768, 128, 128}}) {
        const int64_t c = shape[1];
        Tensor x = Tensor::randn(shape, rng);
        Tensor gamma = Tensor::randn({c}, rng, 1.0f, 0.1f);
        Tensor beta = Tensor::randn({c}, rng, 0.0f, 0.1f);
        Tensor mean = Tensor::randn({c}, rng, 0.0f, 0.1f);
        Tensor var = Tensor::randn({c}, rng, 1.0f, 0.05f);

        // Folded once at warmup by the executor, so off the clock —
        // the same expressions Executor::epilogueFor uses.
        std::vector<float> scale(static_cast<size_t>(c));
        std::vector<float> shift(static_cast<size_t>(c));
        for (int64_t cc = 0; cc < c; ++cc) {
            scale[static_cast<size_t>(cc)] =
                gamma[cc] / std::sqrt(var[cc] + 1e-5f);
            shift[static_cast<size_t>(cc)] =
                beta[cc] - mean[cc] * scale[static_cast<size_t>(cc)];
        }

        const Tensor ref = relu(batchNorm(x, gamma, beta, mean, var));
        Tensor fused_once = x;
        convEpilogueInPlace(fused_once, scale.data(), shift.data(),
                            EpilogueAct::ReLU);
        const bool exact =
            std::memcmp(ref.data(), fused_once.data(),
                        sizeof(float) * ref.numel()) == 0;

        const double unfused_ms = timeMs([&] {
            return relu(batchNorm(x, gamma, beta, mean, var));
        });
        const double fused_ms = timeMs([&] {
            // In place on the conv's own output buffer, as run() does
            // (repeated application only changes values, not cost).
            convEpilogueInPlace(x, scale.data(), shift.data(),
                                EpilogueAct::ReLU);
            return Tensor{};
        });
        table.addRow({shapeToString(shape), Table::num(unfused_ms, 2),
                      Table::num(fused_ms, 2),
                      Table::num(unfused_ms / fused_ms, 2),
                      exact ? "yes" : "NO"});
    }
    ThreadPool::instance().resize(threads);
    emitTable(table, "bench_ops_epilogue");
}

/**
 * The table the SIMD microkernel work is judged on: a conv/linear
 * GEMM sweep comparing the scalar blocked GEMM against the active
 * ISA's exact kernels — bit-identical by contract, checked per row —
 * and, for convs, the static Auto heuristic's plan against the
 * measured autotuned winner. The conv rows are followed by
 * SegFormer-B2 linear and attention shapes run through linear() and
 * attentionScores()/attentionContext() on the same GEMM driver. The
 * last row is the geomean SIMD speedup across the sweep.
 */
void
gemmSweepTable()
{
    struct Case
    {
        const char *name;
        Conv2dShapeKey key;
    };
    auto mk = [](const char *name, int64_t n, int64_t c, int64_t hw,
                 int64_t k, int64_t r, int64_t stride, int64_t pad) {
        Case tc;
        tc.name = name;
        tc.key.n = n;
        tc.key.c = c;
        tc.key.h = tc.key.w = hw;
        tc.key.k = k;
        tc.key.r = tc.key.s = r;
        tc.key.strideH = tc.key.strideW = stride;
        tc.key.padH = tc.key.padW = pad;
        return tc;
    };
    const Case cases[] = {
        mk("stem 7x7/4 3->32 @128", 1, 3, 128, 32, 7, 4, 3),
        mk("enc 3x3 32 @56", 2, 32, 56, 32, 3, 1, 1),
        mk("enc 3x3 64 @28", 1, 64, 28, 64, 3, 1, 1),
        mk("enc 3x3 128 @14", 1, 128, 14, 128, 3, 1, 1),
        mk("fuse 1x1 512->128 @16", 1, 512, 16, 128, 1, 1, 0),
        mk("linear-as-1x1 768x768 @16", 1, 768, 16, 768, 1, 1, 0),
    };

    ConvAutotuneOptions opts;
    opts.enabled = true;
    opts.minMeasureFlops = 0;
    opts.maxMeasureFlops = std::numeric_limits<int64_t>::max();
    opts.budgetMs = 1e9;
    opts.repeats = 3;

    Table table("Conv/linear GEMM sweep: scalar vs " +
                    std::string(isaName(detectBestIsa())) +
                    " exact kernels, heuristic vs autotuned plan",
                {"shape", "GFLOP", "scalar ms", "simd ms", "simd x",
                 "heur ms", "tuned ms", "tuned x", "winner",
                 "bit-identical"});
    double log_speedup = 0.0;
    int rows = 0;
    for (const Case &tc : cases) {
        const Conv2dShapeKey &key = tc.key;
        const Shape xs = {key.n, key.c, key.h, key.w};
        const Shape wsh = {key.k, key.c, key.r, key.s};
        Conv2dParams p;
        p.strideH = key.strideH;
        p.strideW = key.strideW;
        p.padH = key.padH;
        p.padW = key.padW;

        Conv2dPlan scalar_plan;
        scalar_plan.algo = Conv2dAlgo::Im2col;
        scalar_plan.isa = IsaLevel::Scalar;
        Conv2dPlan simd_plan = scalar_plan;
        simd_plan.isa = detectBestIsa();
        const double scalar_ms = measureConvPlan(key, scalar_plan, 3);
        const double simd_ms = measureConvPlan(key, simd_plan, 3);

        const Conv2dPlan heur = conv2dAutoPlan(xs, wsh, p);
        const Conv2dPlan tuned =
            ConvPlanCache::instance().plan(key, opts);
        const double heur_ms = measureConvPlan(key, heur, 3);
        const double tuned_ms = measureConvPlan(key, tuned, 3);

        Rng rng(17);
        Tensor x = Tensor::randn(xs, rng);
        Tensor w = Tensor::randn(wsh, rng);
        Tensor a = conv2d(x, w, Tensor{}, p, scalar_plan);
        Tensor b = conv2d(x, w, Tensor{}, p, simd_plan);
        Tensor c = conv2d(x, w, Tensor{}, p, tuned);
        const bool exact =
            std::memcmp(a.data(), b.data(),
                        sizeof(float) * a.numel()) == 0 &&
            std::memcmp(a.data(), c.data(),
                        sizeof(float) * a.numel()) == 0;

        const double speedup = scalar_ms / simd_ms;
        log_speedup += std::log(speedup);
        ++rows;
        table.addRow({tc.name, Table::num(key.flops() / 1e9, 3),
                      Table::num(scalar_ms, 3), Table::num(simd_ms, 3),
                      Table::num(speedup, 2), Table::num(heur_ms, 3),
                      Table::num(tuned_ms, 3),
                      Table::num(heur_ms / tuned_ms, 2),
                      tuned.algo == Conv2dAlgo::Im2col
                          ? std::string("im2col.") +
                                isaName(tuned.isa) + ".b" +
                                std::to_string(tuned.colBlock)
                          : "direct",
                      exact ? "yes" : "NO"});
    }

    // The transformer matmuls run on the same GEMM driver (no plan to
    // tune): SegFormer-B2 shapes at the benchmark's 96x96 input.
    struct OpCase
    {
        const char *name;
        double flops;
        std::function<Tensor(const Microkernels &)> run;
    };
    Rng rng(19);
    const Tensor x1 = Tensor::randn({1, 576, 64}, rng);
    const Tensor w1 = Tensor::randn({256, 64}, rng);
    const Tensor b1 = Tensor::randn({256}, rng);
    const Tensor x4 = Tensor::randn({1, 9, 512}, rng);
    const Tensor w4 = Tensor::randn({2048, 512}, rng);
    const Tensor b4 = Tensor::randn({2048}, rng);
    const Tensor kv = Tensor::randn({1, 9, 64}, rng);
    const Tensor probs = softmax(attentionScores(x1, kv, 1));
    const OpCase ops[] = {
        {"B2 stage-1 linear 576x64->256", 2.0 * 576 * 64 * 256,
         [&](const Microkernels &mk) { return linear(x1, w1, b1, mk); }},
        {"B2 stage-4 linear 9x512->2048", 2.0 * 9 * 512 * 2048,
         [&](const Microkernels &mk) { return linear(x4, w4, b4, mk); }},
        {"B2 stage-1 attn score 576x9 d64", 2.0 * 576 * 9 * 64,
         [&](const Microkernels &mk) {
             return attentionScores(x1, kv, 1, mk);
         }},
        {"B2 stage-1 attn context 576x64 l9", 2.0 * 576 * 9 * 64,
         [&](const Microkernels &mk) {
             return attentionContext(probs, kv, mk);
         }},
    };
    for (const OpCase &oc : ops) {
        const Microkernels &scalar = kernelsFor(IsaLevel::Scalar);
        const Microkernels &simd = kernelsFor(detectBestIsa());
        Tensor a, b;
        const double scalar_ms = timeMs([&] { return oc.run(scalar); }, &a);
        const double simd_ms = timeMs([&] { return oc.run(simd); }, &b);
        const bool exact = std::memcmp(a.data(), b.data(),
                                       sizeof(float) * a.numel()) == 0;
        const double speedup = scalar_ms / simd_ms;
        log_speedup += std::log(speedup);
        ++rows;
        table.addRow({oc.name, Table::num(oc.flops / 1e9, 3),
                      Table::num(scalar_ms, 3), Table::num(simd_ms, 3),
                      Table::num(speedup, 2), "-", "-", "-", "gemm",
                      exact ? "yes" : "NO"});
    }
    table.addRow({"geomean", "", "", "",
                  Table::num(std::exp(log_speedup / rows), 2), "", "",
                  "", "", ""});
    emitTable(table, "bench_ops_gemm_sweep");
}

void
produceTables()
{
    gemmSweepTable();
    Table note("Reference-kernel microbenchmarks",
               {"See google-benchmark timings below"});
    note.addRow({"conv2d / linear / attention / softmax / layernorm / "
                 "interpolate / int8 variants"});
    note.print();
    conv2dFuseTable();
    epilogueKernelTable();
    fusedDecoderConvTable();
}

void
BM_Conv2d3x3(benchmark::State &state)
{
    const int64_t c = state.range(0);
    Rng rng(1);
    Tensor x = Tensor::randn({1, c, 32, 32}, rng);
    Tensor w = Tensor::randn({c, c, 3, 3}, rng);
    Conv2dParams p;
    p.padH = p.padW = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(conv2d(x, w, Tensor{}, p).numel());
    state.SetItemsProcessed(state.iterations() * 32 * 32 * c * c * 9);
}
BENCHMARK(BM_Conv2d3x3)->Arg(16)->Arg(64);

/**
 * Args: channels, spatial side. The Mix-FFN DWConv shapes of B2 at 96²
 * (256@24² is stage 0, then 512@12², 1280@6², 2048@3²) and of the soak
 * model's stage 0 (32@16²).
 */
void
BM_Conv2dDepthwise(benchmark::State &state)
{
    Rng rng(2);
    const int64_t c = state.range(0);
    const int64_t side = state.range(1);
    Tensor x = Tensor::randn({1, c, side, side}, rng);
    Tensor w = Tensor::randn({c, 1, 3, 3}, rng);
    Conv2dParams p;
    p.padH = p.padW = 1;
    p.groups = c;
    for (auto _ : state)
        benchmark::DoNotOptimize(conv2d(x, w, Tensor{}, p).numel());
}
BENCHMARK(BM_Conv2dDepthwise)
    ->Args({128, 32})
    ->Args({256, 24})
    ->Args({512, 12})
    ->Args({1280, 6})
    ->Args({2048, 3})
    ->Args({32, 16});

/**
 * Args: input channels, output channels, input side, kernel, stride,
 * pad. The soak model's convs too small for the GEMM path, which run
 * the direct loop: the attention reduction convs (sr_conv) of stages
 * 0-2 and the stage-3 patch embed.
 */
void
BM_Conv2dDirect(benchmark::State &state)
{
    Rng rng(9);
    const int64_t c = state.range(0);
    const int64_t k = state.range(1);
    const int64_t side = state.range(2);
    const int64_t kernel = state.range(3);
    Tensor x = Tensor::randn({1, c, side, side}, rng);
    Tensor w = Tensor::randn({k, c, kernel, kernel}, rng);
    Tensor b = Tensor::randn({k}, rng);
    Conv2dParams p;
    p.strideH = p.strideW = state.range(4);
    p.padH = p.padW = state.range(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            conv2d(x, w, b, p, Conv2dAlgo::Direct).numel());
}
BENCHMARK(BM_Conv2dDirect)
    ->Args({8, 8, 16, 8, 8, 0})
    ->Args({16, 16, 8, 4, 4, 0})
    ->Args({24, 24, 4, 2, 2, 0})
    ->Args({24, 32, 4, 3, 2, 1});

void
BM_Conv2dInt8(benchmark::State &state)
{
    Rng rng(3);
    const int64_t c = 64;
    QuantTensor x = quantize(Tensor::randn({1, c, 32, 32}, rng));
    QuantTensor w = quantize(Tensor::randn({c, c, 3, 3}, rng));
    Conv2dParams p;
    p.padH = p.padW = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(conv2dInt8(x, w, Tensor{}, p).numel());
}
BENCHMARK(BM_Conv2dInt8);

void
BM_Linear(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(4);
    Tensor x = Tensor::randn({256, n}, rng);
    Tensor w = Tensor::randn({n, n}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(linear(x, w, Tensor{}).numel());
    state.SetItemsProcessed(state.iterations() * 256 * n * n);
}
BENCHMARK(BM_Linear)->Arg(64)->Arg(256);

void
BM_Attention(benchmark::State &state)
{
    const int64_t l = state.range(0);
    Rng rng(5);
    Tensor q = Tensor::randn({1, l, 64}, rng);
    Tensor k = Tensor::randn({1, l, 64}, rng);
    Tensor v = Tensor::randn({1, l, 64}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(attention(q, k, v, 4).numel());
}
BENCHMARK(BM_Attention)->Arg(64)->Arg(256);

void
BM_Softmax(benchmark::State &state)
{
    Rng rng(6);
    Tensor x = Tensor::randn({512, 512}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(softmax(x).numel());
}
BENCHMARK(BM_Softmax);

void
BM_LayerNorm(benchmark::State &state)
{
    Rng rng(7);
    Tensor x = Tensor::randn({1024, 256}, rng);
    Tensor gamma({256}, 1.0f);
    Tensor beta({256}, 0.0f);
    for (auto _ : state)
        benchmark::DoNotOptimize(layerNorm(x, gamma, beta).numel());
}
BENCHMARK(BM_LayerNorm);

/**
 * Args: channels, input side, output side. B2's FinalUpsample at 96²
 * (150, 24, 96), its decoder upsamples of the stage 1 and 3 maps to
 * 24² (768, 12 and 3, 24), and a soak-model-sized resize (8, 16, 64).
 */
void
BM_Interpolate(benchmark::State &state)
{
    Rng rng(8);
    const int64_t c = state.range(0);
    const int64_t in = state.range(1);
    const int64_t out = state.range(2);
    Tensor x = Tensor::randn({1, c, in, in}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(interpolateBilinear(x, out, out).numel());
}
BENCHMARK(BM_Interpolate)
    ->Args({32, 32, 128})
    ->Args({150, 24, 96})
    ->Args({768, 12, 24})
    ->Args({768, 3, 24})
    ->Args({8, 16, 64});

/** B2 stage-1 Mix-FFN hidden activation: 576 tokens x 256 channels. */
void
BM_Gelu(benchmark::State &state)
{
    Rng rng(10);
    Tensor x = Tensor::randn({1, 576, 256}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(gelu(x).numel());
    state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_Gelu);

/** B2 stage-1 layout change: 576 tokens (24²) x 256 channels. */
void
BM_TokensToNchw(benchmark::State &state)
{
    Rng rng(11);
    Tensor x = Tensor::randn({1, 576, 256}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(tokensToNchw(x, 24, 24).numel());
    state.SetBytesProcessed(state.iterations() * 2 * 4 * x.numel());
}
BENCHMARK(BM_TokensToNchw);

void
BM_NchwToTokens(benchmark::State &state)
{
    Rng rng(12);
    Tensor x = Tensor::randn({1, 256, 24, 24}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(nchwToTokens(x).numel());
    state.SetBytesProcessed(state.iterations() * 2 * 4 * x.numel());
}
BENCHMARK(BM_NchwToTokens);

/** B2 decoder concat: four 768-channel maps at 24². */
void
BM_Concat(benchmark::State &state)
{
    Rng rng(13);
    std::vector<Tensor> parts;
    for (int i = 0; i < 4; ++i)
        parts.push_back(Tensor::randn({1, 768, 24, 24}, rng));
    const std::vector<const Tensor *> ptrs = {&parts[0], &parts[1],
                                              &parts[2], &parts[3]};
    for (auto _ : state)
        benchmark::DoNotOptimize(concatChannels(ptrs).numel());
    state.SetBytesProcessed(state.iterations() * 2 * 4 * 4 * 768 * 576);
}
BENCHMARK(BM_Concat);

void
BM_WindowPartition(benchmark::State &state)
{
    Rng rng(9);
    Tensor tokens = Tensor::randn({1, 56 * 56, 96}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            windowPartition(tokens, 56, 56, 7).numel());
}
BENCHMARK(BM_WindowPartition);

} // namespace
} // namespace vitdyn

VITDYN_BENCH_MAIN(vitdyn::produceTables)
