#include "tensor/kernels/conv_autotune.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <tuple>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace vitdyn
{

namespace
{

/** Deterministic splitmix-style fill in [-1, 1) — the tuner's inputs
 *  must not depend on run order or wall clock. */
void
fillDeterministic(float *data, int64_t n, uint64_t seed)
{
    uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    for (int64_t i = 0; i < n; ++i) {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        data[i] = static_cast<float>(static_cast<int64_t>(x >> 40) %
                                     2000 - 1000) /
                  1000.0f;
    }
}

Conv2dParams
paramsOf(const Conv2dShapeKey &key)
{
    Conv2dParams params;
    params.strideH = key.strideH;
    params.strideW = key.strideW;
    params.padH = key.padH;
    params.padW = key.padW;
    params.groups = key.groups;
    return params;
}

Shape
inputShapeOf(const Conv2dShapeKey &key)
{
    return {key.n, key.c, key.h, key.w};
}

Shape
weightShapeOf(const Conv2dShapeKey &key)
{
    return {key.k, key.c / key.groups, key.r, key.s};
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Conv2dShapeKey
Conv2dShapeKey::of(const Shape &input_shape, const Shape &weight_shape,
                   const Conv2dParams &params)
{
    vitdyn_assert(input_shape.size() == 4 && weight_shape.size() == 4,
                  "Conv2dShapeKey needs NCHW input and KCRS weight");
    Conv2dShapeKey key;
    key.n = input_shape[0];
    key.c = input_shape[1];
    key.h = input_shape[2];
    key.w = input_shape[3];
    key.k = weight_shape[0];
    key.r = weight_shape[2];
    key.s = weight_shape[3];
    key.strideH = params.strideH;
    key.strideW = params.strideW;
    key.padH = params.padH;
    key.padW = params.padW;
    key.groups = params.groups;
    return key;
}

int64_t
Conv2dShapeKey::flops() const
{
    const int64_t p = convOutDim(h, r, strideH, padH);
    const int64_t q = convOutDim(w, s, strideW, padW);
    if (p <= 0 || q <= 0 || groups < 1)
        return 0;
    return 2 * n * k * p * q * r * s * (c / groups);
}

bool
Conv2dShapeKey::operator<(const Conv2dShapeKey &o) const
{
    return std::tie(n, c, h, w, k, r, s, strideH, strideW, padH, padW,
                    groups) < std::tie(o.n, o.c, o.h, o.w, o.k, o.r, o.s,
                                       o.strideH, o.strideW, o.padH,
                                       o.padW, o.groups);
}

bool
Conv2dShapeKey::operator==(const Conv2dShapeKey &o) const
{
    return !(*this < o) && !(o < *this);
}

std::vector<Conv2dPlan>
enumerateConvPlans(const Conv2dShapeKey &key,
                   const ConvAutotuneOptions &opts)
{
    std::vector<Conv2dPlan> plans;
    const auto push = [&plans](const Conv2dPlan &p) {
        for (const Conv2dPlan &q : plans)
            if (q.algo == p.algo && q.colBlock == p.colBlock &&
                q.isa == p.isa)
                return;
        plans.push_back(p);
    };

    // The heuristic's choice is always candidate #0 and measured
    // first: whatever the budget does afterwards, the cached winner is
    // never slower than the static Auto plan under the tuner's clock.
    push(conv2dAutoPlan(inputShapeOf(key), weightShapeOf(key),
                        paramsOf(key)));

    // Direct only competes near the GEMM crossover; far above it one
    // direct timing costs more than tuning could ever recover.
    if (key.flops() <= 8 * opts.minMeasureFlops) {
        Conv2dPlan direct;
        direct.algo = Conv2dAlgo::Direct;
        direct.isa = activeIsa();
        push(direct);
    }

    // Grouped convolutions have no im2col path: never enumerate an
    // infeasible plan. Same column-footprint cap as the heuristic.
    const int64_t p = convOutDim(key.h, key.r, key.strideH, key.padH);
    const int64_t q = convOutDim(key.w, key.s, key.strideW, key.padW);
    constexpr int64_t kMaxColBytes = int64_t{256} << 20;
    if (key.groups != 1 || p <= 0 || q <= 0 ||
        key.c * key.r * key.s * p * q * 4 > kMaxColBytes)
        return plans;

    // Column blocks above P*Q all behave identically; dedupe by the
    // effective block so small layers get a small candidate set. Only
    // the active ISA is enumerated — see the header comment.
    const int64_t pq = p * q;
    constexpr int64_t kTiles[4] = {64, 128, 256, 512};
    std::vector<int64_t> blocks;
    for (int64_t tile : kTiles) {
        const int64_t effective =
            std::min({tile, pq, kMaxGemmTileCols});
        if (std::find(blocks.begin(), blocks.end(), effective) ==
            blocks.end())
            blocks.push_back(effective);
    }

    for (int64_t block : blocks) {
        Conv2dPlan plan;
        plan.algo = Conv2dAlgo::Im2col;
        plan.colBlock = block;
        plan.isa = activeIsa();
        push(plan);
    }
    return plans;
}

double
measureConvPlan(const Conv2dShapeKey &key, const Conv2dPlan &plan,
                int repeats)
{
    Tensor input(inputShapeOf(key));
    Tensor weight(weightShapeOf(key));
    Tensor bias({key.k});
    fillDeterministic(input.data(), input.numel(), 0x1357);
    fillDeterministic(weight.data(), weight.numel(), 0x2468);
    fillDeterministic(bias.data(), bias.numel(), 0x9abc);
    const Conv2dParams params = paramsOf(key);
    // A model's weights are packed once, in the store: time the packed
    // entry, as the executor runs it.
    const Tensor packed = packConvWeight(weight);

    // One untimed run grows the column scratch (and faults in the
    // pages) so every candidate is timed warm.
    conv2dPacked(input, packed, bias, params, plan);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < std::max(1, repeats); ++rep) {
        const double t0 = nowMs();
        conv2dPacked(input, packed, bias, params, plan);
        best = std::min(best, nowMs() - t0);
    }
    return best;
}

ConvPlanCache &
ConvPlanCache::instance()
{
    static ConvPlanCache cache;
    return cache;
}

Conv2dPlan
ConvPlanCache::tuneLocked(const Conv2dShapeKey &key,
                          const ConvAutotuneOptions &opts)
{
    Conv2dPlan plan =
        conv2dAutoPlan(inputShapeOf(key), weightShapeOf(key),
                       paramsOf(key));
    if (opts.enabled && key.flops() >= opts.minMeasureFlops &&
        key.flops() < opts.maxMeasureFlops && spentMs_ < opts.budgetMs) {
        ScopedSpan span(Tracer::instance(), "conv.autotune", "autotune");
        static Counter &measured = MetricsRegistry::instance().counter(
            "autotune.measurements");
        static Counter &budget_skips =
            MetricsRegistry::instance().counter("autotune.budget_skips");
        double best_ms = std::numeric_limits<double>::infinity();
        Conv2dPlan best = plan;
        bool first = true;
        for (const Conv2dPlan &cand : enumerateConvPlans(key, opts)) {
            // Candidate #0 (the heuristic plan) always runs so the
            // winner is never slower than it; later candidates only
            // while budget remains.
            if (!first && spentMs_ >= opts.budgetMs) {
                budget_skips.add();
                continue;
            }
            const double t0 = nowMs();
            const double ms = measureConvPlan(key, cand, opts.repeats);
            spentMs_ += nowMs() - t0;
            ++measurements_;
            measured.add();
            first = false;
            if (ms < best_ms) {
                best_ms = ms;
                best = cand;
            }
        }
        plan = best;
        if (span.active()) {
            span.arg("shape", std::to_string(key.n) + "x" +
                                  std::to_string(key.c) + "x" +
                                  std::to_string(key.h) + "x" +
                                  std::to_string(key.w) + " k" +
                                  std::to_string(key.k) + " r" +
                                  std::to_string(key.r));
            span.arg("winner", best.algo == Conv2dAlgo::Im2col
                                   ? std::string("im2col.") +
                                         isaName(best.isa) + ".b" +
                                         std::to_string(best.colBlock)
                                   : "direct");
            span.arg("ms", std::to_string(best_ms));
        }
    }
    plans_.emplace(key, plan);
    static Gauge &shapes =
        MetricsRegistry::instance().gauge("autotune.shapes");
    shapes.set(static_cast<double>(plans_.size()));
    return plan;
}

Conv2dPlan
ConvPlanCache::plan(const Conv2dShapeKey &key,
                    const ConvAutotuneOptions &opts)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = plans_.find(key); it != plans_.end()) {
        static Counter &hits = MetricsRegistry::instance().counter(
            "autotune.cache_hits");
        hits.add();
        return it->second;
    }
    return tuneLocked(key, opts);
}

size_t
ConvPlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return plans_.size();
}

uint64_t
ConvPlanCache::measurements() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return measurements_;
}

void
ConvPlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    plans_.clear();
    measurements_ = 0;
    spentMs_ = 0.0;
}

} // namespace vitdyn
