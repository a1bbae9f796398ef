/**
 * @file
 * Measured conv2d execution-plan autotuner.
 *
 * The static Auto heuristic in ops_conv.cc guesses Direct vs Im2col
 * from FLOP and footprint thresholds; this cache instead *measures*
 * the candidate plans for each unique conv shape once per process on
 * synthetic tensors and remembers the fastest — the cudnn-frontend
 * execution-plan pattern, scaled down to two algorithms and a handful
 * of tile/ISA variants. The executor asks for tuned plans at
 * warmupWeights() and keeps one per conv layer, so steady-state frames
 * pay nothing.
 *
 * Determinism: every candidate the tuner enumerates is bit-identical
 * to every other and to the seed scalar kernels. Timing noise can
 * therefore change which plan wins, but never what the convolution
 * computes.
 */

#ifndef VITDYN_TENSOR_KERNELS_CONV_AUTOTUNE_HH
#define VITDYN_TENSOR_KERNELS_CONV_AUTOTUNE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "tensor/ops.hh"

namespace vitdyn
{

/** Autotuner knobs, threaded from DrtEngineOptions to the executor. */
struct ConvAutotuneOptions
{
    /** Master switch; off means warmup installs no plans and conv2d
     *  keeps using the static Auto heuristic. */
    bool enabled = false;

    /** Timed runs per candidate; the minimum is kept. */
    int repeats = 1;

    /** Shapes whose whole-batch conv FLOPs fall below this are not
     *  measured — the heuristic plan is cached directly. Keeps
     *  warmup cost negligible for graphs full of tiny layers. */
    int64_t minMeasureFlops = int64_t{1} << 22;

    /** Shapes at or above this are not measured either: on huge
     *  layers a single candidate timing costs more than the heuristic
     *  could ever misprice (im2col on the active ISA already dominates
     *  there), and executor warmup must stay interactive. */
    int64_t maxMeasureFlops = int64_t{1} << 30;

    /** Process-wide wall-clock cap on candidate timing, shared across
     *  all shapes through the ConvPlanCache. Once spent, later cache
     *  misses fall back to the (always-correct) heuristic plan,
     *  unmeasured. Bounds warmup of arbitrarily deep graphs; raise it
     *  in benches that want every shape measured. */
    double budgetMs = 500.0;
};

/** Identity of a conv layer's shape for plan-cache keying. */
struct Conv2dShapeKey
{
    int64_t n = 0, c = 0, h = 0, w = 0;
    int64_t k = 0, r = 0, s = 0;
    int64_t strideH = 1, strideW = 1, padH = 0, padW = 0, groups = 1;

    static Conv2dShapeKey of(const Shape &input_shape,
                             const Shape &weight_shape,
                             const Conv2dParams &params);

    /** Whole-batch MAC-based FLOP count (2 * MACs). */
    int64_t flops() const;

    bool operator<(const Conv2dShapeKey &o) const;
    bool operator==(const Conv2dShapeKey &o) const;
};

/**
 * Candidate plans for a shape. The static Auto heuristic's plan is
 * always candidate #0 and is measured first, so the winner can never
 * be slower than the heuristic under the tuner's own clock. After it:
 * Direct, but only near the GEMM crossover (on large shapes direct
 * loses by an order of magnitude and a single timed run would eat the
 * whole budget), and — when the shape is im2col-feasible (groups ==
 * 1, sane column footprint) — Im2col crossed with the distinct
 * column-block sizes on the active ISA. Only the active ISA is
 * enumerated: its kernels dominate every lower level pointwise (same
 * arithmetic, wider units), so scalar candidates would spend budget
 * to lose; under VITDYN_ISA=scalar the whole set is scalar plans. Grouped convolutions never yield an
 * Im2col candidate.
 */
std::vector<Conv2dPlan> enumerateConvPlans(const Conv2dShapeKey &key,
                                           const ConvAutotuneOptions &opts);

/**
 * Wall-time one plan on deterministic synthetic tensors of @p key's
 * shape through conv2dPacked, the weight packed before timing as a
 * model's is in its store: one untimed warm run (grows the column
 * scratch), then @p repeats timed runs; returns the minimum in
 * milliseconds.
 */
double measureConvPlan(const Conv2dShapeKey &key, const Conv2dPlan &plan,
                       int repeats);

/**
 * Process-wide shape -> winning-plan cache. Thread-safe; each unique
 * shape is measured at most once per process, so repeated executor
 * warmups (config switches, LRU rebuilds) are pure cache hits.
 */
class ConvPlanCache
{
  public:
    static ConvPlanCache &instance();

    /**
     * The tuned plan for @p key, measuring candidates on first
     * request (autotune.* metrics + a conv.autotune span). Outside
     * the [minMeasureFlops, maxMeasureFlops) window, or once the
     * process-wide budgetMs is spent, the heuristic plan is cached
     * unmeasured.
     */
    Conv2dPlan plan(const Conv2dShapeKey &key,
                    const ConvAutotuneOptions &opts);

    /** Cached unique shapes. */
    size_t size() const;

    /** Total candidate timings performed (the CI smoke asserts this
     *  does not grow across a repeated warmup). */
    uint64_t measurements() const;

    /** Drop all cached plans and counters (tests only). */
    void clear();

  private:
    Conv2dPlan tuneLocked(const Conv2dShapeKey &key,
                          const ConvAutotuneOptions &opts);

    mutable std::mutex mu_;
    std::map<Conv2dShapeKey, Conv2dPlan> plans_;
    uint64_t measurements_ = 0;
    /** Wall-ms spent timing candidates, charged against budgetMs. */
    double spentMs_ = 0.0;
};

} // namespace vitdyn

#endif // VITDYN_TENSOR_KERNELS_CONV_AUTOTUNE_HH
