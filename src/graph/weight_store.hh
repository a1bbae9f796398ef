/**
 * @file
 * Process-wide store of synthesized model weights — the paper's "same
 * model weights, different execution path" property made literal in
 * memory.
 *
 * Every Executor used to synthesize (and slice) its own private copy
 * of every weight tensor, so each configuration switch that built a
 * new executor paid a full cold-start re-synthesis. The WeightStore
 * hoists synthesis out of the executor: full-size tensors are
 * generated once, keyed by (seed, layer name, kind, full dimensions),
 * and every executor — full or pruned, fp32 or int8 — receives
 * shared, immutable views. An unpruned layer gets the full tensor
 * with zero copying; a pruned layer gets a cached slice shared with
 * every other executor of the same pruned dimensions.
 *
 * The store owns the layout of the GEMM weights. Linear weights are
 * stored packed, as column panels of W^T (tensor/ops.hh
 * packLinearWeight, tensor/gemm.hh packPanels); conv weights in GEMM
 * order, (K, R, S, C/g) (packConvWeight). The He draw keeps the
 * historical order (a Linear one goes straight into panels, 32 [out,
 * in] rows at a time: heInitLinearWeight), and a pruned slice is cut
 * from the packed full weight (sliceLinearWeight, sliceConvWeight),
 * equal to packing the sliced unpacked block. So each entry is one
 * resident copy (a Linear one plus zero padding up to a multiple of 32
 * features, none for SegFormer-B2) that linear() and conv2dPacked()
 * run on as stored, on every execution path. Packing moves floats and
 * rounds nothing, so outputs are unchanged.
 *
 * Contract:
 *  - **Bit-identity.** The synthesis stream (Rng seeding, generation
 *    order, slicing rules) is exactly the one the Executor used
 *    in-line, so outputs are memcmp-identical to an uncached
 *    executor at any thread count.
 *  - **Immutability.** Stored tensors are never mutated; Executor
 *    fault injection copies-on-write into executor-local storage, so
 *    persistent weight damage never leaks across execution paths.
 *  - **Thread safety.** get() may be called concurrently from any
 *    thread. The first caller of a key synthesizes; concurrent
 *    callers of the same key block on a shared future instead of
 *    duplicating the work (TSan-covered).
 *
 * Metrics (process registry): `weights.synth` full-tensor synthesis
 * events, `weights.slice_synth` slice materializations,
 * `weights.cache_hits` / `weights.cache_misses`, the
 * `weights.synth_ms` histogram, and the `weights.bytes_shared`
 * counter (bytes served from cache that a store-less build would have
 * re-synthesized and duplicated).
 */

#ifndef VITDYN_GRAPH_WEIGHT_STORE_HH
#define VITDYN_GRAPH_WEIGHT_STORE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "graph/layer.hh"
#include "tensor/tensor.hh"

namespace vitdyn
{

/**
 * Immutable weight set of one layer, shared across executors. All
 * four pointers are always non-null; tensors a layer kind does not
 * use are empty. `weight`/`bias`/`mean`/`var` follow the Executor's
 * historical meaning (mean/var are BatchNorm running statistics),
 * except that a Linear `weight` is packLinearWeight's panel form,
 * shape (ceil(out / 32), in, 32), and a Conv2d `weight` is
 * packConvWeight's (K, R, S, C/g); unpackLinearWeight and
 * unpackConvWeight give [out, in] and KCRS.
 */
struct SharedLayerWeights
{
    std::shared_ptr<const Tensor> weight;
    std::shared_ptr<const Tensor> bias;
    std::shared_ptr<const Tensor> mean;
    std::shared_ptr<const Tensor> var;
};

/** Shared, deduplicated weight synthesis; see file comment. */
class WeightStore
{
  public:
    WeightStore() = default;
    WeightStore(const WeightStore &) = delete;
    WeightStore &operator=(const WeightStore &) = delete;

    /**
     * The process-wide store every Executor uses by default.
     * Standalone stores (for tests, or to model independent weight
     * sets) can be constructed directly.
     */
    static WeightStore &instance();

    /**
     * Weights for @p layer under @p seed. @p full_out / @p full_in
     * are the unpruned dimensions registered via
     * Executor::setFullDims (0 when unknown); the layer's own dims
     * act as the floor, matching the executor's historical rules.
     * Layer kinds without weights get empty tensors.
     */
    SharedLayerWeights get(uint64_t seed, const Layer &layer,
                           int64_t full_out, int64_t full_in);

    /** Occupancy snapshot (for tests and reports). */
    struct Stats
    {
        size_t fullEntries = 0;  ///< Full-size weight sets resident.
        size_t sliceEntries = 0; ///< Cached pruned slices resident.
        size_t bytes = 0;        ///< Total resident weight bytes.
    };

    Stats stats() const;

    /**
     * Drop every cached entry. Outstanding SharedLayerWeights remain
     * valid (shared ownership); subsequent get() calls re-synthesize.
     * Intended for tests and memory-pressure hooks, not hot paths.
     */
    void clear();

  private:
    /** Everything synthesis depends on, resolved to full dims. */
    struct FullKey
    {
        uint64_t seed = 0;
        int kind = 0;
        std::string name;
        int64_t fullOut = 0;
        int64_t fullIn = 0; ///< Per-group for Conv2d.
        int64_t kernelH = 1;
        int64_t kernelW = 1;
        bool hasBias = false;

        bool operator<(const FullKey &o) const;
    };

    /** FullKey plus the pruned dims actually served. */
    struct SliceKey
    {
        FullKey full;
        int64_t out = 0;
        int64_t in = 0;

        bool operator<(const SliceKey &o) const;
    };

    SharedLayerWeights synthesizeFull(const FullKey &key);

    static size_t weightsBytes(const SharedLayerWeights &w);

    mutable std::mutex mutex_;
    /** Futures so concurrent first callers synthesize exactly once. */
    std::map<FullKey, std::shared_future<SharedLayerWeights>> full_;
    std::map<SliceKey, std::shared_future<SharedLayerWeights>> slices_;
    std::atomic<size_t> bytesResident_{0};
};

} // namespace vitdyn

#endif // VITDYN_GRAPH_WEIGHT_STORE_HH
