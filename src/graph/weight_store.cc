#include "graph/weight_store.hh"

#include <chrono>
#include <tuple>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "tensor/ops.hh"
#include "util/random.hh"

namespace vitdyn
{

namespace
{

/** FNV-1a hash of a string, for stable per-layer weight seeds. */
uint64_t
hashName(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Slice the first @p n entries of a rank-1 tensor. */
Tensor
sliceVector(const Tensor &full, int64_t n)
{
    Tensor out({n});
    for (int64_t i = 0; i < n; ++i)
        out[i] = full[i];
    return out;
}

/** The shared empty tensor non-weight slots point at. */
const std::shared_ptr<const Tensor> &
emptyTensor()
{
    static const std::shared_ptr<const Tensor> empty =
        std::make_shared<const Tensor>();
    return empty;
}

std::shared_ptr<const Tensor>
share(Tensor t)
{
    return std::make_shared<const Tensor>(std::move(t));
}

} // namespace

bool
WeightStore::FullKey::operator<(const FullKey &o) const
{
    return std::tie(seed, kind, name, fullOut, fullIn, kernelH, kernelW,
                    hasBias) < std::tie(o.seed, o.kind, o.name, o.fullOut,
                                        o.fullIn, o.kernelH, o.kernelW,
                                        o.hasBias);
}

bool
WeightStore::SliceKey::operator<(const SliceKey &o) const
{
    if (full < o.full)
        return true;
    if (o.full < full)
        return false;
    return std::tie(out, in) < std::tie(o.out, o.in);
}

WeightStore &
WeightStore::instance()
{
    static WeightStore store;
    return store;
}

size_t
WeightStore::weightsBytes(const SharedLayerWeights &w)
{
    const int64_t numel = w.weight->numel() + w.bias->numel() +
                          w.mean->numel() + w.var->numel();
    return static_cast<size_t>(numel) * sizeof(float);
}

SharedLayerWeights
WeightStore::synthesizeFull(const FullKey &key)
{
    // The exact stream the Executor historically generated inline:
    // one Rng per layer seeded from (seed ^ FNV(name)), full-size
    // weight first, then bias (then BatchNorm statistics), so cached
    // and uncached executors are bit-identical.
    Rng rng(key.seed ^ hashName(key.name));
    SharedLayerWeights lw;
    lw.weight = lw.bias = lw.mean = lw.var = emptyTensor();

    switch (static_cast<LayerKind>(key.kind)) {
      case LayerKind::Conv2d: {
        lw.weight = share(packConvWeight(Tensor::heInit(
            {key.fullOut, key.fullIn, key.kernelH, key.kernelW}, rng,
            key.fullIn * key.kernelH * key.kernelW)));
        if (key.hasBias)
            lw.bias =
                share(Tensor::randn({key.fullOut}, rng, 0.0f, 0.01f));
        break;
      }
      case LayerKind::Linear: {
        lw.weight =
            share(heInitLinearWeight(key.fullOut, key.fullIn, rng));
        if (key.hasBias)
            lw.bias =
                share(Tensor::randn({key.fullOut}, rng, 0.0f, 0.01f));
        break;
      }
      case LayerKind::LayerNorm: {
        lw.weight =
            share(Tensor::randn({key.fullIn}, rng, 1.0f, 0.02f));
        lw.bias = share(Tensor::randn({key.fullIn}, rng, 0.0f, 0.02f));
        break;
      }
      case LayerKind::BatchNorm: {
        lw.weight =
            share(Tensor::randn({key.fullIn}, rng, 1.0f, 0.02f));
        lw.bias = share(Tensor::randn({key.fullIn}, rng, 0.0f, 0.02f));
        lw.mean = share(Tensor::randn({key.fullIn}, rng, 0.0f, 0.1f));
        Tensor v = Tensor::randn({key.fullIn}, rng, 1.0f, 0.05f);
        for (int64_t i = 0; i < v.numel(); ++i)
            v[i] = std::max(0.1f, v[i]);
        lw.var = share(std::move(v));
        break;
      }
      default:
        break;
    }
    return lw;
}

SharedLayerWeights
WeightStore::get(uint64_t seed, const Layer &layer, int64_t full_out,
                 int64_t full_in)
{
    const LayerAttrs &a = layer.attrs;

    FullKey key;
    key.seed = seed;
    key.kind = static_cast<int>(layer.kind);
    key.name = layer.name;

    int64_t out = 0; // pruned dims actually served
    int64_t in = 0;
    switch (layer.kind) {
      case LayerKind::Conv2d: {
        const int64_t cg = a.inChannels / a.groups;
        key.fullOut = std::max(full_out, a.outChannels);
        key.fullIn = std::max(full_in / a.groups, cg);
        key.kernelH = a.kernelH;
        key.kernelW = a.kernelW;
        key.hasBias = a.hasBias;
        out = a.outChannels;
        in = cg;
        break;
      }
      case LayerKind::Linear:
        key.fullOut = std::max(full_out, a.outFeatures);
        key.fullIn = std::max(full_in, a.inFeatures);
        key.hasBias = a.hasBias;
        out = a.outFeatures;
        in = a.inFeatures;
        break;
      case LayerKind::LayerNorm:
        key.fullIn = std::max(full_in, a.inFeatures);
        in = a.inFeatures;
        break;
      case LayerKind::BatchNorm:
        key.fullIn = std::max(full_in, a.inChannels);
        in = a.inChannels;
        break;
      default: {
        SharedLayerWeights none;
        none.weight = none.bias = none.mean = none.var = emptyTensor();
        return none;
      }
    }

    // References cached once: registration locks, increments do not.
    static Counter &synths =
        MetricsRegistry::instance().counter("weights.synth");
    static Counter &slice_synths =
        MetricsRegistry::instance().counter("weights.slice_synth");
    static Counter &hits =
        MetricsRegistry::instance().counter("weights.cache_hits");
    static Counter &misses =
        MetricsRegistry::instance().counter("weights.cache_misses");
    static Counter &bytes_shared =
        MetricsRegistry::instance().counter("weights.bytes_shared");
    static Histogram &synth_ms =
        MetricsRegistry::instance().histogram("weights.synth_ms");
    static Gauge &bytes_resident =
        MetricsRegistry::instance().gauge("weights.bytes_resident");

    // Full-size entry: the first caller of a key synthesizes while
    // concurrent callers wait on the shared future — one synthesis
    // per key, ever.
    std::shared_future<SharedLayerWeights> full_future;
    std::promise<SharedLayerWeights> full_promise;
    bool full_builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = full_.find(key);
        if (it == full_.end()) {
            full_builder = true;
            full_future = full_promise.get_future().share();
            full_.emplace(key, full_future);
        } else {
            full_future = it->second;
        }
    }
    if (full_builder) {
        misses.add();
        const auto t0 = std::chrono::steady_clock::now();
        ScopedSpan span(Tracer::instance(), "weights.synth", "weights");
        span.arg("layer", key.name);
        SharedLayerWeights built = synthesizeFull(key);
        synth_ms.observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
        synths.add();
        bytes_resident.set(static_cast<double>(
            bytesResident_.fetch_add(weightsBytes(built)) +
            weightsBytes(built)));
        full_promise.set_value(built);
    }
    const SharedLayerWeights &full = full_future.get();
    if (!full_builder) {
        hits.add();
        bytes_shared.add(weightsBytes(full));
    }

    // Unpruned dims: serve the full tensors themselves — zero copy.
    const bool needs_slice =
        (key.fullOut != 0 && out != key.fullOut) || in != key.fullIn;
    if (!needs_slice)
        return full;

    SliceKey skey;
    skey.full = key;
    skey.out = out;
    skey.in = in;

    std::shared_future<SharedLayerWeights> slice_future;
    std::promise<SharedLayerWeights> slice_promise;
    bool slice_builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = slices_.find(skey);
        if (it == slices_.end()) {
            slice_builder = true;
            slice_future = slice_promise.get_future().share();
            slices_.emplace(skey, slice_future);
        } else {
            slice_future = it->second;
        }
    }
    if (slice_builder) {
        SharedLayerWeights sliced;
        sliced.weight = sliced.bias = sliced.mean = sliced.var =
            emptyTensor();
        switch (layer.kind) {
          case LayerKind::Conv2d:
          case LayerKind::Linear:
            sliced.weight =
                out == key.fullOut && in == key.fullIn ? full.weight
                : layer.kind == LayerKind::Conv2d
                    ? share(sliceConvWeight(*full.weight, out, in))
                    : share(sliceLinearWeight(*full.weight, out, in));
            if (full.bias->numel() > 0)
                sliced.bias = out == key.fullOut
                                  ? full.bias
                                  : share(sliceVector(*full.bias, out));
            break;
          case LayerKind::LayerNorm:
            sliced.weight = share(sliceVector(*full.weight, in));
            sliced.bias = share(sliceVector(*full.bias, in));
            break;
          case LayerKind::BatchNorm:
            sliced.weight = share(sliceVector(*full.weight, in));
            sliced.bias = share(sliceVector(*full.bias, in));
            sliced.mean = share(sliceVector(*full.mean, in));
            sliced.var = share(sliceVector(*full.var, in));
            break;
          default:
            break;
        }
        slice_synths.add();
        bytes_resident.set(static_cast<double>(
            bytesResident_.fetch_add(weightsBytes(sliced)) +
            weightsBytes(sliced)));
        slice_promise.set_value(std::move(sliced));
    } else {
        // Already counted a full-entry hit above; a cached slice also
        // saves its own bytes.
        bytes_shared.add(weightsBytes(slice_future.get()));
    }
    return slice_future.get();
}

WeightStore::Stats
WeightStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    for (const auto &[key, future] : full_) {
        ++s.fullEntries;
        if (future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
            s.bytes += weightsBytes(future.get());
    }
    for (const auto &[key, future] : slices_) {
        ++s.sliceEntries;
        if (future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
            s.bytes += weightsBytes(future.get());
    }
    return s;
}

void
WeightStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    full_.clear();
    slices_.clear();
    bytesResident_.store(0);
    MetricsRegistry::instance().gauge("weights.bytes_resident").set(0.0);
}

} // namespace vitdyn
