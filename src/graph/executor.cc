#include "graph/executor.hh"

#include <chrono>
#include <cmath>

#include "analysis/liveness.hh"
#include "obs/metrics.hh"
#include "obs/request_context.hh"
#include "obs/span.hh"
#include "tensor/ops.hh"
#include "tensor/quant.hh"
#include "util/logging.hh"

namespace vitdyn
{

std::string
HealthReport::summary() const
{
    if (healthy)
        return "healthy";
    std::string s = std::to_string(issues.size()) + " unhealthy layer" +
                    (issues.size() == 1 ? "" : "s");
    if (!issues.empty()) {
        const LayerHealthIssue &first = issues.front();
        s += " (first: '" + first.layer + "', " +
             std::to_string(first.nanCount) + " NaN, " +
             std::to_string(first.infCount) + " Inf, " +
             std::to_string(first.rangeCount) + " out-of-range)";
    }
    return s;
}

namespace
{

/** A Conv2d layer's stride, padding and groups. */
Conv2dParams
convParams(const LayerAttrs &a)
{
    return {a.strideH, a.strideW, a.padH, a.padW, a.groups};
}

} // namespace

Executor::Executor(const Graph &graph, uint64_t seed, WeightStore *store)
    : graph_(graph), seed_(seed),
      store_(store != nullptr ? store : &WeightStore::instance()),
      certifiedPeakBytes_(analysis::certifiedPeakBytes(graph)),
      layers_(graph.numLayers())
{
}

bool
Executor::mutateWeights(const std::string &layer_name,
                        const std::function<void(Tensor &)> &fn)
{
    for (const Layer &layer : graph_.layers()) {
        if (layer.name != layer_name)
            continue;
        switch (layer.kind) {
          case LayerKind::Conv2d:
          case LayerKind::Linear:
          case LayerKind::LayerNorm:
          case LayerKind::BatchNorm:
            break;
          default:
            return false;
        }
        weightsFor(layer); // fetch into the cache if not yet done
        SharedLayerWeights &lw = layers_[layer.id].weights;
        if (lw.weight->numel() == 0)
            return false;
        // Copy-on-write: the store's tensor is shared with every other
        // executor of this model family; clone before damaging it so
        // the fault stays local to this execution path. Linear and
        // conv weights are damaged unpacked and packed again.
        const LayerKind kind = layer.kind;
        Tensor damaged =
            kind == LayerKind::Linear
                ? unpackLinearWeight(*lw.weight, layer.attrs.outFeatures)
            : kind == LayerKind::Conv2d ? unpackConvWeight(*lw.weight)
                                        : *lw.weight;
        fn(damaged);
        if (kind == LayerKind::Linear)
            damaged = packLinearWeight(damaged);
        else if (kind == LayerKind::Conv2d)
            damaged = packConvWeight(damaged);
        lw.weight = std::make_shared<const Tensor>(std::move(damaged));
        return true;
    }
    return false;
}

void
Executor::warmupWeights()
{
    for (const Layer &layer : graph_.layers()) {
        switch (layer.kind) {
          case LayerKind::Conv2d:
            weightsFor(layer);
            // Fused epilogues fold their scale/shift once at warmup
            // too, so the first frame after a switch pays nothing.
            if (layer.fused.bn)
                epilogueFor(layer);
            break;
          case LayerKind::Linear:
          case LayerKind::LayerNorm:
          case LayerKind::BatchNorm:
            weightsFor(layer);
            break;
          default:
            break;
        }
    }
    if (autotune_.enabled && !int8_)
        tuneConvPlans();
}

void
Executor::tuneConvPlans()
{
    ScopedSpan span(Tracer::instance(), "executor.conv_autotune",
                    "autotune");
    size_t tuned = 0;
    for (const Layer &layer : graph_.layers()) {
        if (layer.kind != LayerKind::Conv2d || layer.bypassed ||
            layer.inputs.empty())
            continue;
        // The producer's inferred shape is this conv's input shape.
        // Its batch dimension is the graph's nominal batch; a run
        // with a different batch still executes the installed plan
        // correctly (plans are valid for any shape), it is merely
        // tuned for the nominal one.
        const Shape &in_shape = graph_.layer(layer.inputs[0]).outShape;
        if (in_shape.size() != 4)
            continue;
        const LayerAttrs &a = layer.attrs;
        const Shape w_shape = {a.outChannels, a.inChannels / a.groups,
                               a.kernelH, a.kernelW};
        const Conv2dShapeKey key =
            Conv2dShapeKey::of(in_shape, w_shape, convParams(a));
        if (key.flops() <= 0)
            continue;
        layers_[layer.id].convPlan =
            ConvPlanCache::instance().plan(key, autotune_);
        ++tuned;
    }
    if (span.active())
        span.arg("layers", std::to_string(tuned));
}

void
Executor::checkHealth(const Layer &layer, const Tensor &tensor)
{
    const int64_t n = tensor.numel();
    const int64_t stride =
        health_.exhaustive ? 1 : std::max<int64_t>(1, health_.sampleStride);

    LayerHealthIssue issue;
    for (int64_t i = 0; i < n; i += stride) {
        const float v = tensor[i];
        ++healthReport_.elementsChecked;
        if (std::isnan(v)) {
            ++issue.nanCount;
        } else if (std::isinf(v)) {
            ++issue.infCount;
        } else {
            const float mag = std::fabs(v);
            issue.maxAbs = std::max(issue.maxAbs, mag);
            if (mag > health_.absLimit)
                ++issue.rangeCount;
        }
    }
    ++healthReport_.layersChecked;
    if (issue.nanCount || issue.infCount || issue.rangeCount) {
        issue.layer = layer.name;
        healthReport_.healthy = false;
        healthReport_.issues.push_back(std::move(issue));
    }
}

void
Executor::setFullDims(const std::string &layer_name, int64_t full_out,
                      int64_t full_in)
{
    fullDims_[layer_name] = {full_out, full_in};
}

const SharedLayerWeights &
Executor::weightsFor(const Layer &layer)
{
    SharedLayerWeights &lw = layers_[layer.id].weights;
    if (!lw.weight)
        lw = fetch(layer);
    return lw;
}

SharedLayerWeights
Executor::fetch(const Layer &layer) const
{
    // Full (unpruned) dimensions: default to the layer's own, override
    // from the registered full model dims so pruned graphs share weights.
    const auto fit = fullDims_.find(layer.name);
    return fit == fullDims_.end()
               ? store_->get(seed_, layer, 0, 0)
               : store_->get(seed_, layer, fit->second.first,
                             fit->second.second);
}

const Executor::ConvEpilogue &
Executor::epilogueFor(const Layer &layer)
{
    std::optional<ConvEpilogue> &slot = layers_[layer.id].epilogue;
    if (slot)
        return *slot;

    ConvEpilogue &ep = slot.emplace();
    if (layer.fused.bn) {
        // Proxy descriptor for the original BatchNorm layer: same
        // name and channel count, so the store serves exactly the
        // tensors the unfused graph would have used — including the
        // full-dims slicing a pruned path relies on.
        Layer bn;
        bn.id = layer.id;
        bn.name = layer.fused.bnName;
        bn.kind = LayerKind::BatchNorm;
        bn.attrs.inChannels = layer.attrs.outChannels;
        const SharedLayerWeights w = fetch(bn);
        const int64_t c = layer.attrs.outChannels;
        vitdyn_assert(w.weight->numel() == c && w.var->numel() == c,
                      "fused BN '", bn.name, "' expects ", c,
                      " channels, store served ", w.weight->numel());
        ep.scale.resize(static_cast<size_t>(c));
        ep.shift.resize(static_cast<size_t>(c));
        constexpr float eps = 1e-5f; // batchNorm()'s default
        for (int64_t cc = 0; cc < c; ++cc) {
            // Exactly batchNorm()'s per-channel expressions, so the
            // folded constants are bit-equal to what the unfused
            // layer computes every frame.
            const float scale =
                (*w.weight)[cc] / std::sqrt((*w.var)[cc] + eps);
            ep.scale[static_cast<size_t>(cc)] = scale;
            ep.shift[static_cast<size_t>(cc)] =
                (*w.bias)[cc] - (*w.mean)[cc] * scale;
        }
        ep.affine = true;
    }
    return ep;
}

Tensor
Executor::execute(const Layer &layer, const std::vector<Tensor *> &ins)
{
    const LayerAttrs &a = layer.attrs;

    if (layer.bypassed)
        return *ins.at(0);

    switch (layer.kind) {
      case LayerKind::Input:
        vitdyn_panic("execute called on Input layer");
      case LayerKind::Identity:
        return *ins.at(0);
      case LayerKind::Conv2d: {
        const SharedLayerWeights &lw = weightsFor(layer);
        const Conv2dParams p = convParams(a);
        const std::optional<Conv2dPlan> &plan = layers_[layer.id].convPlan;
        Tensor out;
        if (int8_)
            out = conv2dInt8(quantize(*ins.at(0)),
                             quantize(unpackConvWeight(*lw.weight)),
                             *lw.bias, p);
        else if (plan)
            out = conv2dPacked(*ins.at(0), *lw.weight, *lw.bias, p, *plan);
        else
            out = conv2dPacked(*ins.at(0), *lw.weight, *lw.bias, p);
        if (layer.fused.any()) {
            // Pass-framework fusion: the conv arithmetic above is
            // untouched; BN scale/shift and the activation run as one
            // in-place sweep, bit-identical to the original layer
            // sequence (the int8 path too — its unfused BN/activation
            // also ran in float on the dequantized conv output).
            const ConvEpilogue &ep = epilogueFor(layer);
            const EpilogueAct act =
                layer.fused.activation == LayerKind::ReLU
                    ? EpilogueAct::ReLU
                    : layer.fused.activation == LayerKind::GELU
                          ? EpilogueAct::GELU
                          : EpilogueAct::None;
            convEpilogueInPlace(out,
                                ep.affine ? ep.scale.data() : nullptr,
                                ep.affine ? ep.shift.data() : nullptr,
                                act);
        }
        return out;
      }
      case LayerKind::Linear: {
        const SharedLayerWeights &lw = weightsFor(layer);
        if (int8_)
            return linearInt8(
                quantize(*ins.at(0)),
                quantize(unpackLinearWeight(*lw.weight, a.outFeatures)),
                *lw.bias);
        return linear(*ins.at(0), *lw.weight, a.outFeatures, *lw.bias);
      }
      case LayerKind::AttentionScore:
        return attentionScores(*ins.at(0), *ins.at(1), a.numHeads);
      case LayerKind::AttentionContext:
        return attentionContext(*ins.at(0), *ins.at(1));
      case LayerKind::Softmax:
        return softmax(*ins.at(0));
      case LayerKind::LayerNorm: {
        const SharedLayerWeights &lw = weightsFor(layer);
        return layerNorm(*ins.at(0), *lw.weight, *lw.bias);
      }
      case LayerKind::BatchNorm: {
        const SharedLayerWeights &lw = weightsFor(layer);
        return batchNorm(*ins.at(0), *lw.weight, *lw.bias, *lw.mean,
                         *lw.var);
      }
      case LayerKind::ReLU:
        return relu(*ins.at(0));
      case LayerKind::GELU:
        return gelu(*ins.at(0));
      case LayerKind::Add:
        return add(*ins.at(0), *ins.at(1));
      case LayerKind::Concat: {
        const std::vector<const Tensor *> parts(ins.begin(), ins.end());
        // (N, L_i, C) sequences join along L, feature maps along C.
        return parts.at(0)->rank() == 3 ? concatTokens(parts)
                                        : concatChannels(parts);
      }
      case LayerKind::Interpolate:
        return interpolateBilinear(*ins.at(0), a.outH, a.outW);
      case LayerKind::MaxPool:
        return maxPool2d(*ins.at(0), a.kernelH, a.strideH, a.padH);
      case LayerKind::AvgPool:
        return adaptiveAvgPool2d(*ins.at(0), a.outH, a.outW);
      case LayerKind::TokensToImage:
        return tokensToNchw(*ins.at(0), a.gridH, a.gridW);
      case LayerKind::ImageToTokens:
        return nchwToTokens(*ins.at(0));
      case LayerKind::Patchify:
        return patchify(*ins.at(0), a.kernelH);
      case LayerKind::WindowPartition:
        return windowPartition(*ins.at(0), a.gridH, a.gridW, a.window);
      case LayerKind::WindowReverse: {
        const int64_t nw = (a.gridH / a.window) * (a.gridW / a.window);
        return windowReverse(*ins.at(0), a.gridH, a.gridW, a.window,
                             ins.at(0)->dim(0) / nw);
      }
      case LayerKind::Narrow:
        return narrowChannels(*ins.at(0), a.outChannels);
    }
    vitdyn_panic("unhandled layer kind in execute");
}

namespace
{

/** Kinds executeInPlace can run; mirrors the attr.inplace.kind lint. */
bool
supportsInPlace(LayerKind kind)
{
    switch (kind) {
      case LayerKind::ReLU:
      case LayerKind::GELU:
      case LayerKind::Add:
      case LayerKind::BatchNorm:
        return true;
      default:
        return false;
    }
}

} // namespace

void
Executor::executeInPlace(const Layer &layer, Tensor &x,
                         const std::vector<Tensor *> &ins)
{
    switch (layer.kind) {
      case LayerKind::ReLU:
        reluInPlace(x);
        return;
      case LayerKind::GELU:
        geluInPlace(x);
        return;
      case LayerKind::BatchNorm: {
        const SharedLayerWeights &lw = weightsFor(layer);
        batchNormInPlace(x, *lw.weight, *lw.bias, *lw.mean, *lw.var);
        return;
      }
      case LayerKind::Add: {
        // Add(x, x): ins[1] aliases the slot x was moved out of, so
        // point it back at x (read-then-write per index is safe).
        const Tensor &rhs =
            layer.inputs.size() > 1 && layer.inputs[1] == layer.inputs[0]
                ? x
                : *ins.at(1);
        addInPlace(x, rhs);
        return;
      }
      default:
        vitdyn_panic("executeInPlace on unsupported kind ",
                     layerKindName(layer.kind));
    }
}

std::map<std::string, Tensor>
Executor::run(std::map<std::string, Tensor> inputs)
{
    const size_t n = graph_.numLayers();
    std::vector<Tensor> values(n);
    std::vector<bool> computed(n, false);

    healthReport_ = HealthReport{};

    Tracer &tracer = Tracer::instance();
    ScopedSpan run_span(tracer, "executor.run", "executor");

    // Liveness: free each activation after its last consumer runs.
    std::vector<int> last_use(n, -1);
    for (const Layer &layer : graph_.layers())
        for (int in_id : layer.inputs)
            last_use[in_id] = std::max(last_use[in_id], layer.id);
    std::vector<bool> is_output(n, false);
    for (int out_id : graph_.outputs())
        is_output[out_id] = true;

    stats_ = RunStats{};
    size_t live_bytes = 0;
    size_t live_tensors = 0;

    for (const Layer &layer : graph_.layers()) {
        if (layer.kind == LayerKind::Input) {
            auto it = inputs.find(layer.name);
            if (it == inputs.end())
                vitdyn_fatal("missing input tensor '", layer.name, "'");
            vitdyn_assert(it->second.shape() == layer.outShape,
                          "input '", layer.name, "' shape ",
                          shapeToString(it->second.shape()),
                          " != declared ", shapeToString(layer.outShape));
            values[layer.id] = std::move(it->second);
        } else {
            std::vector<Tensor *> ins;
            ins.reserve(layer.inputs.size());
            for (int in_id : layer.inputs) {
                vitdyn_assert(computed[in_id] ||
                              graph_.layer(in_id).kind == LayerKind::Input,
                              "layer '", layer.name,
                              "' consumed before producer ran");
                ins.push_back(&values[in_id]);
            }
            const size_t issues_before = healthReport_.issues.size();
            ScopedSpan span(tracer, layer.name,
                            opCategoryName(layer.category()));
            // Request attribution: when a serving request's ambient
            // scope is active, charge this layer's execute time to
            // its per-category kernel accumulators. One thread-local
            // load per layer when idle.
            RequestContext *req = RequestContext::current();
            std::chrono::steady_clock::time_point layer_start;
            if (req)
                layer_start = std::chrono::steady_clock::now();
            // In-place buffer reuse (pass-framework annotation): take
            // over the first input's buffer when this layer is its
            // final consumer and it is not a graph output. The
            // annotation is only a hint — every condition is
            // re-verified here, so a stale priority can never corrupt
            // a live tensor.
            const int in0 =
                layer.inputs.empty() ? -1 : layer.inputs[0];
            const bool reuse =
                layer.inplacePriority > 0 && !layer.bypassed &&
                !int8_ && in0 >= 0 && supportsInPlace(layer.kind) &&
                last_use[in0] == layer.id && !is_output[in0] &&
                values[in0].numel() > 0 &&
                values[in0].shape() == layer.outShape;
            if (reuse) {
                static Counter &reuses =
                    MetricsRegistry::instance().counter(
                        "executor.inplace_reuses");
                static Counter &steal_reuse_bytes =
                    MetricsRegistry::instance().counter(
                        "exec.steal_reuse_bytes");
                Tensor taken = std::move(values[in0]);
                // Reset the vacated slot: a moved-from Tensor keeps
                // its numel_, and the release loop below keys "still
                // live" off numel() > 0.
                values[in0] = Tensor{};
                // The buffer changed owner, not size: retire the
                // input's accounting now; the generic bookkeeping
                // below re-adds it as this layer's output.
                const size_t stolen =
                    static_cast<size_t>(taken.numel()) * 4;
                live_bytes -= stolen;
                --live_tensors;
                stats_.stealReuseBytes += stolen;
                steal_reuse_bytes.add(stolen);
                executeInPlace(layer, taken, ins);
                values[layer.id] = std::move(taken);
                reuses.add();
            } else {
                values[layer.id] = execute(layer, ins);
            }
            if (req)
                req->addStageNs(
                    layer.category(),
                    static_cast<uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() -
                            layer_start)
                            .count()));
            if (postHook_)
                postHook_(layer, values[layer.id]);
            if (health_.enabled)
                checkHealth(layer, values[layer.id]);
            if (span.active()) {
                span.arg("kind", layerKindName(layer.kind));
                span.arg("flops", layer.flops());
                if (health_.enabled)
                    span.arg("healthy", healthReport_.issues.size() ==
                                            issues_before);
            }
        }
        computed[layer.id] = true;

        const size_t bytes =
            static_cast<size_t>(values[layer.id].numel()) * 4;
        live_bytes += bytes;
        ++live_tensors;
        stats_.totalBytes += bytes;
        stats_.peakLiveBytes = std::max(stats_.peakLiveBytes,
                                        live_bytes);
        stats_.peakLiveTensors = std::max(stats_.peakLiveTensors,
                                          live_tensors);

        // Release producers whose final consumer just ran. A producer
        // can appear twice in one input list (e.g. Add(x, x)): only
        // free it once.
        for (int in_id : layer.inputs) {
            if (last_use[in_id] == layer.id && !is_output[in_id] &&
                values[in_id].numel() > 0) {
                live_bytes -=
                    static_cast<size_t>(values[in_id].numel()) * 4;
                --live_tensors;
                values[in_id] = Tensor{};
            }
        }
    }

    if (run_span.active()) {
        run_span.arg("layers", static_cast<int64_t>(n));
        run_span.arg("peak_live_bytes",
                     static_cast<uint64_t>(stats_.peakLiveBytes));
        if (health_.enabled)
            run_span.arg("healthy", healthReport_.healthy);
    }

    // References cached once: registration locks, increments do not
    // (and MetricsRegistry::reset zeroes in place, so they stay valid).
    static Counter &runs =
        MetricsRegistry::instance().counter("executor.runs");
    static Counter &unhealthy_layers =
        MetricsRegistry::instance().counter("executor.unhealthy_layers");
    static Gauge &peak_live_bytes =
        MetricsRegistry::instance().gauge("exec.peak_live_bytes");
    runs.add();
    unhealthy_layers.add(healthReport_.issues.size());
    peak_live_bytes.set(static_cast<double>(stats_.peakLiveBytes));

#ifndef NDEBUG
    // Debug-build side of the certification contract: the runtime
    // peak can never exceed the bound the static liveness analyzer
    // certified for this graph (steals only ever reduce it).
    vitdyn_assert(stats_.peakLiveBytes <= certifiedPeakBytes_,
                  "runtime peak ", stats_.peakLiveBytes,
                  " bytes exceeds the certified static bound of ",
                  certifiedPeakBytes_, " bytes");
#endif

    // try_emplace moves a tensor only into a new key, so an output
    // listed twice is moved once.
    std::map<std::string, Tensor> outs;
    for (int out_id : graph_.outputs())
        outs.try_emplace(graph_.layer(out_id).name,
                         std::move(values[out_id]));
    return outs;
}

Tensor
Executor::runSimple(const Tensor &input)
{
    vitdyn_assert(graph_.inputs().size() == 1,
                  "runSimple needs exactly one graph input");
    vitdyn_assert(graph_.outputs().size() == 1,
                  "runSimple needs exactly one graph output");
    std::map<std::string, Tensor> ins;
    ins[graph_.layer(graph_.inputs()[0]).name] = input;
    auto outs = run(std::move(ins));
    return std::move(outs.begin()->second);
}

} // namespace vitdyn
