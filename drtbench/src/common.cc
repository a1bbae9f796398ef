#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "analysis/lint.hh"
#include "analysis/liveness.hh"
#include "obs/request_context.hh"
#include "profile/gpu_model.hh"
#include "resilience/sweep.hh"
#include "util/random.hh"
#include "workload/synthetic.hh"

namespace drtbench
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t index = static_cast<size_t>(
        std::clamp(rank - 1.0, 0.0, values.size() - 1.0));
    return values[index];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
RunReport::add(std::string name, double value, std::string unit,
               std::string note)
{
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
}

std::string
countNote(size_t n)
{
    return "n=" + std::to_string(n);
}

void
ModeTimes::add(int mode, size_t config, double ms)
{
    ms_[static_cast<size_t>(mode == kHook2 ? kHook : mode) * paths_ + config]
        .push_back(ms);
}

double
ModeTimes::overhead(int mode) const
{
    double with = 0, without = 0;
    for (size_t c = 0; c < paths_; ++c) {
        if (of(mode, c).empty() || of(kPlain, c).empty())
            continue;
        with += quantile(of(mode, c), 0.5);
        without += quantile(of(kPlain, c), 0.5);
    }
    return without > 0 ? with / without - 1.0 : 0.0;
}

void
ModeTimes::reportCostRatios(const AccuracyResourceLut &lut,
                            RunReport &report) const
{
    std::vector<double> ratio(paths_, 0.0), seen;
    std::string line = "cost ratio (ms per LUT unit):";
    for (size_t c = 0; c < paths_; ++c) {
        if (of(kPlain, c).empty())
            continue;
        ratio[c] = quantile(of(kPlain, c), 0.5) / lut.entries()[c].resourceCost;
        seen.push_back(ratio[c]);
        line += " " + lut.entries()[c].config.label + "=" +
                std::to_string(ratio[c]);
    }
    report.tables.push_back(line + "\n");
    report.add("engine.cost_ratio.cheapest", ratio.front(), "ms/unit",
               lut.entries().front().config.label);
    report.add("engine.cost_ratio.full", ratio.back(), "ms/unit",
               lut.entries().back().config.label);
    report.add("engine.cost_ratio.spread",
               seen.empty() ? 0
                            : *std::max_element(seen.begin(), seen.end()) /
                                  *std::min_element(seen.begin(), seen.end()),
               "ratio", "max/min over the configs that ran");
}

double
deliveredAccuracy(const std::vector<uint64_t> &ok_by_config,
                  uint64_t attempted, const AccuracyResourceLut &lut)
{
    double accuracy = 0;
    for (size_t c = 0; c < ok_by_config.size(); ++c)
        accuracy += static_cast<double>(ok_by_config[c]) /
                    static_cast<double>(attempted) *
                    lut.entries()[c].accuracyEstimate;
    return accuracy;
}

const char *
modelName(ModelId model)
{
    return model == ModelId::B2 ? "segformer_b2" : "segformer_soak";
}

SegformerConfig
modelConfig(ModelId model)
{
    if (model == ModelId::B2) {
        // ADE preset (150 classes). 96x96 rather than the paper's
        // 512x512 keeps a frame near 0.2 s on 3 threads, so one run
        // holds enough frames for a supported p90.
        SegformerConfig cfg = segformerB2Config();
        cfg.imageH = cfg.imageW = 96;
        return cfg;
    }
    // The serving soak model of examples/drt_video_pipeline.
    SegformerConfig cfg;
    cfg.name = "segformer_soak";
    cfg.imageH = cfg.imageW = 64;
    cfg.numClasses = 8;
    cfg.embedDims = {8, 16, 24, 32};
    cfg.depths = {2, 2, 2, 2};
    cfg.numHeads = {1, 2, 3, 4};
    cfg.decoderDim = 32;
    return cfg;
}

namespace
{

std::vector<PruneConfig>
candidates(ModelId model)
{
    if (model == ModelId::B2)
        return segformerAdePruneCatalog();
    return {
        {"full", {2, 2, 2, 2}, 0, 0, 0, 0, 0},
        {"fuse96", {2, 2, 2, 2}, 96, 0, 0, 0, 0},
        {"fuse64", {2, 2, 2, 2}, 64, 0, 0, 0, 0},
        {"slim", {1, 2, 2, 2}, 64, 0, 0, 0, 0},
        {"tiny", {1, 1, 1, 1}, 48, 0, 0, 0, 0},
    };
}

double
msSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

} // namespace

AccuracyResourceLut
buildLut(ModelId model)
{
    GpuLatencyModel gpu;
    AccuracyModel acc(PrunedModelKind::SegformerB2Ade);
    auto points =
        sweepSegformer(modelConfig(model), candidates(model), acc,
                       [&](const Graph &g) { return gpu.graphTimeMs(g); });
    return AccuracyResourceLut(points, "ms");
}

std::unique_ptr<EngineBox>
setupEngine(ModelId model, size_t cache_cap, double *sweep_ms,
            double *create_ms)
{
    auto box = std::make_unique<EngineBox>();
    const int64_t t0 = nowNs();
    box->lut = buildLut(model);
    *sweep_ms = msSince(t0);

    const int64_t t1 = nowNs();
    box->store = std::make_unique<WeightStore>();
    DrtEngineOptions options;
    options.executorCacheCapacity = cache_cap;
    options.weightStore = box->store.get();
    options.convAutotune.enabled = false;
    Result<std::unique_ptr<DrtEngine>> engine =
        DrtEngine::create(ModelFamily::Segformer, modelConfig(model),
                          SwinConfig{}, box->lut, 7, options);
    if (!engine) {
        std::fprintf(stderr, "engine creation failed: %s\n",
                     engine.status().message().c_str());
        return nullptr;
    }
    box->engine = std::move(engine.value());
    *create_ms = msSince(t1);
    return box;
}

namespace
{
volatile size_t lintSink = 0;
}

double
lintMs(ModelId model, const AccuracyResourceLut &lut)
{
    const SegformerConfig base = modelConfig(model);
    const int64_t t0 = nowNs();
    size_t sink = 0;
    for (const LutEntry &entry : lut.entries()) {
        Result<Graph> g = tryApplySegformerPrune(base, entry.config);
        if (!g)
            continue;
        sink += analysis::certifiedPeakBytes(g.value());
        sink += lintGraph(g.value()).toStatus().isOk() ? 1 : 0;
    }
    const double ms = msSince(t0);
    lintSink = sink; // keep the work observable
    return ms;
}

std::vector<Tensor>
imageBank(ModelId model)
{
    const SegformerConfig cfg = modelConfig(model);
    const size_t n = model == ModelId::B2 ? 4 : 8;
    SyntheticSegmentation gen(cfg.imageH, cfg.imageW, cfg.numClasses);
    std::vector<Tensor> bank;
    for (size_t i = 0; i < n; ++i) {
        Rng rng(0xB00C0000ULL + i);
        bank.push_back(gen.nextSample(rng).image);
    }
    return bank;
}

uint64_t
checksum(const Tensor &t)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const float *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, p + i, sizeof bits);
        h = (h ^ bits) * 0x100000001b3ULL;
    }
    return h;
}

namespace
{

std::string
goldenKey(ModelId model, const std::string &config, size_t image)
{
    return std::string(modelName(model)) + " " + config + " " +
           std::to_string(image);
}

} // namespace

bool
Goldens::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read golden file " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string model, config, hex;
        size_t image = 0;
        if (!(fields >> model >> config >> image >> hex)) {
            *error = "malformed golden line: " + line;
            return false;
        }
        sums_[model + " " + config + " " + std::to_string(image)] =
            std::stoull(hex, nullptr, 16);
    }
    return true;
}

bool
Goldens::matches(ModelId model, const std::string &config, size_t image,
                 const Tensor &output) const
{
    auto it = sums_.find(goldenKey(model, config, image));
    return it != sums_.end() && it->second == checksum(output);
}

void
Goldens::set(ModelId model, const std::string &config, size_t image,
             uint64_t sum)
{
    sums_[goldenKey(model, config, image)] = sum;
}

std::string
Goldens::toText() const
{
    std::ostringstream out;
    out << "# model config bank_image fnv1a64(output float bits)\n";
    for (const auto &[key, sum] : sums_) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(sum));
        out << key << " " << hex << "\n";
    }
    return out.str();
}

double
budgetFor(const AccuracyResourceLut &lut, size_t index, double u)
{
    const auto &e = lut.entries();
    const double cost = e[index].resourceCost;
    if (index + 1 < e.size())
        return cost + 0.99 * u * (e[index + 1].resourceCost - cost);
    return cost * (1.0 + 0.25 * u);
}

LayerRecorder::LayerRecorder(const AccuracyResourceLut &lut,
                             const SegformerConfig &base)
{
    for (const LutEntry &entry : lut.entries()) {
        graphs_.push_back(applySegformerPrune(base, entry.config));
        layers_.emplace_back(graphs_.back().numLayers());
    }
    for (size_t i = 0; i < graphs_.size(); ++i)
        ctx_.push_back(std::make_unique<HookCtx>(HookCtx{this, i}));
}

Executor::PostLayerHook
LayerRecorder::hook(size_t index)
{
    HookCtx *ctx = ctx_[index].get();
    return [ctx](const Layer &layer, Tensor &) {
        ctx->self->onLayer(ctx->path, layer);
    };
}

void
LayerRecorder::enableRequestMode(size_t capacity)
{
    requestMode_ = true;
    requests_.assign(capacity, Span{});
    recordMask_.assign(capacity, 0);
}

void
LayerRecorder::onLayer(size_t path, const Layer &layer)
{
    const int64_t t = nowNs();
    Span *span = &frame_;
    if (requestMode_) {
        RequestContext *ctx = RequestContext::current();
        const uint64_t id = ctx ? ctx->id() : 0;
        if (id == 0 || id >= requests_.size() || !recordMask_[id])
            return;
        span = &requests_[id];
    }
    if (span->firstHookNs == 0) {
        span->firstHookNs = t;
    } else {
        LayerAcc &acc = layers_[path][static_cast<size_t>(layer.id)];
        acc.ns += t - span->lastHookNs;
        ++acc.n;
    }
    span->lastHookNs = t;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace
{

std::string
fmt(const char *format, double a)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, a);
    return buf;
}

} // namespace

void
layerReport(const LayerRecorder &rec, double frames, RunReport &report)
{
    static const OpCategory kCats[] = {
        OpCategory::Conv,       OpCategory::MatMul, OpCategory::Memory,
        OpCategory::Activation, OpCategory::Norm,   OpCategory::Softmax,
        OpCategory::Elementwise};
    constexpr size_t kN = static_cast<size_t>(OpCategory::Other) + 1;

    // Measured ns and FLOPs executed, plus the analytic FLOP and
    // GPU-model time of the same executions, per category and for the
    // named layers the paper's Fig 3 singles out.
    struct Row
    {
        double ns = 0, flops = 0, modelMs = 0, n = 0;
    };
    std::array<Row, kN> cats{};
    Row fuse, attn, upsample, total;
    GpuLatencyModel gpu;
    for (size_t p = 0; p < rec.graphs().size(); ++p) {
        const Graph &g = rec.graphs()[p];
        for (const Layer &layer : g.layers()) {
            const auto &acc = rec.layers()[p][static_cast<size_t>(layer.id)];
            if (acc.n == 0)
                continue;
            const double n = static_cast<double>(acc.n);
            Row r{static_cast<double>(acc.ns),
                  static_cast<double>(layer.flops()) * n,
                  gpu.layerTimeMs(layer, 1) * n, n};
            auto addTo = [&](Row &dst) {
                dst.ns += r.ns;
                dst.flops += r.flops;
                dst.modelMs += r.modelMs;
                dst.n += r.n;
            };
            addTo(cats[static_cast<size_t>(layer.category())]);
            addTo(total);
            if (layer.name == "Conv2DFuse")
                addTo(fuse);
            if (layer.kind == LayerKind::AttentionScore ||
                layer.kind == LayerKind::AttentionContext)
                addTo(attn);
            if (layer.name == "FinalUpsample")
                addTo(upsample);
        }
    }
    const double f = std::max(frames, 1.0);
    auto share = [&](const Row &r) {
        return total.ns > 0 ? r.ns / total.ns : 0.0;
    };
    auto gflops = [](const Row &r) {
        return r.ns > 0 ? r.flops / r.ns : 0.0; // FLOP per ns = GFLOP/s
    };
    auto flopShare = [&](const Row &r) {
        return total.flops > 0 ? r.flops / total.flops : 0.0;
    };
    auto modelShare = [&](const Row &r) {
        return total.modelMs > 0 ? r.modelMs / total.modelMs : 0.0;
    };

    std::ostringstream t;
    t << "per-layer time (hook intervals, " << fmt("%.0f", f)
      << " traced frames; FLOPs count one MAC as one FLOP)\n";
    char line[256];
    std::snprintf(line, sizeof line, "%-14s %10s %8s %9s %10s %10s\n",
                  "layer", "ms/frame", "share", "GFLOP/s", "FLOP share",
                  "GPU-model");
    t << line;
    auto row = [&](const std::string &name, const Row &r) {
        std::snprintf(line, sizeof line,
                      "%-14s %10.3f %7.1f%% %9.2f %9.1f%% %9.1f%%\n",
                      name.c_str(), r.ns / 1e6 / f, 100 * share(r),
                      gflops(r), 100 * flopShare(r), 100 * modelShare(r));
        t << line;
    };
    for (OpCategory c : kCats) {
        const Row &r = cats[static_cast<size_t>(c)];
        const std::string name = opCategoryName(c);
        row(name, r);
        report.add("layer." + name + ".ms_per_frame", r.ns / 1e6 / f, "ms");
        report.add("layer." + name + ".gflops", gflops(r), "GFLOP/s");
        report.add("layer." + name + ".share", share(r), "frac");
    }
    row("Conv2DFuse", fuse);
    row("attn_bmm", attn);
    row("FinalUpsample", upsample);
    t << "paper scale (B2, 512x512, EXPERIMENTS.md Fig 3): Conv2DFuse "
         "60.8% of FLOPs; all convolutions 26.2% of modeled GPU time\n";
    report.tables.push_back(t.str());

    report.add("layer.Conv2DFuse.share", share(fuse), "frac");
    report.add("layer.Conv2DFuse.gflops", gflops(fuse), "GFLOP/s");
    report.add("layer.Conv2DFuse.modeled_share", modelShare(fuse), "frac");
    report.add("layer.Conv2DFuse.flop_share", flopShare(fuse), "frac");
    report.add("layer.attn_bmm.share", share(attn), "frac");
    report.add("layer.FinalUpsample.ms_per_frame", upsample.ns / 1e6 / f,
               "ms");
}

} // namespace drtbench
