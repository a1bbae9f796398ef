#include "engine/engine.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/request_context.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace vitdyn
{

struct DrtEngine::LintGate
{
    /** The unpruned reference graph (the drift check's FLOP baseline
     *  and the engine's shared weight dims). */
    Graph full;
    /** One row check per LUT entry; an Error vetoes that config. */
    std::vector<LutRowCheck> rows;
    /** Why the engine cannot serve: an empty LUT, or the first veto
     *  when every config failed. */
    Status status;
};

DrtEngine::LintGate
DrtEngine::lintGate(ModelFamily family, const SegformerConfig &seg_base,
                    const SwinConfig &swin_base,
                    const AccuracyResourceLut &lut,
                    const LutCheckOptions &options)
{
    LintGate gate{family == ModelFamily::Segformer ? buildSegformer(seg_base)
                                                   : buildSwin(swin_base),
                  {}, Status::ok()};
    if (lut.empty()) {
        gate.status = Status::error(
            "DrtEngine needs a non-empty LUT; this one has no entries");
        return gate;
    }
    const double full_flops = static_cast<double>(gate.full.totalFlops());
    Status first_veto;
    bool any_alive = false;
    for (size_t i = 0; i < lut.entries().size(); ++i) {
        gate.rows.push_back(checkLutRow(lut, i, family, seg_base,
                                        swin_base, full_flops, options));
        const Status verdict = gate.rows.back().report.toStatus();
        any_alive |= verdict.isOk();
        if (!verdict && first_veto.isOk())
            first_veto = verdict;
    }
    if (!any_alive)
        gate.status = first_veto.withContext(
            "DrtEngine: every LUT config failed lint");
    return gate;
}

DrtEngine::DrtEngine(ModelFamily family, const SegformerConfig &seg_base,
                     const SwinConfig &swin_base, AccuracyResourceLut lut,
                     uint64_t seed, DrtEngineOptions options)
    : DrtEngine(lintGate(family, seg_base, swin_base, lut, options.lint),
                std::move(lut), seed, options)
{
}

DrtEngine::DrtEngine(LintGate gate, AccuracyResourceLut &&lut,
                     uint64_t seed, const DrtEngineOptions &options)
    : lut_(std::move(lut)), fullGraph_(std::move(gate.full)),
      paths_(options, seed,
             [this](size_t index) {
                 return PathSource{lut_.entries()[index].config.label,
                                   rowGraphs_[index], &fullGraph_};
             },
             [this](Executor &executor) { configureExecutor(executor); }),
      quarantinedUntil_(lut_.entries().size(), 0)
{
    vitdyn_assert(gate.status.isOk(), gate.status.message());

    static Counter &checked =
        MetricsRegistry::instance().counter("lint.configs_checked");
    static Counter &vetoes =
        MetricsRegistry::instance().counter("lint.configs_vetoed");
    for (size_t i = 0; i < gate.rows.size(); ++i) {
        LutRowCheck &row = gate.rows[i];
        checked.add();
        const bool vetoed = row.report.hasErrors();
        configVetoed_.push_back(vetoed);
        certifiedPeakBytes_.push_back(row.certifiedPeakBytes);
        rowGraphs_.push_back(vetoed ? nullptr : std::move(row.graph));
        if (!vetoed)
            continue;
        vetoes.add();
        warn("DRT config '", lut_.entries()[i].config.label,
             "' failed lint and is disabled: ",
             row.report.toStatus().message());
    }

    if (options.prewarm) {
        // Materialize cheapest-first so a bounded cache retains the
        // configs a tight budget will actually request. Vetoed configs
        // are never materialized.
        ScopedSpan span(Tracer::instance(), "engine.prewarm", "engine");
        const size_t n = lut_.entries().size();
        const size_t keep = options.executorCacheCapacity == 0
                                ? n
                                : std::min(n, options.executorCacheCapacity);
        size_t warmed = 0;
        for (size_t i = 0; i < n && warmed < keep; ++i) {
            if (configVetoed_[i])
                continue;
            acquirePath(i);
            ++warmed;
        }
        span.arg("paths", static_cast<uint64_t>(warmed));
    }
}

Result<std::unique_ptr<DrtEngine>>
DrtEngine::create(ModelFamily family, const SegformerConfig &seg_base,
                  const SwinConfig &swin_base, AccuracyResourceLut lut,
                  uint64_t seed, DrtEngineOptions options)
{
    // The constructor aborts when the lint gate fails the whole LUT;
    // run the gate here so that case is a recoverable error instead.
    LintGate gate = lintGate(family, seg_base, swin_base, lut, options.lint);
    if (!gate.status)
        return gate.status;
    return std::unique_ptr<DrtEngine>(
        new DrtEngine(std::move(gate), std::move(lut), seed, options));
}

void
DrtEngine::configureExecutor(Executor &executor) const
{
    executor.setHealthChecks(resilience_.health);
    if (injector_) {
        executor.setPostLayerHook(
            [this](const Layer &layer, Tensor &out) {
                if (injector_)
                    injector_->corruptActivation(layer.name, out);
            });
    } else {
        executor.setPostLayerHook(nullptr);
    }
}

std::shared_ptr<MaterializedPath>
DrtEngine::acquirePath(size_t index) const
{
    vitdyn_assert(index < lut_.entries().size(), "LUT/path desync");
    vitdyn_assert(!configVetoed_[index],
                  "acquirePath on a lint-vetoed config");
    return paths_.acquire(index);
}

bool
DrtEngine::isQuarantined(size_t path_index) const
{
    vitdyn_assert(path_index < quarantinedUntil_.size(),
                  "path index out of range");
    return configVetoed_[path_index] ||
           quarantinedUntil_[path_index] > frame_;
}

size_t
DrtEngine::numQuarantined() const
{
    size_t count = 0;
    for (size_t i = 0; i < quarantinedUntil_.size(); ++i)
        if (configVetoed_[i] || quarantinedUntil_[i] > frame_)
            ++count;
    return count;
}

bool
DrtEngine::isVetoed(size_t path_index) const
{
    vitdyn_assert(path_index < configVetoed_.size(),
                  "path index out of range");
    return configVetoed_[path_index];
}

size_t
DrtEngine::certifiedPeakBytes(size_t path_index) const
{
    vitdyn_assert(path_index < certifiedPeakBytes_.size(),
                  "path index out of range");
    return certifiedPeakBytes_[path_index];
}

size_t
DrtEngine::numVetoed() const
{
    size_t count = 0;
    for (bool vetoed : configVetoed_)
        if (vetoed)
            ++count;
    return count;
}

void
DrtEngine::setResilience(const EngineResilienceConfig &config)
{
    vitdyn_assert(config.maxRetries >= 0, "maxRetries must be >= 0");
    vitdyn_assert(config.probationFrames >= 1,
                  "probationFrames must be >= 1");
    resilience_ = config;
    paths_.reconfigure();
}

void
DrtEngine::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    paths_.reconfigure();
}

size_t
DrtEngine::lookupIndex(double resource_budget, bool *met) const
{
    const std::vector<LutEntry> &entries = lut_.entries();
    size_t best = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].resourceCost > resource_budget)
            break; // ascending cost: nothing later fits either
        if (best == entries.size() ||
            entries[i].accuracyEstimate > entries[best].accuracyEstimate)
            best = i;
    }
    if (best < entries.size()) {
        if (met)
            *met = true;
        return best;
    }
    if (met)
        *met = false;
    return 0; // cheapest (entries are sorted by ascending cost)
}

size_t
DrtEngine::lookupHealthyIndex(double resource_budget, bool *met) const
{
    const std::vector<LutEntry> &entries = lut_.entries();
    size_t best = entries.size();
    size_t cheapest_healthy = entries.size();
    for (size_t i = 0; i < entries.size(); ++i) {
        if (isQuarantined(i))
            continue;
        if (cheapest_healthy == entries.size())
            cheapest_healthy = i; // ascending cost order
        if (entries[i].resourceCost > resource_budget)
            continue;
        if (best == entries.size() ||
            entries[i].accuracyEstimate > entries[best].accuracyEstimate)
            best = i;
    }
    if (best < entries.size()) {
        if (met)
            *met = true;
        return best;
    }
    if (met)
        *met = false;
    if (cheapest_healthy < entries.size())
        return cheapest_healthy;
    // Probation may cover every servable path; prefer any non-vetoed
    // entry (probation is transient, best effort) over a lint-vetoed
    // one (permanently unbuildable — running it could abort).
    for (size_t i = 0; i < entries.size(); ++i)
        if (!configVetoed_[i])
            return i;
    vitdyn_fatal("construction left no lint-surviving config");
}

const LutEntry &
DrtEngine::select(double resource_budget, bool *met) const
{
    return lut_.entries()[lookupIndex(resource_budget, met)];
}

DrtResult
DrtEngine::runPath(size_t index, const Tensor &image,
                   std::string *health_summary)
{
    const LutEntry &entry = lut_.entries()[index];

    ScopedSpan span(Tracer::instance(), "drt.execute", "engine");
    span.arg("path", entry.config.label);

    std::shared_ptr<MaterializedPath> path = acquirePath(index);

    DrtResult result;
    result.output = path->executor->runSimple(image);
    result.configLabel = entry.config.label;
    result.accuracyEstimate = entry.accuracyEstimate;
    result.resourceCost = entry.resourceCost;
    if (resilience_.health.enabled) {
        const HealthReport &report = path->executor->lastHealthReport();
        result.healthy = report.healthy;
        if (!result.healthy)
            *health_summary = report.summary();
    }
    span.arg("healthy", result.healthy);
    return result;
}

bool
DrtEngine::allServableQuarantined() const
{
    for (size_t i = 0; i < quarantinedUntil_.size(); ++i)
        if (!configVetoed_[i] && quarantinedUntil_[i] <= frame_)
            return false;
    return true;
}

Result<DrtResult>
DrtEngine::serveImage(const Tensor &image, double resource_budget,
                      Deadline deadline, RequestContext *ctx,
                      int &attempts, bool best_effort)
{
    MetricsRegistry &metrics = MetricsRegistry::instance();
    static Counter &frames = metrics.counter("drt.frames");
    static Counter &retries = metrics.counter("drt.retries");
    static Counter &misses = metrics.counter("drt.budget_misses");
    static Counter &unhealthy = metrics.counter("drt.unhealthy_frames");
    static Counter &degraded = metrics.counter("drt.degraded_frames");
    static Counter &deadline_misses =
        metrics.counter("drt.deadline_exceeded");
    static Counter &quarantine_rejects =
        metrics.counter("drt.quarantine_rejects");
    static Counter &quarantines =
        metrics.counter("drt.quarantine_entries");
    static Histogram &latency =
        metrics.histogram("drt.frame_latency_ms");

    if (deadlineExpired(deadline)) {
        deadline_misses.add();
        return Status::error(StatusCode::DeadlineExceeded,
                             "deadline expired before execution");
    }

    // Every image that reaches the engine is a frame, whether it runs
    // or is turned away: a quarantined path sits it out either way,
    // so probation ends even while nothing is servable.
    ++frame_;
    Tracer &tracer = Tracer::instance();
    const uint64_t t0 = tracer.now();
    ScopedSpan frame_span(tracer, "drt.infer", "engine");
    if (frame_span.active()) {
        frame_span.arg("frame", static_cast<uint64_t>(frame_));
        frame_span.arg("budget", resource_budget);
    }

    bool met = false;
    size_t first_choice;
    {
        ScopedSpan select_span(tracer, "drt.select", "engine");
        first_choice = lookupIndex(resource_budget, &met);
        select_span.arg("budget", resource_budget);
        select_span.arg(
            "path", lut_.entries()[first_choice].config.label);
    }

    auto quarantine = [&](size_t index) {
        quarantinedUntil_[index] =
            frame_ + static_cast<uint64_t>(resilience_.probationFrames);
        quarantines.add();
        tracer.instant("drt.quarantine", "engine");
    };

    // Without resilience nothing enters probation and the first run is
    // final; lookupHealthyIndex then only steps around lint vetoes.
    Status failure;
    if (!best_effort && allServableQuarantined())
        failure = Status::error(
            StatusCode::Quarantined,
            "every servable execution path is quarantined");
    size_t index = lookupHealthyIndex(resource_budget, &met);
    const int attempts_before = attempts;
    DrtResult result;
    while (failure.isOk()) {
        std::string health;
        result = runPath(index, image, &health);
        if (result.healthy || !resilience_.enabled ||
            attempts >= resilience_.maxRetries)
            break;
        // Quarantine the offending path for the probation window and
        // fall back to the next-best healthy Pareto entry.
        quarantine(index);
        warn("DRT path '", result.configLabel, "' failed health checks (",
             health, "); quarantined for ", resilience_.probationFrames,
             " frames");
        ++attempts;
        if (!best_effort && allServableQuarantined())
            failure = Status::error(
                StatusCode::Quarantined,
                "quarantine reroute exhausted every servable "
                "execution path");
        else if (deadlineExpired(deadline))
            failure = Status::error(
                StatusCode::DeadlineExceeded,
                "deadline expired during quarantine reroute");
        else
            index = lookupHealthyIndex(resource_budget, &met);
    }
    if (!failure.isOk()) {
        if (failure.code() == StatusCode::Quarantined)
            quarantine_rejects.add();
        else
            deadline_misses.add();
        return failure;
    }
    if (!result.healthy && resilience_.enabled) {
        // Retries exhausted: deliver best effort, but keep the failing
        // path out of rotation so the next frame tries elsewhere.
        quarantine(index);
    }
    result.budgetMet = met;
    result.retries = attempts - attempts_before;
    result.degraded = index != first_choice;
    result.quarantinedPaths = numQuarantined();

    frames.add();
    retries.add(static_cast<uint64_t>(result.retries));
    if (!result.budgetMet)
        misses.add();
    if (!result.healthy)
        unhealthy.add();
    if (result.degraded)
        degraded.add();
    const uint64_t engine_ns = tracer.now() - t0;
    if (ctx) {
        ctx->setEngineNs(engine_ns);
        ctx->setConfigLabel(result.configLabel);
    }
    latency.observe(static_cast<double>(engine_ns) / 1e6);

    if (frame_span.active()) {
        frame_span.arg("config", result.configLabel);
        frame_span.arg("budget_met", result.budgetMet);
        frame_span.arg("healthy", result.healthy);
        frame_span.arg("degraded", result.degraded);
        frame_span.arg("retries", result.retries);
        frame_span.arg("quarantined",
                       static_cast<uint64_t>(result.quarantinedPaths));
    }
    return result;
}

DrtResult
DrtEngine::infer(const Tensor &image, double resource_budget)
{
    int attempts = 0;
    Result<DrtResult> result =
        serveImage(image, resource_budget, Deadline{}, nullptr, attempts,
                   /*best_effort=*/true);
    vitdyn_assert(result.isOk(), "best-effort inference cannot fail");
    return result.take();
}

Result<DrtResult>
DrtEngine::tryInfer(const Tensor &image, double resource_budget,
                    Deadline deadline)
{
    int attempts = 0;
    return serveImage(image, resource_budget, deadline, nullptr, attempts,
                      /*best_effort=*/false);
}

std::vector<Result<DrtResult>>
DrtEngine::tryInferBatch(const std::vector<Tensor> &images,
                         double resource_budget,
                         const std::vector<Deadline> &deadlines,
                         const std::vector<RequestContext *> &contexts)
{
    vitdyn_assert(deadlines.empty() ||
                      deadlines.size() == images.size(),
                  "deadlines must be empty or parallel to images");
    vitdyn_assert(contexts.empty() ||
                      contexts.size() == images.size(),
                  "contexts must be empty or parallel to images");

    static Histogram &batch_size = MetricsRegistry::instance().histogram(
        "drt.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
    ScopedSpan span(Tracer::instance(), "drt.infer_batch", "engine");
    if (span.active()) {
        span.arg("batch", static_cast<uint64_t>(images.size()));
        span.arg("budget", resource_budget);
    }
    batch_size.observe(static_cast<double>(images.size()));

    std::vector<Result<DrtResult>> out;
    out.reserve(images.size());
    // One reroute budget for the whole dispatch: a batch is a single
    // engine interaction, so a flapping path cannot consume
    // maxRetries extra executions per image.
    int attempts = 0;
    for (size_t i = 0; i < images.size(); ++i) {
        // Per-image ambient attribution: layer spans and pool shards
        // executed for this image tag themselves with the request id
        // and report into its breakdown. Nullptr scopes are no-ops.
        RequestContext *ctx = contexts.empty() ? nullptr : contexts[i];
        RequestScope request_scope(ctx);
        out.push_back(serveImage(
            images[i], resource_budget,
            deadlines.empty() ? Deadline{} : deadlines[i], ctx, attempts,
            /*best_effort=*/false));
    }
    return out;
}

const Graph &
DrtEngine::pathGraph(size_t index) const
{
    vitdyn_assert(index < lut_.entries().size(),
                  "path index out of range");
    return *acquirePath(index)->graph;
}

Executor &
DrtEngine::pathExecutor(size_t index)
{
    vitdyn_assert(index < lut_.entries().size(),
                  "path index out of range");
    return *acquirePath(index)->executor;
}

} // namespace vitdyn
