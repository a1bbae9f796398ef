#include "serve/scheduler.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vitdyn
{

namespace
{

struct ServeCounters
{
    Counter &submitted;
    Counter &admitted;
    Counter &downgraded;
    Counter &rejected;
    Counter &expired;
    Counter &completed;
    Counter &rerouted;
    Counter &cancelled;
    /** Per-class SLO accounting: serve.<class>.deadline_miss /
     *  .downgrade counters and .latency_ms / .queue_ms histograms.
     *  The latency/queue observations carry the request id as an
     *  exemplar, so a tail bucket names a traceable request. */
    std::array<Counter *, kServeClasses> classMisses;
    std::array<Counter *, kServeClasses> classDowngrades;
    std::array<Histogram *, kServeClasses> classLatencyMs;
    std::array<Histogram *, kServeClasses> classQueueMs;
    Histogram &queueWaitMs;
    Histogram &e2eMs;
    Histogram &batchSize;
};

ServeCounters &
serveCounters()
{
    MetricsRegistry &m = MetricsRegistry::instance();
    static ServeCounters c{
        m.counter("serve.submitted"),
        m.counter("serve.admitted"),
        m.counter("serve.downgraded"),
        m.counter("serve.rejected"),
        m.counter("serve.expired"),
        m.counter("serve.completed"),
        m.counter("serve.rerouted"),
        m.counter("serve.cancelled"),
        {&m.counter("serve.critical.deadline_miss"),
         &m.counter("serve.interactive.deadline_miss"),
         &m.counter("serve.batch.deadline_miss")},
        {&m.counter("serve.critical.downgrade"),
         &m.counter("serve.interactive.downgrade"),
         &m.counter("serve.batch.downgrade")},
        {&m.histogram("serve.critical.latency_ms"),
         &m.histogram("serve.interactive.latency_ms"),
         &m.histogram("serve.batch.latency_ms")},
        {&m.histogram("serve.critical.queue_ms"),
         &m.histogram("serve.interactive.queue_ms"),
         &m.histogram("serve.batch.queue_ms")},
        m.histogram("serve.queue_wait_ms"),
        m.histogram("serve.e2e_ms"),
        m.histogram("serve.batch_size",
                    {1, 2, 4, 8, 16, 32, 64, 128}),
    };
    return c;
}

/**
 * Terminal per-request summary marker: one instant event tagged with
 * the request id carrying the whole latency decomposition, so a
 * flight dump (which keeps the request's span chain) and tracetool
 * both see the scheduler's own accounting next to the raw spans.
 */
void
recordRequestSummary(uint64_t id, ServeClass cls,
                     const LatencyBreakdown &b,
                     const std::string &config,
                     const char *outcome)
{
    Tracer &tracer = Tracer::instance();
    if (!tracer.enabled())
        return;
    SpanEvent ev;
    ev.name = "serve.request";
    ev.category = "serve";
    ev.instant = true;
    ev.startNs = tracer.now();
    ev.requestId = id;
    auto num = [&ev](const char *key, double v) {
        ev.args.push_back(SpanArg{key, std::to_string(v), true});
    };
    ev.args.push_back(SpanArg{"class", serveClassName(cls), false});
    ev.args.push_back(SpanArg{"outcome", outcome, false});
    if (!config.empty())
        ev.args.push_back(SpanArg{"config", config, false});
    num("admission_ms", b.admissionMs);
    num("queue_ms", b.queueMs);
    num("batch_ms", b.batchAssemblyMs);
    num("engine_ms", b.engineMs);
    num("kernel_ms", b.kernelMs);
    num("pool_wait_ms", b.poolWaitMs);
    ev.args.push_back(SpanArg{
        "deadline_miss", b.deadlineMiss ? "true" : "false", true});
    ev.args.push_back(SpanArg{
        "downgraded", b.downgraded ? "true" : "false", true});
    ev.args.push_back(
        SpanArg{"rerouted", b.rerouted ? "true" : "false", true});
    tracer.record(std::move(ev));
}

double
elapsedMs(Deadline from, Deadline to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

} // namespace

ServeScheduler::ServeScheduler(DrtEngine &engine,
                               ServeSchedulerOptions options)
    : engine_(engine), options_(options),
      admission_(engine.lut(), options.admission,
                 // Certified static peak bounds from the engine's
                 // load-time liveness analysis: the memory-aware
                 // admission policy never guesses.
                 engine.certifiedPeakBytes()),
      queue_(options.admission.queueCapacity),
      costScale_(options.initialCostScale),
      quarantinedPaths_(engine.numQuarantined())
{
    vitdyn_assert(options_.maxBatch >= 1, "maxBatch must be >= 1");
    serveCounters(); // register metrics before any worker reports
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

ServeScheduler::~ServeScheduler()
{
    shutdown(true);
}

HealthSignals
ServeScheduler::gatherSignals(ServeClass cls) const
{
    HealthSignals s;
    s.queueDepth = queue_.depth();
    s.backlogCost = queue_.backlogCostAhead(cls);
    s.inflightCost = inflightCost_.load(std::memory_order_relaxed);
    s.inflightPeakBytes =
        inflightPeakBytes_.load(std::memory_order_relaxed);
    ThreadPool &pool = ThreadPool::instance();
    s.poolQueueDepth = static_cast<double>(pool.queuedTasks());
    s.poolThreads = pool.threads();
    s.quarantinedPaths = static_cast<size_t>(
        quarantinedPaths_.load(std::memory_order_relaxed));
    s.totalPaths = engine_.numPaths(); // immutable after construction
    s.costScale = costScale_.load(std::memory_order_relaxed);
    return s;
}

void
ServeScheduler::deliver(QueuedRequest &request,
                        ServeResponse &&response)
{
    response.id = request.id;
    // The exactly-once terminal-outcome invariant lives here: every
    // QueuedRequest flows through exactly one of the expired /
    // dispatched / cancelled paths, each ending in this set_value.
    request.promise.set_value(std::move(response));
}

std::future<ServeResponse>
ServeScheduler::submit(ServeRequest request)
{
    ServeCounters &c = serveCounters();
    const uint64_t id =
        nextId_.fetch_add(1, std::memory_order_relaxed);
    const Deadline now = std::chrono::steady_clock::now();
    const size_t cls = static_cast<size_t>(request.priority);

    submitted_.fetch_add(1, std::memory_order_relaxed);
    c.submitted.add();
    if (deadlineSet(request.deadline))
        deadlineTotal_[cls].fetch_add(1, std::memory_order_relaxed);

    std::promise<ServeResponse> promise;
    std::future<ServeResponse> future = promise.get_future();

    const AdmissionDecision decision = admission_.decide(
        request.budget, request.priority, request.deadline, now,
        gatherSignals(request.priority));
    const double admission_ms =
        elapsedMs(now, std::chrono::steady_clock::now());
    if (!decision.status) {
        ServeResponse response;
        response.id = id;
        response.status = decision.status;
        response.retryAfterMs = decision.retryAfterMs;
        response.breakdown.admissionMs = admission_ms;
        rejected_.fetch_add(1, std::memory_order_relaxed);
        c.rejected.add();
        if (deadlineSet(request.deadline)) {
            deadlineMisses_[cls].fetch_add(1,
                                           std::memory_order_relaxed);
            c.classMisses[cls]->add();
        }
        promise.set_value(std::move(response));
        return future;
    }

    QueuedRequest queued;
    queued.id = id;
    queued.image = std::move(request.image);
    queued.priority = request.priority;
    queued.deadline = request.deadline;
    queued.requestedBudget = request.budget;
    queued.admittedBudget = decision.effectiveBudget;
    queued.configIndex = decision.configIndex;
    queued.estimatedCost = decision.estimatedCost;
    queued.downgraded = decision.downgraded;
    queued.enqueued = now;
    queued.context = std::make_unique<RequestContext>(
        id, static_cast<int>(request.priority));
    queued.context->admissionMs = admission_ms;
    queued.context->setConfigLabel(
        engine_.lut().entries()[decision.configIndex].config.label);
    queued.promise = std::move(promise);

    if (!queue_.push(std::move(queued))) {
        // Raced a fill-up or a shutdown between admission and push.
        ServeResponse response;
        response.id = id;
        if (queue_.closed()) {
            response.status = Status::error(
                StatusCode::Cancelled,
                "scheduler shut down before enqueue");
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            c.cancelled.add();
        } else {
            response.status = Status::error(StatusCode::Rejected,
                                            "serve queue at capacity");
            response.retryAfterMs = std::max(
                admission_.options().minRetryAfterMs,
                queue_.backlogCost() * costScale());
            rejected_.fetch_add(1, std::memory_order_relaxed);
            c.rejected.add();
            if (deadlineSet(request.deadline)) {
                deadlineMisses_[cls].fetch_add(
                    1, std::memory_order_relaxed);
                c.classMisses[cls]->add();
            }
        }
        queued.promise.set_value(std::move(response));
        return future;
    }

    admitted_.fetch_add(1, std::memory_order_relaxed);
    c.admitted.add();
    if (decision.downgraded) {
        downgraded_.fetch_add(1, std::memory_order_relaxed);
        c.downgraded.add();
        c.classDowngrades[cls]->add();
    }
    return future;
}

void
ServeScheduler::dispatchLoop()
{
    ServeCounters &c = serveCounters();
    while (std::optional<RequestQueue::Pop> popped =
               queue_.pop(options_.maxBatch)) {
        const Deadline dispatch_start =
            std::chrono::steady_clock::now();

        // Deadline-expired cancellation: typed Status, never run.
        for (QueuedRequest &request : popped->expired) {
            ServeResponse response;
            response.status = Status::error(
                StatusCode::DeadlineExceeded,
                "deadline expired while queued");
            response.downgraded = request.downgraded;
            response.queueMs = response.totalMs =
                elapsedMs(request.enqueued, dispatch_start);
            expired_.fetch_add(1, std::memory_order_relaxed);
            c.expired.add();
            const size_t cls =
                static_cast<size_t>(request.priority);
            deadlineMisses_[cls].fetch_add(1,
                                           std::memory_order_relaxed);
            c.classMisses[cls]->add();
            if (request.context) {
                request.context->queueMs = response.queueMs;
                response.breakdown =
                    request.context->finishBreakdown();
            } else {
                response.breakdown.queueMs = response.queueMs;
            }
            response.breakdown.downgraded = request.downgraded;
            response.breakdown.deadlineMiss = true;
            c.classLatencyMs[cls]->observe(response.totalMs,
                                           request.id);
            c.classQueueMs[cls]->observe(response.queueMs,
                                         request.id);
            recordRequestSummary(request.id, request.priority,
                                 response.breakdown,
                                 request.context
                                     ? request.context->configLabel()
                                     : std::string(),
                                 "expired");
            FlightRecorder::instance().trigger(
                FlightTrigger::DeadlineMiss, request.id,
                "deadline expired while queued (" +
                    std::string(serveClassName(request.priority)) +
                    ", waited " +
                    std::to_string(response.queueMs) + " ms)");
            deliver(request, std::move(response));
        }
        if (popped->batch.empty())
            continue;

        std::vector<QueuedRequest> &batch = popped->batch;
        const LutEntry &admitted_entry =
            engine_.lut().entries()[batch.front().configIndex];

        double batch_cost = 0.0;
        std::vector<Tensor> images;
        std::vector<Deadline> deadlines;
        std::vector<RequestContext *> contexts;
        images.reserve(batch.size());
        deadlines.reserve(batch.size());
        contexts.reserve(batch.size());
        bool any_deadline = false;
        for (QueuedRequest &request : batch) {
            batch_cost += request.estimatedCost;
            images.push_back(std::move(request.image));
            deadlines.push_back(request.deadline);
            contexts.push_back(request.context.get());
            any_deadline =
                any_deadline || deadlineSet(request.deadline);
        }
        if (!any_deadline)
            deadlines.clear();

        ScopedSpan span(Tracer::instance(), "serve.dispatch",
                        "serve");
        if (span.active()) {
            span.arg("batch", static_cast<uint64_t>(batch.size()));
            span.arg("config", admitted_entry.config.label);
        }
        c.batchSize.observe(static_cast<double>(batch.size()));

        // Forcing budget = admitted cost makes the engine's first
        // choice exactly the admitted config; quarantine reroutes
        // (and their bounded retries) happen inside the engine.
        const Deadline engine_entry =
            std::chrono::steady_clock::now();
        const double batch_assembly_ms =
            elapsedMs(dispatch_start, engine_entry);
        inflightCost_.store(batch_cost, std::memory_order_relaxed);
        inflightPeakBytes_.store(
            engine_.certifiedPeakBytes(batch.front().configIndex),
            std::memory_order_relaxed);
        std::vector<Result<DrtResult>> results =
            engine_.tryInferBatch(images, admitted_entry.resourceCost,
                                  deadlines, contexts);
        inflightCost_.store(0.0, std::memory_order_relaxed);
        inflightPeakBytes_.store(0, std::memory_order_relaxed);
        const Deadline dispatch_end =
            std::chrono::steady_clock::now();

        // Republish engine health + recalibrate the wall-per-cost
        // scale from what actually executed.
        quarantinedPaths_.store(engine_.numQuarantined(),
                                std::memory_order_relaxed);
        double executed_cost = 0.0;
        for (const Result<DrtResult> &result : results)
            if (result.isOk())
                executed_cost += result.value().resourceCost;
        if (executed_cost > 0.0) {
            const double sample =
                elapsedMs(dispatch_start, dispatch_end) /
                executed_cost;
            costScale_.store(0.8 * costScale() + 0.2 * sample,
                             std::memory_order_relaxed);
        }

        vitdyn_assert(results.size() == batch.size(),
                      "batch/result desync");
        for (size_t i = 0; i < batch.size(); ++i) {
            QueuedRequest &request = batch[i];
            const size_t cls =
                static_cast<size_t>(request.priority);
            ServeResponse response;
            response.downgraded = request.downgraded;
            response.batchSize = batch.size();
            response.queueMs =
                elapsedMs(request.enqueued, dispatch_start);
            response.totalMs =
                elapsedMs(request.enqueued, dispatch_end);
            c.queueWaitMs.observe(response.queueMs);
            c.e2eMs.observe(response.totalMs);

            bool missed_deadline = deadlineSet(request.deadline) &&
                                   dispatch_end > request.deadline;
            if (results[i].isOk()) {
                response.result = results[i].take();
                response.rerouted = response.result.degraded;
                completed_.fetch_add(1, std::memory_order_relaxed);
                c.completed.add();
                if (response.rerouted) {
                    rerouted_.fetch_add(1,
                                        std::memory_order_relaxed);
                    c.rerouted.add();
                }
            } else {
                response.status = results[i].status();
                missed_deadline = deadlineSet(request.deadline);
                if (response.status.code() ==
                    StatusCode::DeadlineExceeded) {
                    expired_.fetch_add(1, std::memory_order_relaxed);
                    c.expired.add();
                } else {
                    if (response.status.code() ==
                        StatusCode::Quarantined)
                        quarantineRejects_.fetch_add(
                            1, std::memory_order_relaxed);
                    rejected_.fetch_add(1, std::memory_order_relaxed);
                    c.rejected.add();
                }
            }
            if (missed_deadline) {
                deadlineMisses_[cls].fetch_add(
                    1, std::memory_order_relaxed);
                c.classMisses[cls]->add();
            }

            // Terminal observability: snapshot the context's
            // accumulators (engine/kernel/pool attribution written
            // during execution) into the response, report the
            // per-class SLO metrics with the request id as exemplar,
            // and fire the flight recorder on anomalies.
            if (request.context) {
                request.context->queueMs = response.queueMs;
                request.context->batchAssemblyMs = batch_assembly_ms;
                response.breakdown =
                    request.context->finishBreakdown();
            } else {
                response.breakdown.queueMs = response.queueMs;
                response.breakdown.batchAssemblyMs =
                    batch_assembly_ms;
            }
            response.breakdown.downgraded = response.downgraded;
            response.breakdown.rerouted = response.rerouted;
            response.breakdown.deadlineMiss = missed_deadline;
            c.classLatencyMs[cls]->observe(response.totalMs,
                                           request.id);
            c.classQueueMs[cls]->observe(response.queueMs,
                                         request.id);
            const std::string config_label =
                response.status.isOk()
                    ? response.result.configLabel
                    : (request.context
                           ? request.context->configLabel()
                           : std::string());
            recordRequestSummary(
                request.id, request.priority, response.breakdown,
                config_label,
                response.status.isOk()
                    ? "ok"
                    : statusCodeName(response.status.code()));
            FlightRecorder &recorder = FlightRecorder::instance();
            if (missed_deadline)
                recorder.trigger(
                    FlightTrigger::DeadlineMiss, request.id,
                    "request completed " +
                        std::to_string(response.totalMs) +
                        " ms after submit, past its deadline (" +
                        serveClassName(request.priority) +
                        ", dominant stage " +
                        response.breakdown.dominantStage() + ")");
            if (response.rerouted)
                recorder.trigger(
                    FlightTrigger::QuarantineReroute, request.id,
                    "quarantine moved the request off config '" +
                        admitted_entry.config.label + "' to '" +
                        config_label + "'");
            deliver(request, std::move(response));
        }
    }
}

void
ServeScheduler::shutdown(bool drain)
{
    bool expected = false;
    if (!shutdown_.compare_exchange_strong(expected, true))
        return; // the first caller owns teardown
    ServeCounters &c = serveCounters();
    if (!drain) {
        // Grab pending work before closing so the dispatcher cannot
        // race us into running it.
        std::vector<QueuedRequest> leftovers = queue_.drain();
        queue_.close();
        for (QueuedRequest &request : leftovers) {
            ServeResponse response;
            response.status =
                Status::error(StatusCode::Cancelled,
                              "scheduler shut down before dispatch");
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            c.cancelled.add();
            deliver(request, std::move(response));
        }
    } else {
        queue_.close(); // pop() drains the remainder, then exits
    }
    if (dispatcher_.joinable())
        dispatcher_.join();
}

ServeScheduler::Stats
ServeScheduler::stats() const
{
    Stats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.admitted = admitted_.load(std::memory_order_relaxed);
    s.downgraded = downgraded_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.expired = expired_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.rerouted = rerouted_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.quarantineRejects =
        quarantineRejects_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kServeClasses; ++i) {
        s.deadlineMisses[i] =
            deadlineMisses_[i].load(std::memory_order_relaxed);
        s.deadlineTotal[i] =
            deadlineTotal_[i].load(std::memory_order_relaxed);
    }
    return s;
}

} // namespace vitdyn
