/**
 * @file
 * serve_open: an open loop over ServeScheduler and the soak model.
 *
 * One generator thread sends requests on a seeded Poisson schedule at
 * a fixed rate, about a tenth of the engine's batch-1 capacity on a
 * 4-vCPU host, whether or not earlier ones have finished. Latency
 * runs from each request's scheduled send time, so a generator that
 * falls behind shows up in the latency instead of hiding it. The rate,
 * budgets and deadlines are fixed numbers, not calibrated per run, so
 * every commit is offered the same load.
 *
 * The schedule is a Poisson process conditioned on its count: exactly
 * rate x seconds arrivals at uniform times, so the offered load does
 * not vary with the seed. Class counts are exact too (shuffled).
 *
 * The classes follow the repository's serving example
 * (examples/drt_video_pipeline.cpp): equal shares; Critical and
 * Interactive deadlines a fixed multiple of the full path's service
 * time, in the example's 2:3 ratio; no deadline for Batch. The example
 * runs at twice its capacity, where 16 and 24 service times of
 * headroom absorb the queue; this loop runs far below capacity,
 * where such deadlines never bind, so the multiples are 2
 * and 3. A request that runs late then leaves goodput_rps.
 *
 * The deadlines are the benchmark's service levels, not the
 * scheduler's: a late request still completes and is checked. Given
 * to the scheduler, they would make it drop late requests, so failures,
 * ok_frac and delivered_accuracy would follow the host's speed.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>

#include "common.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "serve/scheduler.hh"
#include "util/random.hh"

namespace drtbench
{

namespace
{

/** Low enough that about one request in nine waits for another, so
 *  the p90 lies in the service times, not in the queue. The host's
 *  speed swings in bursts and a queue compounds them: from 20/s up,
 *  the p90 moved 1.5-3 times as much as the median between runs. */
constexpr double kRatePerS = 15.0;
constexpr size_t kMaxBatch = 4;
/** Wall ms per LUT cost unit the scheduler starts from (it then
 *  learns the real rate online). */
constexpr double kInitialCostScale = 2.5;
constexpr int kWarmupRequests = 20;
constexpr int64_t kSpinNs = 300000;
/** Untraced runs spread set-up repetitions over the window, each in a
 *  send gap at least this long with nothing in flight, at least
 *  kSetupEveryS apart, and only after the first quarter of the
 *  requests (peak RSS is read before the first one). */
constexpr int64_t kSetupGapNs = 60000000;
constexpr double kSetupEveryS = 0.5;
/** latency_ms_p90 is the median over windows of at least this length
 *  of each window's p90: 112 requests a window at 15/s, so each p90
 *  has ten samples beyond it. Hypervisor steal comes in bursts of a
 *  few seconds, and a burst over a tenth of a run moves the p90 of the
 *  whole run; the median window leaves it out unless half the run is
 *  hit. */
constexpr double kWindowS = 7.5;
/** Traced runs cycle instrumentation modes in slices of this length. */
constexpr double kSliceS = 0.5;

/** Batch-1 service time of the soak model's full path, measured on a
 *  4-vCPU KVM guest with three pool threads (6.6 ms closed loop, 7.8
 *  ms under this open loop). A fixed number, so the deadlines do not
 *  follow the commit under test. */
constexpr double kServiceMs = 7.0;

struct ClassSpec
{
    ServeClass cls;
    double deadlineMs; ///< From the scheduled send time; 0 = none.
};

// Each class gets an equal share of the requests.
const ClassSpec kClasses[] = {
    {ServeClass::Critical, 2 * kServiceMs},
    {ServeClass::Interactive, 3 * kServiceMs},
    {ServeClass::Batch, 0.0},
};

bool
onTime(const ClassSpec &spec, double latency_ms)
{
    return spec.deadlineMs > 0 ? latency_ms <= spec.deadlineMs
                               : std::isfinite(latency_ms);
}

/** What the benchmark keeps of one response. */
struct Outcome
{
    uint64_t id = 0;
    StatusCode code = StatusCode::Ok;
    bool matches = false; ///< Output equals its golden.
    bool downgraded = false;
    int config = -1;      ///< LUT index that served it.
    double totalMs = 0.0;
    size_t batchSize = 0;
    LatencyBreakdown breakdown;
};

struct Planned
{
    double atS = 0.0;
    size_t cls = 0;
    size_t image = 0;
    int mode = kPlain;
};

/**
 * Every request's budget buys the full config, so latency has one mode
 * per run. Requests on a cheaper config would form a second cluster
 * below it; the median then sits on the edge of the full config's
 * cluster and moves far more than throughput does (30% against 12%
 * between two runs measured that way). The budget sits
 * 1.5x above the LUT cost: admission scales a budget down by (1 +
 * congestion pressure), and the margin keeps the choice independent
 * of momentary pool depth, so delivered accuracy only moves when
 * admission or the engine really degrades a request.
 */
double
budgetOf(const AccuracyResourceLut &lut)
{
    return 1.5 * lut.best().resourceCost;
}

/** Median over equal windows of the schedule of each window's p90. */
double
windowedP90(const std::vector<Planned> &plan,
            const std::vector<double> &latency_ms, double seconds,
            size_t *windows_out)
{
    const size_t windows =
        std::max<size_t>(1, static_cast<size_t>(seconds / kWindowS));
    std::vector<std::vector<double>> in(windows);
    for (size_t k = 0; k < plan.size(); ++k)
        in[std::min(windows - 1, static_cast<size_t>(plan[k].atS / seconds *
                                                     windows))]
            .push_back(latency_ms[k]);
    std::vector<double> p90;
    for (const std::vector<double> &w : in)
        p90.push_back(quantile(w, 0.9));
    *windows_out = windows;
    return quantile(p90, 0.5);
}

} // namespace

RunReport
runServeOpen(const RunArgs &args, const Goldens &goldens)
{
    // Set up once before the window and, untraced, spread over it (see
    // kSetupGapNs); traced runs set up in a burst, so set-up work never
    // lands in their window-wide counters.
    const bool spread_setups = !args.trace;
    const int setups = spread_setups ? 1 : 31;
    RunReport report;
    std::vector<double> setup_s, sweep_ms, create_ms, lint_ms;
    ServeSchedulerOptions options;
    options.maxBatch = kMaxBatch;
    options.initialCostScale = kInitialCostScale;

    // One timed set-up: engine plus a scheduler over it.
    auto timedSetup = [&]() -> std::unique_ptr<EngineBox> {
        double sweep = 0, create = 0;
        std::unique_ptr<EngineBox> made =
            setupEngine(ModelId::Soak, 0, &sweep, &create);
        if (!made)
            return made;
        const int64_t t0 = nowNs();
        auto probe = std::make_unique<ServeScheduler>(*made->engine, options);
        create += static_cast<double>(nowNs() - t0) / 1e6;
        probe.reset(); // teardown is not set-up
        sweep_ms.push_back(sweep);
        create_ms.push_back(create);
        setup_s.push_back((sweep + create) / 1e3);
        return made;
    };
    std::unique_ptr<EngineBox> box;
    for (int i = 0; i < setups; ++i) {
        box.reset();
        box = timedSetup();
        if (!box) {
            report.correct = false;
            return report;
        }
    }
    for (int i = 0; i < 5; ++i)
        lint_ms.push_back(lintMs(ModelId::Soak, box->lut));
    DrtEngine &engine = *box->engine;
    const AccuracyResourceLut &lut = box->lut;
    const size_t paths = lut.entries().size();
    const std::vector<Tensor> bank = imageBank(ModelId::Soak);

    // The schedule.
    Rng rng(args.seed);
    const size_t total = static_cast<size_t>(
        std::llround(kRatePerS * args.seconds));
    std::vector<Planned> plan(total);
    std::vector<double> times(total);
    for (double &t : times)
        t = rng.uniform(0.0, args.seconds);
    std::sort(times.begin(), times.end());
    std::vector<size_t> classes(total);
    for (size_t k = 0; k < total; ++k)
        classes[k] = k % 3;
    for (size_t i = total; i > 1; --i)
        std::swap(classes[i - 1], classes[static_cast<size_t>(rng.uniformInt(
                                      0, static_cast<int64_t>(i) - 1))]);
    for (size_t k = 0; k < total; ++k) {
        plan[k].atS = times[k];
        plan[k].cls = classes[k];
        plan[k].image = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(bank.size()) - 1));
        plan[k].mode = args.trace
                           ? static_cast<int>(times[k] / kSliceS) % 4
                           : kPlain;
    }

    // Request ids are handed out in submit order from 1, and one
    // thread submits, so request k of the plan gets id first_id + k.
    const uint64_t first_id = kWarmupRequests + 1;
    std::unique_ptr<LayerRecorder> rec;
    if (args.trace) {
        rec = std::make_unique<LayerRecorder>(lut, modelConfig(ModelId::Soak));
        rec->enableRequestMode(first_id + total);
        for (size_t k = 0; k < total; ++k)
            rec->recordMask()[first_id + k] =
                plan[k].mode == kHook || plan[k].mode == kHook2;
        // Installed before the scheduler starts: from then on its
        // dispatcher is the engine's only caller.
        for (size_t p = 0; p < paths; ++p)
            engine.pathExecutor(p).setPostLayerHook(rec->hook(p));
    }

    ServeScheduler scheduler(engine, options);
    for (int i = 0; i < kWarmupRequests; ++i) {
        ServeRequest request;
        request.image = bank[static_cast<size_t>(i) % bank.size()];
        const ClassSpec &spec = kClasses[static_cast<size_t>(i) % 3];
        request.budget = budgetOf(lut);
        request.priority = spec.cls;
        scheduler.submit(std::move(request)).get();
    }

    MetricsRegistry &registry = MetricsRegistry::instance();
    Counter &misses = registry.counter("engine.executor_cache_misses");
    Counter &pool_tasks = registry.counter("pool.tasks");
    Histogram &pool_wait = registry.histogram("pool.task_wait_ms");
    registry.reset();

    // A collector thread resolves the futures in submit order, checks
    // each output against its golden and keeps only a summary, so the
    // benchmark does not hold every output tensor until the end.
    std::vector<std::future<ServeResponse>> futures(total);
    std::vector<Outcome> outcomes(total);
    std::mutex mutex;
    std::condition_variable published_cv;
    size_t published = 0;
    std::atomic<size_t> resolved{0};
    std::thread collector([&] {
        for (size_t k = 0; k < total; ++k) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                published_cv.wait(lock, [&] { return published > k; });
            }
            const ServeResponse r = futures[k].get();
            Outcome &o = outcomes[k];
            o.id = r.id;
            o.code = r.status.code();
            o.downgraded = r.downgraded;
            o.totalMs = r.totalMs;
            o.batchSize = r.batchSize;
            o.breakdown = r.breakdown;
            if (!r.status.isOk()) {
                resolved.store(k + 1);
                continue;
            }
            for (size_t c = 0; c < paths; ++c)
                if (lut.entries()[c].config.label == r.result.configLabel)
                    o.config = static_cast<int>(c);
            o.matches = goldens.matches(ModelId::Soak, r.result.configLabel,
                                        plan[k].image, r.result.output);
            resolved.store(k + 1);
        }
    });

    std::vector<double> lag_ms(total), admit_us(total);
    const AllocCounts a0 = allocCounts();
    const int64_t cpu0 = cpuNs();
    const int64_t start = nowNs() + 5000000;
    int tracer_mode = -1;
    double peak_rss_mb = 0;
    int64_t setup_cpu_ns = 0, next_setup = 0;
    for (size_t k = 0; k < total; ++k) {
        const Planned &p = plan[k];
        const ClassSpec &spec = kClasses[p.cls];
        const int64_t due = start + static_cast<int64_t>(p.atS * 1e9);
        // Wait for the requests in flight, then set up if the gap
        // still allows it.
        while (spread_setups && k >= total / 4 && nowNs() >= next_setup &&
               due - nowNs() >= kSetupGapNs && resolved.load() != k)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (spread_setups && k >= total / 4 && nowNs() >= next_setup &&
            due - nowNs() >= kSetupGapNs && resolved.load() == k) {
            if (peak_rss_mb == 0)
                peak_rss_mb = peakRssMb();
            const int64_t c0 = cpuNs();
            if (!timedSetup())
                report.correct = false;
            setup_cpu_ns += cpuNs() - c0;
            next_setup = nowNs() + static_cast<int64_t>(kSetupEveryS * 1e9);
        }
        ServeRequest request;
        request.image = bank[p.image];
        request.budget = budgetOf(lut);
        request.priority = spec.cls;
        if (args.trace && (p.mode == kTracer) != (tracer_mode == kTracer)) {
            Tracer::instance().setEnabled(p.mode == kTracer);
            tracer_mode = p.mode;
        }
        // Sleep to just before the send time, then spin: a plain
        // sleep wakes late by scheduler latency, which would read as
        // generator lag.
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(due - kSpinNs)));
        while (nowNs() < due) {
        }
        const int64_t t0 = nowNs();
        futures[k] = scheduler.submit(std::move(request));
        const int64_t t1 = nowNs();
        lag_ms[k] = static_cast<double>(t0 - due) / 1e6;
        admit_us[k] = static_cast<double>(t1 - t0) / 1e3;
        {
            std::lock_guard<std::mutex> lock(mutex);
            published = k + 1;
        }
        published_cv.notify_one();
    }
    collector.join();
    const double span_s = static_cast<double>(nowNs() - start) / 1e9;
    const int64_t cpu1 = cpuNs();
    const AllocCounts a1 = allocCounts();
    Tracer::instance().setEnabled(false);
    Tracer::instance().clear();
    scheduler.shutdown(true);

    std::vector<double> latency_ms, critical_ms, queue_ms, batch;
    double engine_ms_total = 0;
    std::vector<uint64_t> ok_by_config(paths, 0);
    uint64_t ok = 0, on_time = 0, downgraded = 0, rejected = 0, late = 0;
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < total; ++k) {
        const Outcome &r = outcomes[k];
        const ClassSpec &spec = kClasses[plan[k].cls];
        if (r.id != first_id + k)
            report.correct = false; // ids must follow submit order
        if (r.downgraded)
            ++downgraded;
        if (r.code == StatusCode::Rejected)
            ++rejected;
        double lat = inf;
        if (r.code == StatusCode::Ok) {
            if (r.matches) {
                ++ok;
                lat = lag_ms[k] + r.totalMs;
                ++ok_by_config[static_cast<size_t>(r.config)];
            } else {
                report.correct = false;
            }
            queue_ms.push_back(r.breakdown.queueMs);
            batch.push_back(static_cast<double>(r.batchSize));
            engine_ms_total += r.breakdown.engineMs;
        }
        if (onTime(spec, lat))
            ++on_time;
        else
            ++late;
        latency_ms.push_back(lat);
        if (spec.cls == ServeClass::Critical)
            critical_ms.push_back(lat);
    }
    report.attempted = total;
    report.failed = total - ok;
    size_t windows = 0;
    const double window_p90 =
        windowedP90(plan, latency_ms, args.seconds, &windows);
    // The engine is idle during a spread set-up, so its CPU time is
    // the set-up's own.
    const double cpu_ms = static_cast<double>(cpu1 - cpu0 - setup_cpu_ns) / 1e6;

    {
        char line[200];
        std::string t = "serve_open: " + std::to_string(total) +
                        " requests at " + std::to_string(kRatePerS) +
                        "/s over " + std::to_string(args.seconds) + " s\n";
        std::snprintf(line, sizeof line, "%-12s %6s %9s %9s %9s %8s\n",
                      "class", "sent", "deadline", "p50 ms", "p95 ms",
                      "on time");
        t += line;
        for (size_t c = 0; c < 3; ++c) {
            std::vector<double> lat;
            uint64_t in_time = 0;
            for (size_t k = 0; k < total; ++k)
                if (plan[k].cls == c) {
                    lat.push_back(latency_ms[k]);
                    in_time += onTime(kClasses[c], latency_ms[k]);
                }
            const std::string deadline =
                kClasses[c].deadlineMs > 0
                    ? std::to_string(
                          static_cast<int>(kClasses[c].deadlineMs)) +
                          " ms"
                    : "none";
            std::snprintf(line, sizeof line,
                          "%-12s %6zu %9s %9.3f %9.3f %8llu\n",
                          serveClassName(kClasses[c].cls), lat.size(),
                          deadline.c_str(), quantile(lat, 0.5),
                          quantile(lat, 0.95),
                          static_cast<unsigned long long>(in_time));
            t += line;
        }
        std::snprintf(line, sizeof line,
                      "all: p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f ms\n",
                      quantile(latency_ms, 0.5), quantile(latency_ms, 0.9),
                      quantile(latency_ms, 0.95), quantile(latency_ms, 0.99));
        t += line;
        std::snprintf(line, sizeof line,
                      "p90 by window: median %.3f ms over %zu windows\n",
                      window_p90, windows);
        t += line;
        report.tables.push_back(t);
    }

    const std::string n = countNote(total);
    if (!args.trace) {
        report.add("setup_s", quantile(setup_s, 0.5), "s",
                   "median of " + std::to_string(setup_s.size()));
        report.add("peak_rss_mb", peak_rss_mb > 0 ? peak_rss_mb : peakRssMb(),
                   "MiB", "before the first spread set-up");
        report.add("frames_per_s",
                   engine_ms_total > 0 ? ok / (engine_ms_total / 1e3) : 0,
                   "1/s", "OK requests / engine time");
        report.add("goodput_rps", static_cast<double>(on_time) / span_s,
                   "1/s", "OK within deadline / same span");
        report.add("latency_ms_p50", quantile(latency_ms, 0.5), "ms", n);
        report.add("latency_ms_p90", window_p90, "ms",
                   "median of " + std::to_string(windows) +
                       " windows' p90, " + n);
        report.add("cpu_ms_per_frame", cpu_ms / static_cast<double>(total),
                   "ms", n);
        report.add("delivered_accuracy",
                   deliveredAccuracy(ok_by_config, total, lut), "frac", n);
        report.add("ok_frac", static_cast<double>(ok) / total, "frac", n);
        return report;
    }

    // --- traced run ---
    report.add("serve.admit_us_p50", quantile(admit_us, 0.5), "us", n);
    report.add("serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms",
               countNote(queue_ms.size()));
    report.add("serve.queue_ms_p95", quantile(queue_ms, 0.95), "ms",
               countNote(queue_ms.size()));
    report.add("serve.batch_size_mean", mean(batch), "count",
               countNote(batch.size()));
    report.add("serve.downgrade_frac", static_cast<double>(downgraded) / total,
               "frac", n);
    report.add("serve.reject_frac", static_cast<double>(rejected) / total,
               "frac", n);
    report.add("serve.deadline_miss_frac", static_cast<double>(late) / total,
               "frac", n);
    report.add("serve.gen_lag_ms_p95", quantile(lag_ms, 0.95), "ms", n);
    report.add("serve.latency_ms_p95", quantile(latency_ms, 0.95), "ms", n);
    report.add("serve.critical_latency_ms_p95", quantile(critical_ms, 0.95),
               "ms", countNote(critical_ms.size()));

    // Per request: the hooks cover its first to its last hook; the
    // rest of its engine time (from the breakdown) is engine overhead.
    std::vector<double> overhead_ms;
    std::vector<std::vector<double>> run_ms(paths);
    ModeTimes mode_ms(paths);
    double covered_ns = 0, engine_ns = 0, recorded = 0;
    for (size_t k = 0; k < total; ++k) {
        const Outcome &r = outcomes[k];
        if (r.code != StatusCode::Ok || r.config < 0)
            continue;
        const size_t cfg = static_cast<size_t>(r.config);
        mode_ms.add(plan[k].mode, cfg, r.breakdown.engineMs);
        if (plan[k].mode != kHook && plan[k].mode != kHook2)
            continue;
        const LayerRecorder::Span &span = rec->requests()[first_id + k];
        if (span.firstHookNs == 0)
            continue;
        const double sum = static_cast<double>(span.coveredNs());
        covered_ns += sum;
        engine_ns += r.breakdown.engineMs * 1e6;
        ++recorded;
        overhead_ms.push_back(r.breakdown.engineMs - sum / 1e6);
        run_ms[cfg].push_back(sum / 1e6);
    }

    report.add("engine.overhead_ms_p50", quantile(overhead_ms, 0.5), "ms",
               countNote(overhead_ms.size()));
    report.add("engine.switch_ms_p50", 0, "ms", "all paths resident");
    report.add("engine.switch_ms_p90", 0, "ms", "all paths resident");
    report.add("engine.cache_miss_frac",
               static_cast<double>(misses.value()) / total, "frac", n);
    report.add("engine.weights_synth_per_miss", 0, "count", "no misses");
    mode_ms.reportCostRatios(lut, report);
    report.add("executor.run_ms_p50.cheapest", quantile(run_ms.front(), 0.5),
               "ms", countNote(run_ms.front().size()));
    report.add("executor.run_ms_p50.full", quantile(run_ms.back(), 0.5), "ms",
               countNote(run_ms.back().size()));
    report.add("executor.peak_live_mb",
               static_cast<double>(
                   engine.pathExecutor(paths - 1).lastRunStats().peakLiveBytes) /
                   1048576.0,
               "MiB", "full config");
    report.add("executor.certified_peak_mb",
               static_cast<double>(engine.certifiedPeakBytes(paths - 1)) /
                   1048576.0,
               "MiB", "full config");
    report.add("alloc.count_per_frame",
               static_cast<double>(a1.count - a0.count) / total, "count",
               "all threads, whole window, " + n);
    report.add("alloc.mb_per_frame",
               static_cast<double>(a1.bytes - a0.bytes) / 1048576.0 / total,
               "MiB", "all threads, whole window, " + n);
    layerReport(*rec, recorded, report);
    report.add("pool.parallel_efficiency",
               engine_ms_total > 0
                   ? cpu_ms / (engine_ms_total * kPoolThreads)
                   : 0,
               "frac", "CPU / (engine time x 3)");
    const HistogramSnapshot wait = pool_wait.snapshot("pool.task_wait_ms");
    report.add("pool.task_wait_ms_p50", wait.quantile(0.5), "ms",
               countNote(wait.count));
    report.add("pool.tasks_per_frame",
               static_cast<double>(pool_tasks.value()) / total, "count", n);
    report.add("setup.sweep_ms", quantile(sweep_ms, 0.5), "ms");
    report.add("setup.engine_create_ms", quantile(create_ms, 0.5), "ms",
               "engine + scheduler");
    report.add("setup.lint_ms", quantile(lint_ms, 0.5), "ms");
    report.add("obs.hook_overhead_frac", mode_ms.overhead(kHook), "frac");
    report.add("obs.tracer_overhead_frac", mode_ms.overhead(kTracer), "frac");
    report.add("obs.hook_coverage_frac",
               engine_ns > 0 ? covered_ns / engine_ns : 0, "frac",
               "first-to-last hook / engine time");
    return report;
}

} // namespace drtbench
