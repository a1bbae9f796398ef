/**
 * @file
 * Multi-tenant serving soak bench — the paper's dynamic-inference
 * scenario pushed to overload. N concurrent video streams (tenants)
 * submit frames to one ServeScheduler over one DRT engine; each
 * stream carries its own budget, priority class, and per-frame
 * deadline. The bench drives the system past saturation
 * (--overload 2 means frames arrive at twice the measured service
 * rate) and reports, per class, p50/p99 end-to-end latency and the
 * deadline-miss rate — the graceful-degradation story in one table:
 * under overload the admission controller first walks requests down
 * the LUT frontier (downgrades), then sheds load (rejections), and
 * Critical-class misses stay rare while Batch absorbs the pain.
 *
 *   ./drt_video_pipeline [--streams 8] [--requests 24] [--overload 2]
 *       [--faults] [--seed 3] [--threads N] [--csv soak.csv]
 *       [--trace-out trace.json] [--metrics-out metrics.csv]
 *       [--flight-dir DIR]
 *
 * --faults injects NaN poison into every execution path that keeps
 * two blocks per stage, so mid-soak the engine quarantines its
 * high-accuracy paths and reroutes onto pruned ones — every request
 * still gets exactly one terminal response.
 *
 * --flight-dir arms the anomaly flight recorder: deadline misses and
 * quarantine reroutes dump the affected request's span chain plus a
 * metrics snapshot into DIR (feed them to vitdyn_tracetool). The
 * bench re-measures the calibration frames with the recorder armed
 * and prints the armed-vs-disarmed overhead, which the recorder's
 * contract keeps under 5%.
 *
 * Besides the per-class outcome table the bench prints a p99
 * latency-attribution table from every request's LatencyBreakdown:
 * for each class's tail (requests at or above the p99 total), the
 * share of wall time spent in admission / queue / batch assembly /
 * engine dispatch / kernels / pool wait.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.hh"

#include "engine/engine.hh"
#include "fault/fault.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "profile/gpu_model.hh"
#include "serve/scheduler.hh"
#include "util/args.hh"
#include "util/csv.hh"
#include "util/threadpool.hh"
#include "workload/synthetic.hh"

using namespace vitdyn;

namespace
{

/** One tenant's bookkeeping: the futures it is owed plus labels. */
struct StreamLog
{
    ServeClass cls = ServeClass::Interactive;
    double budget = 0;
    std::vector<std::future<ServeResponse>> futures;
};

/** Per-class aggregation across every stream. */
struct ClassSummary
{
    uint64_t submitted = 0, completed = 0, downgraded = 0,
             rejected = 0, expired = 0, rerouted = 0, cancelled = 0;
    std::vector<double> latencyMs; // completed requests only
    /** (total ms, breakdown) of every request that reached the
     *  dispatcher — the attribution table's input. */
    std::vector<std::pair<double, LatencyBreakdown>> breakdowns;
};

double
percentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t index = static_cast<size_t>(std::min(
        values.size() - 1.0,
        std::ceil(p * static_cast<double>(values.size())) - 1.0));
    return values[index];
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addOption("streams", "8", "number of concurrent tenants");
    args.addOption("requests", "24", "frames submitted per stream");
    args.addOption("overload", "2",
                   "arrival rate as a multiple of the measured "
                   "service rate (2 = saturating 2x load)");
    args.addFlag("faults", "inject NaN poison into the full-depth "
                           "paths mid-soak (quarantine + reroute)");
    args.addOption("seed", "3", "stream randomness seed");
    args.addOption("csv", "", "write the per-class summary here");
    args.addOption("trace-out", "",
                   "write a Chrome trace-event JSON here");
    args.addOption("metrics-out", "",
                   "write a metrics snapshot here (.json for JSON, "
                   "anything else CSV)");
    args.addOption("flight-dir", "",
                   "arm the anomaly flight recorder; dumps land in "
                   "this directory (must exist)");
    args.addOption("threads", "0",
                   "kernel thread-pool size (0 = VITDYN_THREADS or "
                   "hardware default)");
    args.parse(argc, argv);

    const int streams =
        std::max(1, static_cast<int>(args.getInt("streams")));
    const int per_stream =
        std::max(1, static_cast<int>(args.getInt("requests")));
    const double overload =
        std::max(0.1, args.getDouble("overload"));
    const int threads = static_cast<int>(args.getInt("threads"));
    if (threads > 0)
        ThreadPool::instance().resize(threads);
    if (!args.get("trace-out").empty())
        Tracer::instance().setEnabled(true);

    // A scaled-down SegFormer so real tensor execution is quick.
    SegformerConfig base;
    base.name = "segformer_soak";
    base.imageH = base.imageW = 64;
    base.numClasses = 8;
    base.embedDims = {8, 16, 24, 32};
    base.depths = {2, 2, 2, 2};
    base.numHeads = {1, 2, 3, 4};
    base.decoderDim = 32;

    // Offline: sweep alternative execution paths (Section III) and
    // build the Pareto LUT (Section IV, block A) — the frontier
    // doubles as the serving degradation ladder.
    GpuLatencyModel gpu;
    AccuracyModel acc(PrunedModelKind::SegformerB2Ade);
    std::vector<PruneConfig> candidates = {
        {"full", {2, 2, 2, 2}, 0, 0, 0, 0, 0},
        {"fuse96", {2, 2, 2, 2}, 96, 0, 0, 0, 0},
        {"fuse64", {2, 2, 2, 2}, 64, 0, 0, 0, 0},
        {"slim", {1, 2, 2, 2}, 64, 0, 0, 0, 0},
        {"tiny", {1, 1, 1, 1}, 48, 0, 0, 0, 0},
    };
    auto points = sweepSegformer(
        base, candidates, acc,
        [&](const Graph &g) { return gpu.graphTimeMs(g); });
    AccuracyResourceLut lut(points, "ms");
    inform("LUT holds ", lut.entries().size(),
           " Pareto-optimal execution paths (",
           lut.cheapest().resourceCost, " - ",
           lut.best().resourceCost, " modeled ms)");

    DrtEngine engine(ModelFamily::Segformer, base, SwinConfig{}, lut,
                     7);
    EngineResilienceConfig resilience;
    resilience.enabled = true;
    resilience.health.enabled = true;
    resilience.maxRetries = 2;
    resilience.probationFrames = 64;
    engine.setResilience(resilience);

    FaultPlan plan;
    plan.seed = args.getInt("seed");
    FaultInjector injector(plan);
    if (args.getFlag("faults")) {
        // ".block1." exists only where a stage kept both blocks, so
        // the pruned paths stay healthy and absorb the reroutes.
        plan.specs.push_back(
            {FaultKind::NaNPoison, ".block1.", 1.0, 8, 0.0});
        injector = FaultInjector(plan);
        engine.setFaultInjector(&injector);
        inform("fault injection ON: full-depth paths will be "
               "quarantined mid-soak");
    }

    // Calibrate the service rate: a few frames on the best path give
    // wall-ms per frame, which sets both the arrival pacing and the
    // scheduler's initial cost scale.
    SyntheticSegmentation gen(64, 64, 8);
    Rng rng(args.getInt("seed"));
    double service_ms = 0.0;
    {
        SegmentationSample warm = gen.nextSample(rng);
        engine.infer(warm.image, lut.best().resourceCost); // warm-up
        const auto t0 = std::chrono::steady_clock::now();
        constexpr int kCalibration = 3;
        for (int i = 0; i < kCalibration; ++i)
            engine.infer(warm.image, lut.best().resourceCost);
        service_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     kCalibration;
    }
    inform("measured service time: ", service_ms,
           " ms/frame on the full path");

    // Arm the anomaly flight recorder, and quantify what arming
    // costs. Alternating armed/disarmed rounds and comparing the
    // per-state minima cancels machine drift, which on a loaded host
    // dwarfs the real ring-capture cost a one-shot A/B would report.
    if (!args.get("flight-dir").empty()) {
        SegmentationSample probe = gen.nextSample(rng);
        FlightRecorderOptions fr;
        fr.directory = args.get("flight-dir");
        FlightRecorder &recorder = FlightRecorder::instance();

        constexpr int kRounds = 4;
        constexpr int kFramesPerRound = 4;
        double disarmed_ms = std::numeric_limits<double>::infinity();
        double armed_ms = std::numeric_limits<double>::infinity();
        for (int round = 0; round < 2 * kRounds; ++round) {
            const bool armed = round % 2 == 1;
            if (armed)
                recorder.arm(fr);
            else
                recorder.disarm();
            const auto t0 = std::chrono::steady_clock::now();
            for (int i = 0; i < kFramesPerRound; ++i)
                engine.infer(probe.image, lut.best().resourceCost);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count() /
                kFramesPerRound;
            (armed ? armed_ms : disarmed_ms) =
                std::min(armed ? armed_ms : disarmed_ms, ms);
        }
        const double overhead_pct =
            disarmed_ms > 0.0
                ? 100.0 * (armed_ms - disarmed_ms) / disarmed_ms
                : 0.0;
        std::printf("flight recorder armed: %.3f ms/frame disarmed "
                    "vs %.3f ms/frame armed (%+.1f%% overhead, "
                    "contract <= 5%%)\n",
                    disarmed_ms, armed_ms, overhead_pct);
        recorder.arm(fr); // the soak runs with the recorder on
    }

    ServeSchedulerOptions options;
    options.admission.queueCapacity =
        static_cast<size_t>(streams) * static_cast<size_t>(per_stream);
    options.maxBatch = 4;
    options.initialCostScale =
        service_ms / std::max(1e-9, lut.best().resourceCost);
    ServeScheduler scheduler(engine, options);

    // Arrival pacing: all streams together offer `overload` times the
    // measured service rate, spread evenly across streams.
    const double interval_ms =
        static_cast<double>(streams) * service_ms / overload;
    // Deadline headroom per class, in service times: tight for
    // Critical (but wider than one full dispatch batch, which is the
    // worst head-of-line wait strict priority can see), looser for
    // Interactive, none for Batch. Batch absorbs overload by queueing.
    const double headroom[kServeClasses] = {16.0, 24.0, 0.0};

    std::vector<StreamLog> logs(static_cast<size_t>(streams));
    std::vector<std::thread> tenants;
    const auto soak_start = std::chrono::steady_clock::now();
    for (int s = 0; s < streams; ++s) {
        StreamLog &log = logs[static_cast<size_t>(s)];
        log.cls = static_cast<ServeClass>(s % kServeClasses);
        // Distinct budgets: streams span 60%..120% of the costliest
        // frontier entry, so some streams start mid-ladder.
        const double frac =
            streams > 1
                ? static_cast<double>(s) / (streams - 1.0)
                : 1.0;
        log.budget = lut.best().resourceCost * (0.6 + 0.6 * frac);
        log.futures.reserve(static_cast<size_t>(per_stream));
        tenants.emplace_back([&, s] {
            StreamLog &me = logs[static_cast<size_t>(s)];
            Rng stream_rng(
                static_cast<uint64_t>(args.getInt("seed") + 17 * s));
            SyntheticSegmentation frames(64, 64, 8);
            const double slack =
                headroom[static_cast<size_t>(me.cls)];
            for (int i = 0; i < per_stream; ++i) {
                ServeRequest request;
                request.image = frames.nextSample(stream_rng).image;
                request.budget = me.budget;
                request.priority = me.cls;
                if (slack > 0.0)
                    request.deadline =
                        deadlineAfterMs(slack * service_ms);
                me.futures.push_back(
                    scheduler.submit(std::move(request)));
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        interval_ms));
            }
        });
    }
    for (std::thread &t : tenants)
        t.join();

    // Every submitted request resolves to exactly one terminal
    // outcome; a hung future here would be a lost response.
    ClassSummary classes[kServeClasses];
    for (StreamLog &log : logs) {
        ClassSummary &summary =
            classes[static_cast<size_t>(log.cls)];
        for (auto &future : log.futures) {
            const ServeResponse response = future.get();
            ++summary.submitted;
            if (response.totalMs > 0.0)
                summary.breakdowns.emplace_back(response.totalMs,
                                                response.breakdown);
            if (response.status.isOk()) {
                ++summary.completed;
                summary.latencyMs.push_back(response.totalMs);
                if (response.downgraded)
                    ++summary.downgraded;
                if (response.rerouted)
                    ++summary.rerouted;
            } else if (response.status.code() ==
                       StatusCode::DeadlineExceeded) {
                ++summary.expired;
            } else if (response.status.code() ==
                       StatusCode::Cancelled) {
                ++summary.cancelled;
            } else {
                ++summary.rejected;
            }
        }
    }
    scheduler.shutdown(true);
    const double soak_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - soak_start)
            .count();

    const ServeScheduler::Stats stats = scheduler.stats();
    inform("soak: ", stats.submitted, " requests over ", soak_ms,
           " ms at ", overload, "x load — ", stats.completed,
           " completed, ", stats.downgraded, " downgraded, ",
           stats.rejected, " rejected, ", stats.expired,
           " expired, ", stats.rerouted, " rerouted");

    std::printf("%-12s %-6s %-6s %-6s %-6s %-6s %-6s %-9s %-9s %-7s\n",
                "class", "sub", "done", "down", "rej", "exp", "rrt",
                "p50(ms)", "p99(ms)", "miss%");
    std::vector<std::vector<std::string>> csv_rows;
    csv_rows.push_back({"class", "submitted", "completed",
                        "downgraded", "rejected", "expired",
                        "rerouted", "p50_ms", "p99_ms",
                        "miss_rate"});
    for (size_t i = 0; i < kServeClasses; ++i) {
        ClassSummary &summary = classes[i];
        const double p50 = percentile(summary.latencyMs, 0.50);
        const double p99 = percentile(summary.latencyMs, 0.99);
        const uint64_t total = stats.deadlineTotal[i];
        const double miss =
            total > 0 ? 100.0 * stats.deadlineMisses[i] /
                            static_cast<double>(total)
                      : 0.0;
        std::printf(
            "%-12s %-6llu %-6llu %-6llu %-6llu %-6llu %-6llu "
            "%-9.2f %-9.2f %-7.2f\n",
            serveClassName(static_cast<ServeClass>(i)),
            static_cast<unsigned long long>(summary.submitted),
            static_cast<unsigned long long>(summary.completed),
            static_cast<unsigned long long>(summary.downgraded),
            static_cast<unsigned long long>(summary.rejected),
            static_cast<unsigned long long>(summary.expired),
            static_cast<unsigned long long>(summary.rerouted), p50,
            p99, miss);
        csv_rows.push_back(
            {serveClassName(static_cast<ServeClass>(i)),
             std::to_string(summary.submitted),
             std::to_string(summary.completed),
             std::to_string(summary.downgraded),
             std::to_string(summary.rejected),
             std::to_string(summary.expired),
             std::to_string(summary.rerouted), std::to_string(p50),
             std::to_string(p99), std::to_string(miss / 100.0)});
    }

    // Tail attribution: for each class, average the LatencyBreakdown
    // shares over the requests at or above the p99 total — the
    // one-table answer to "what is the tail waiting on?".
    std::printf("\nper-class p99 latency attribution "
                "(tail = requests >= p99 total)\n");
    std::printf("%-12s %6s %9s | %6s %6s %6s %6s %6s %6s\n", "class",
                "n", "p99(ms)", "adm%", "queue%", "batch%", "eng%",
                "kern%", "pool%");
    for (size_t i = 0; i < kServeClasses; ++i) {
        ClassSummary &summary = classes[i];
        if (summary.breakdowns.empty()) {
            std::printf("%-12s %6d %9s |\n",
                        serveClassName(static_cast<ServeClass>(i)), 0,
                        "-");
            continue;
        }
        std::vector<double> totals;
        totals.reserve(summary.breakdowns.size());
        for (const auto &[total, b] : summary.breakdowns)
            totals.push_back(total);
        const double p99 = percentile(totals, 0.99);
        double adm = 0, queue = 0, batch = 0, eng = 0, kern = 0,
               pool = 0, denom = 0;
        for (const auto &[total, b] : summary.breakdowns) {
            if (total < p99)
                continue;
            adm += b.admissionMs;
            queue += b.queueMs;
            batch += b.batchAssemblyMs;
            eng += std::max(0.0, b.engineMs - b.kernelMs);
            kern += b.kernelMs;
            pool += b.poolWaitMs;
            denom += b.admissionMs + b.queueMs + b.batchAssemblyMs +
                     b.engineMs;
        }
        if (denom <= 0.0)
            denom = 1.0;
        std::printf("%-12s %6zu %9.2f | %5.1f%% %5.1f%% %5.1f%% "
                    "%5.1f%% %5.1f%% %5.1f%%\n",
                    serveClassName(static_cast<ServeClass>(i)),
                    summary.breakdowns.size(), p99,
                    100.0 * adm / denom, 100.0 * queue / denom,
                    100.0 * batch / denom, 100.0 * eng / denom,
                    100.0 * kern / denom, 100.0 * pool / denom);
    }
    std::printf("\n");

    if (!args.get("csv").empty()) {
        std::ofstream out(args.get("csv"));
        for (const auto &row : csv_rows)
            out << csvJoin(row) << "\n";
        if (out.good())
            inform("wrote per-class summary to ", args.get("csv"));
        else
            warn("failed writing ", args.get("csv"));
    }
    if (!args.get("trace-out").empty()) {
        const Status status = writeChromeTrace(
            Tracer::instance().events(), args.get("trace-out"));
        if (status)
            inform("wrote Chrome trace to ", args.get("trace-out"),
                   " (load in chrome://tracing)");
        else
            warn(status.message());
    }
    if (!args.get("metrics-out").empty()) {
        const Status status = MetricsRegistry::instance()
                                  .snapshot()
                                  .write(args.get("metrics-out"));
        if (status)
            inform("wrote metrics snapshot to ",
                   args.get("metrics-out"));
        else
            warn(status.message());
    }

    if (FlightRecorder::instance().armed()) {
        FlightRecorder &recorder = FlightRecorder::instance();
        inform("flight recorder: ", recorder.triggers(),
               " trigger(s), ", recorder.dumps(),
               " dump(s) written");
        for (const std::string &path : recorder.dumpPaths())
            inform("  ", path, "  (inspect with vitdyn_tracetool)");
        recorder.disarm();
    }

    // The soak's pass condition: nothing was lost. (The driver smoke
    // relies on this exit code.)
    uint64_t resolved = 0;
    for (const ClassSummary &summary : classes)
        resolved += summary.completed + summary.rejected +
                    summary.expired + summary.cancelled;
    if (resolved != stats.submitted) {
        warn("lost responses: resolved ", resolved, " of ",
             stats.submitted);
        return 1;
    }
    inform("every request got exactly one terminal outcome");
    return 0;
}
