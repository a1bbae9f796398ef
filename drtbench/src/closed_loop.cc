/**
 * @file
 * The two closed-loop workloads: one client calls DrtEngine::infer,
 * waits for the frame, checks it and sends the next.
 *
 *  - b2_drt: SegFormer-B2 with the Table II frontier, every path
 *    resident. The kernel-heavy workload; every path access hits.
 *  - path_churn: the soak model with a two-path executor cache and
 *    budgets hopping over all five configs, so most frames
 *    rematerialize their path. The engine's path cache is used the
 *    opposite way from b2_drt.
 *
 * Budgets come in blocks that visit every config equally often in a
 * seeded order, so the config mix (and with it throughput and
 * delivered accuracy) does not depend on the seed; only the order, the
 * images and the budgets within each config's band do. A run ends on
 * the first block boundary after --seconds.
 *
 * The soak model sets up in milliseconds, so a burst of set-ups would
 * sample the host's speed at one moment only. On path_churn's untraced
 * run the set-up repetitions are spread over the whole run instead,
 * one at a block boundary every kSetupEveryS, each on a fresh weight
 * store beside the serving engine.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/random.hh"

namespace drtbench
{

namespace
{

struct Frame
{
    size_t config = 0;
    size_t image = 0;
    double budget = 0.0;
};

/** @p reps visits of every config, shuffled with @p rng. */
std::vector<Frame>
nextBlock(Rng &rng, const AccuracyResourceLut &lut, size_t bank, int reps)
{
    std::vector<Frame> block;
    for (int r = 0; r < reps; ++r)
        for (size_t c = 0; c < lut.entries().size(); ++c)
            block.push_back(
                {c,
                 static_cast<size_t>(rng.uniformInt(
                     0, static_cast<int64_t>(bank) - 1)),
                 budgetFor(lut, c, rng.uniform())});
    for (size_t i = block.size(); i > 1; --i)
        std::swap(block[i - 1],
                  block[static_cast<size_t>(rng.uniformInt(
                      0, static_cast<int64_t>(i) - 1))]);
    return block;
}

/** path_churn: interval between spread set-up repetitions. */
constexpr double kSetupEveryS = 0.5;

} // namespace

RunReport
runClosedLoop(const RunArgs &args, const Goldens &goldens)
{
    const bool b2 = args.workload == "b2_drt";
    const ModelId model = b2 ? ModelId::B2 : ModelId::Soak;
    const size_t cache_cap = b2 ? 0 : 2;
    // Set up several times and report the median: B2 in a burst before
    // the loop; the soak model once before it and, untraced, spread
    // over the run (see above). Traced runs keep the burst, so set-up
    // work never lands in their per-frame counters.
    const bool spread_setups = !b2 && !args.trace;
    const int setups = b2 ? 5 : spread_setups ? 1 : 31;
    // path_churn visits every config twice per block so some frames
    // find their path still cached.
    const int reps = b2 ? 1 : 2;
    // Exact counters (misses, allocations) come from the first blocks,
    // which every run completes, so they repeat exactly for a seed.
    const int exact_blocks = b2 ? 4 : 10;

    RunReport report;
    std::vector<double> setup_s, sweep_ms, create_ms, lint_ms;
    std::unique_ptr<EngineBox> box;
    for (int i = 0; i < setups; ++i) {
        box.reset();
        double sweep = 0, create = 0;
        box = setupEngine(model, cache_cap, &sweep, &create);
        if (!box) {
            report.correct = false;
            return report;
        }
        sweep_ms.push_back(sweep);
        create_ms.push_back(create);
        setup_s.push_back((sweep + create) / 1e3);
    }
    for (int i = 0; i < 5; ++i)
        lint_ms.push_back(lintMs(model, box->lut));
    DrtEngine &engine = *box->engine;
    const AccuracyResourceLut &lut = box->lut;
    const size_t paths = lut.entries().size();
    const std::vector<Tensor> bank = imageBank(model);

    // Warm-up (untimed): one frame per config.
    for (size_t c = 0; c < paths; ++c)
        engine.infer(bank[0], budgetFor(lut, c, 0.5));

    MetricsRegistry &registry = MetricsRegistry::instance();
    Counter &misses = registry.counter("engine.executor_cache_misses");
    Counter &synth = registry.counter("weights.synth");
    Counter &slice_synth = registry.counter("weights.slice_synth");
    Counter &pool_tasks = registry.counter("pool.tasks");
    Histogram &pool_wait = registry.histogram("pool.task_wait_ms");
    registry.reset();

    std::unique_ptr<LayerRecorder> rec;
    if (args.trace)
        rec = std::make_unique<LayerRecorder>(lut, modelConfig(model));

    Rng rng(args.seed);
    std::vector<double> latency_ms;
    std::vector<std::vector<double>> config_ms(paths);
    double busy_ns = 0, cpu_ns = 0;
    uint64_t ok = 0;
    std::vector<uint64_t> ok_by_config(paths, 0);
    // Traced-run accumulators.
    std::vector<double> switch_ms, overhead_ms;
    std::vector<std::vector<double>> run_ms(paths);
    ModeTimes mode_ms(paths);
    double hook_infer_ns = 0, hook_sum_ns = 0, hook_frames = 0;
    double hook_cpu_ns = 0;
    uint64_t plain_allocs = 0, plain_bytes = 0, plain_frames = 0;
    uint64_t exact_frames = 0, exact_misses = 0;
    uint64_t exact_synth = 0, exact_slice_synth = 0;
    size_t peak_live = 0, peak_cert = 0;
    uint64_t frame_no = 0;
    double peak_rss_mb = 0;

    const int64_t start = nowNs();
    int64_t next_setup = start;
    for (int block = 0;
         block < exact_blocks ||
         static_cast<double>(nowNs() - start) < args.seconds * 1e9;
         ++block) {
        const bool exact = block < exact_blocks;
        for (const Frame &f : nextBlock(rng, lut, bank.size(), reps)) {
            const int mode = args.trace ? static_cast<int>(frame_no % 4)
                                        : kPlain;
            ++frame_no;
            const uint64_t misses_before = misses.value();
            const AllocCounts a0 = allocCounts();
            const int64_t c0 = cpuNs();
            Executor *ex = nullptr;
            if (args.trace) {
                // Acquire the path from outside so a switch is timed
                // on its own; infer() then finds it cached.
                const uint64_t m0 = misses.value();
                const int64_t s0 = nowNs();
                ex = &engine.pathExecutor(f.config);
                const int64_t s1 = nowNs();
                if (misses.value() != m0)
                    switch_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
                const bool hooked = mode == kHook || mode == kHook2;
                ex->setPostLayerHook(hooked ? rec->hook(f.config)
                                            : Executor::PostLayerHook{});
                if (mode == kTracer)
                    Tracer::instance().setEnabled(true);
            }
            if (rec)
                rec->beginFrame();
            const int64_t t0 = nowNs();
            DrtResult r = engine.infer(bank[f.image], f.budget);
            const int64_t t1 = nowNs();
            const int64_t c1 = cpuNs();
            const AllocCounts a1 = allocCounts();
            if (mode == kTracer) {
                Tracer::instance().setEnabled(false);
                Tracer::instance().clear();
            }

            const std::string &want = lut.entries()[f.config].config.label;
            const bool good = r.configLabel == want &&
                              goldens.matches(model, want, f.image, r.output);
            const double ms = static_cast<double>(t1 - t0) / 1e6;
            busy_ns += static_cast<double>(t1 - t0);
            cpu_ns += static_cast<double>(c1 - c0);
            if (exact) {
                ++exact_frames;
                exact_misses += misses.value() - misses_before;
            }
            if (good) {
                ++ok;
                ++ok_by_config[f.config];
                latency_ms.push_back(ms);
                config_ms[f.config].push_back(ms);
            } else {
                latency_ms.push_back(std::numeric_limits<double>::infinity());
                report.correct = false;
            }
            if (!args.trace)
                continue;
            mode_ms.add(mode, f.config, ms);
            if (mode == kPlain && exact) {
                plain_allocs += a1.count - a0.count;
                plain_bytes += a1.bytes - a0.bytes;
                ++plain_frames;
            }
            if (mode == kHook || mode == kHook2) {
                const double covered =
                    static_cast<double>(rec->frame().coveredNs());
                hook_infer_ns += static_cast<double>(t1 - t0);
                hook_sum_ns += covered;
                hook_cpu_ns += static_cast<double>(c1 - c0);
                ++hook_frames;
                overhead_ms.push_back(
                    (static_cast<double>(t1 - t0) - covered) / 1e6);
                run_ms[f.config].push_back(covered / 1e6);
                if (f.config + 1 == paths) {
                    peak_live = std::max(peak_live,
                                         ex->lastRunStats().peakLiveBytes);
                    peak_cert = engine.certifiedPeakBytes(f.config);
                }
            }
        }
        if (block + 1 == exact_blocks) {
            exact_synth = synth.value();
            exact_slice_synth = slice_synth.value();
            // Read before any spread set-up adds a second engine.
            peak_rss_mb = peakRssMb();
        }
        if (spread_setups && block + 1 >= exact_blocks &&
            nowNs() >= next_setup) {
            double sweep = 0, create = 0;
            if (!setupEngine(model, cache_cap, &sweep, &create)) {
                report.correct = false;
                return report;
            }
            sweep_ms.push_back(sweep);
            create_ms.push_back(create);
            setup_s.push_back((sweep + create) / 1e3);
            next_setup = nowNs() + static_cast<int64_t>(kSetupEveryS * 1e9);
        }
    }
    const double wall_s = static_cast<double>(nowNs() - start) / 1e9;
    const uint64_t frames = latency_ms.size();
    report.attempted = frames;
    report.failed = frames - ok;

    // Per-config table (both modes).
    {
        char line[200];
        std::string t = "per-config frames (LUT cost in modeled GPU ms)\n";
        std::snprintf(line, sizeof line, "%-8s %9s %6s %7s %9s %9s\n",
                      "config", "LUT cost", "acc", "frames", "p50 ms",
                      "ms/cost");
        t += line;
        for (size_t c = 0; c < paths; ++c) {
            const LutEntry &e = lut.entries()[c];
            const double p50 = quantile(config_ms[c], 0.5);
            std::snprintf(line, sizeof line,
                          "%-8s %9.4f %6.3f %7zu %9.3f %9.3f\n",
                          e.config.label.c_str(), e.resourceCost,
                          e.accuracyEstimate, config_ms[c].size(), p50,
                          p50 / e.resourceCost);
            t += line;
        }
        std::snprintf(line, sizeof line,
                      "measured for %.2f s (run ends on a block "
                      "boundary)\n",
                      wall_s);
        t += line;
        report.tables.push_back(t);
    }

    const std::string n = countNote(frames);
    if (!args.trace) {
        report.add("setup_s", quantile(setup_s, 0.5), "s",
                   "median of " + std::to_string(setup_s.size()));
        report.add("peak_rss_mb", peak_rss_mb, "MiB",
                   "after the first " + std::to_string(exact_blocks) +
                       " blocks");
        const double fps = busy_ns > 0 ? ok / (busy_ns / 1e9) : 0.0;
        report.add("frames_per_s", fps, "1/s", "OK frames / engine time");
        report.add("goodput_rps", fps, "1/s", "no deadlines: = frames_per_s");
        report.add("latency_ms_p50", quantile(latency_ms, 0.5), "ms", n);
        report.add("latency_ms_p90", quantile(latency_ms, 0.90), "ms", n);
        report.add("cpu_ms_per_frame",
                   frames ? cpu_ns / 1e6 / static_cast<double>(frames) : 0,
                   "ms", n);
        report.add("delivered_accuracy",
                   deliveredAccuracy(ok_by_config, frames, lut), "frac", n);
        report.add("ok_frac",
                   frames ? static_cast<double>(ok) / frames : 0, "frac", n);
        return report;
    }

    // --- traced run: per-layer metrics ---
    const double miss_count = static_cast<double>(exact_misses);
    const std::string exact_n = "first " + countNote(exact_frames);
    // serve layer: not exercised by a closed loop (no queue, batch 1).
    report.add("serve.admit_us_p50", 0, "us", "closed loop: no submit");
    report.add("serve.queue_ms_p50", 0, "ms", "closed loop: no queue");
    report.add("serve.queue_ms_p95", 0, "ms", "closed loop: no queue");
    report.add("serve.batch_size_mean", 1, "count", "one frame per call");
    report.add("serve.downgrade_frac", 0, "frac");
    report.add("serve.reject_frac", 0, "frac");
    report.add("serve.deadline_miss_frac", 0, "frac");
    report.add("serve.gen_lag_ms_p95", 0, "ms");
    report.add("serve.latency_ms_p95", 0, "ms", "closed loop: see p90");
    report.add("serve.critical_latency_ms_p95", 0, "ms",
               "closed loop: no classes");

    report.add("engine.overhead_ms_p50", quantile(overhead_ms, 0.5), "ms",
               countNote(overhead_ms.size()));
    report.add("engine.switch_ms_p50", quantile(switch_ms, 0.5), "ms",
               countNote(switch_ms.size()));
    report.add("engine.switch_ms_p90", quantile(switch_ms, 0.9), "ms",
               countNote(switch_ms.size()));
    report.add("engine.cache_miss_frac",
               miss_count / static_cast<double>(exact_frames), "frac",
               exact_n);
    report.add("engine.weights_synth_per_miss",
               miss_count > 0 ? static_cast<double>(exact_synth) / miss_count
                              : 0,
               "count",
               "slice synth/miss " +
                   std::to_string(miss_count > 0
                                      ? exact_slice_synth / miss_count
                                      : 0.0));
    mode_ms.reportCostRatios(lut, report);
    report.add("executor.run_ms_p50.cheapest", quantile(run_ms.front(), 0.5),
               "ms", countNote(run_ms.front().size()));
    report.add("executor.run_ms_p50.full", quantile(run_ms.back(), 0.5), "ms",
               countNote(run_ms.back().size()));
    report.add("executor.peak_live_mb", static_cast<double>(peak_live) / 1048576.0,
               "MiB", "full config");
    report.add("executor.certified_peak_mb",
               static_cast<double>(peak_cert) / 1048576.0, "MiB",
               "full config");
    report.add("alloc.count_per_frame",
               plain_frames ? static_cast<double>(plain_allocs) / plain_frames
                            : 0,
               "count", "untraced frames, " + countNote(plain_frames));
    report.add("alloc.mb_per_frame",
               plain_frames ? static_cast<double>(plain_bytes) / 1048576.0 /
                                  plain_frames
                            : 0,
               "MiB", "untraced frames, " + countNote(plain_frames));
    layerReport(*rec, hook_frames, report);
    report.add("pool.parallel_efficiency",
               hook_infer_ns > 0
                   ? hook_cpu_ns / (hook_infer_ns * kPoolThreads)
                   : 0,
               "frac", "CPU / (wall x 3)");
    const HistogramSnapshot wait = pool_wait.snapshot("pool.task_wait_ms");
    report.add("pool.task_wait_ms_p50", wait.quantile(0.5), "ms",
               countNote(wait.count));
    report.add("pool.tasks_per_frame",
               frames ? static_cast<double>(pool_tasks.value()) / frames : 0,
               "count", n);
    report.add("setup.sweep_ms", quantile(sweep_ms, 0.5), "ms");
    report.add("setup.engine_create_ms", quantile(create_ms, 0.5), "ms");
    report.add("setup.lint_ms", quantile(lint_ms, 0.5), "ms");

    report.add("obs.hook_overhead_frac", mode_ms.overhead(kHook), "frac");
    report.add("obs.tracer_overhead_frac", mode_ms.overhead(kTracer), "frac");
    report.add("obs.hook_coverage_frac",
               hook_infer_ns > 0 ? hook_sum_ns / hook_infer_ns : 0, "frac",
               "first-to-last hook / infer time");
    return report;
}

} // namespace drtbench
