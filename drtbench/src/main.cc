/**
 * @file
 * drt_bench: the repository's benchmark (see drtbench/README.md).
 *
 *   drt_bench --workload b2_drt|serve_open|path_churn --seed N
 *             --seconds S --trace 0|1 --golden drtbench/golden.txt
 *   drt_bench --write-golden drtbench/golden.txt
 *   drt_bench --self-test --golden drtbench/golden.txt
 *
 * The last line of a run's standard output is one JSON object with
 * the keys correct, attempted, failed and metrics. --trace 0 reports
 * the end-to-end metrics; --trace 1 runs the same workload with the
 * benchmark's own post-layer hook and spans and reports the per-layer
 * metrics instead.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common.hh"
#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

using namespace drtbench;

namespace
{

void
printJson(const RunReport &report)
{
    std::string out = "{\"correct\": ";
    out += report.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : report.metrics) {
        // JSON has no infinity: a percentile that lands on a failed
        // request reads as 1e12 (and the run is already failed).
        const double v = std::isfinite(m.value) ? m.value : 1e12;
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", v);
        out += first ? "" : ", ";
        out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void
printTable(const RunReport &report)
{
    for (const std::string &t : report.tables)
        std::printf("%s\n", t.c_str());
    std::printf("%-34s %14s %-8s %s\n", "metric", "value", "unit", "note");
    for (const Metric &m : report.metrics)
        std::printf("%-34s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("correct=%s attempted=%llu failed=%llu\n",
                report.correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
}

bool
writeGoldens(const std::string &path)
{
    // One thread: the committed sums then also prove that the timed
    // runs' three-way sharded kernels are bit-identical to serial ones.
    ThreadPool::instance().resize(1);
    Goldens goldens;
    for (ModelId model : {ModelId::B2, ModelId::Soak}) {
        double sweep = 0, create = 0;
        std::unique_ptr<EngineBox> box = setupEngine(model, 0, &sweep, &create);
        if (!box)
            return false;
        const std::vector<Tensor> bank = imageBank(model);
        const auto &entries = box->lut.entries();
        for (size_t c = 0; c < entries.size(); ++c)
            for (size_t i = 0; i < bank.size(); ++i) {
                DrtResult r = box->engine->infer(
                    bank[i], budgetFor(box->lut, c, 0.5));
                if (r.configLabel != entries[c].config.label)
                    return false;
                goldens.set(model, r.configLabel, i, checksum(r.output));
            }
    }
    std::ofstream out(path);
    out << goldens.toText();
    return static_cast<bool>(out);
}

/**
 * The output check must catch corruption: clean frames of every soak
 * config match their goldens, and the same frames with a fault
 * injected through DrtEngine::setFaultInjector all mismatch.
 */
bool
selfTest(const Goldens &goldens)
{
    double sweep = 0, create = 0;
    std::unique_ptr<EngineBox> box =
        setupEngine(ModelId::Soak, 0, &sweep, &create);
    if (!box)
        return false;
    DrtEngine &engine = *box->engine;
    const std::vector<Tensor> bank = imageBank(ModelId::Soak);
    auto matches = [&](size_t c) {
        DrtResult r = engine.infer(bank[c % bank.size()],
                                   budgetFor(box->lut, c, 0.5));
        return goldens.matches(ModelId::Soak, r.configLabel,
                               c % bank.size(), r.output);
    };
    const size_t paths = box->lut.entries().size();
    size_t clean = 0, caught = 0;
    for (size_t c = 0; c < paths; ++c)
        clean += matches(c);

    FaultPlan plan;
    plan.seed = 5;
    plan.specs.push_back({FaultKind::Transient, "Conv2DPred", 1.0, 1, 10.0});
    FaultInjector injector(plan);
    engine.setFaultInjector(&injector);
    for (size_t c = 0; c < paths; ++c)
        caught += !matches(c);
    engine.setFaultInjector(nullptr);

    std::printf("self-test: %zu/%zu clean frames match their goldens, "
                "%zu/%zu corrupted frames caught (%zu faults fired)\n",
                clean, paths, caught, paths, injector.faultsFired());
    return clean == paths && caught == paths;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: drt_bench --workload b2_drt|serve_open|path_churn "
                 "--seed N --seconds S --trace 0|1 --golden FILE [--rev R]\n"
                 "       drt_bench --write-golden FILE\n"
                 "       drt_bench --self-test --golden FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    std::string write_golden;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--self-test") {
            self_test = true;
        } else if (!has_value) {
            return usage();
        } else if (flag == "--workload") {
            args.workload = argv[++i];
        } else if (flag == "--seed") {
            args.seed = std::stoull(argv[++i]);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(argv[++i]);
        } else if (flag == "--trace") {
            args.trace = std::string(argv[++i]) == "1";
        } else if (flag == "--golden") {
            args.goldenPath = argv[++i];
        } else if (flag == "--rev") {
            args.rev = argv[++i];
        } else if (flag == "--write-golden") {
            write_golden = argv[++i];
        } else {
            return usage();
        }
    }
    // Informational library logs would interleave with the results.
    setLogLevel(LogLevel::Warn);

    if (!write_golden.empty())
        return writeGoldens(write_golden) ? 0 : 1;

    Goldens goldens;
    std::string error;
    if (!goldens.load(args.goldenPath, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    ThreadPool::instance().resize(kPoolThreads);
    if (self_test)
        return selfTest(goldens) ? 0 : 1;

    const bool closed =
        args.workload == "b2_drt" || args.workload == "path_churn";
    if (!closed && args.workload != "serve_open")
        return usage();
    if (!(args.seconds > 0))
        return usage();

    const HostSample before = sampleHost();
    const RunReport report = closed ? runClosedLoop(args, goldens)
                                    : runServeOpen(args, goldens);
    const HostSample after = sampleHost();
    printTable(report);
    std::printf("host: %s\n", hostRecord(before, after, args).c_str());
    if (report.metrics.empty())
        return 1;
    printJson(report);
    return 0;
}
