/**
 * @file
 * The host record printed with every run, so a noisy verdict can be
 * told apart from a regression: hypervisor steal over the run (from
 * /proc/stat), a fixed single-thread canary loop timed before and
 * after, and what the run ran on (vCPUs, pool concurrency, kernel
 * ISA, whether the tracer is compiled in, source revision).
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "common.hh"
#include "tensor/kernels/kernels.hh"
#include "util/threadpool.hh"

namespace drtbench
{

namespace
{

/** Aggregate "cpu" line of /proc/stat: steal and total ticks. */
void
readCpuTicks(uint64_t *steal, uint64_t *total)
{
    *steal = *total = 0;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu")
        return;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8; ++field) {
        uint64_t v = 0;
        if (!(in >> v))
            return;
        *total += v;
        if (field == 7)
            *steal = v;
    }
}

volatile double canarySink = 0.0;

/** A fixed amount of single-thread integer and float work. */
double
canaryMs()
{
    const int64_t t0 = nowNs();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 4000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += static_cast<double>(x & 0xffff) * 1e-5;
    }
    canarySink = acc;
    return static_cast<double>(nowNs() - t0) / 1e6;
}

} // namespace

HostSample
sampleHost()
{
    HostSample s;
    s.canaryMs = canaryMs();
    readCpuTicks(&s.stealTicks, &s.totalTicks);
    s.wallNs = nowNs();
    return s;
}

std::string
hostRecord(const HostSample &before, const HostSample &after,
           const RunArgs &args)
{
    const uint64_t total = after.totalTicks - before.totalTicks;
    const double steal =
        total > 0 ? static_cast<double>(after.stealTicks -
                                        before.stealTicks) /
                        static_cast<double>(total)
                  : 0.0;
    // The benchmark always builds the tracer in, as the repository's
    // default build does; the field confirms it.
#ifdef VITDYN_TRACING_DISABLED
    const char *tracing = "off";
#else
    const char *tracing = "on";
#endif
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"vcpus\": %ld, \"pool_threads\": %d, \"isa\": \"%s\", "
        "\"tracing_compiled\": \"%s\", \"rev\": \"%s\", "
        "\"steal_frac\": %.5f, \"canary_ms_before\": %.3f, "
        "\"canary_ms_after\": %.3f, \"wall_s\": %.3f}",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
        ThreadPool::instance().threads(), isaName(activeIsa()), tracing,
        args.rev.c_str(), steal, before.canaryMs, after.canaryMs,
        static_cast<double>(after.wallNs - before.wallNs) / 1e9);
    return buf;
}

} // namespace drtbench
