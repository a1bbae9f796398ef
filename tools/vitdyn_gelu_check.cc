/**
 * @file
 * vitdyn_gelu_check: sweep all 2^32 float bit patterns through GELU
 * and count, for every SIMD ISA this CPU runs:
 *
 *  (1) elements where that ISA's geluF32 kernel differs (memcmp) from
 *      the scalar reference geluScalar();
 *  (2) elements where the reference tanhScalar() differs (memcmp)
 *      from the host libm's std::tanh.
 *
 * Usage:
 *   vitdyn_gelu_check               # all 2^32 inputs on 4 threads
 *   vitdyn_gelu_check --threads 2
 *   vitdyn_gelu_check --stride 4099 # every 4099th pattern only
 *
 * Exit status: 1 when any count (1) is nonzero, 0 otherwise. Count (2)
 * is printed for information: tanhScalar is fdlibm's tanhf, so it
 * reads 0 against a libm whose tanhf is fdlibm's (glibc 2.36 on
 * x86-64) and need not elsewhere.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "tensor/kernels/kernels.hh"
#include "util/args.hh"

namespace
{

using vitdyn::IsaLevel;

constexpr uint64_t kPatterns = uint64_t(1) << 32;

/** Inputs per work item: a multiple of every SIMD width, so kernel
 *  calls cover the vector body and items are cheap to hand out. */
constexpr int64_t kBlock = 1 << 16;

struct Counts
{
    std::vector<std::atomic<uint64_t>> isa; ///< per ISA, count (1)
    std::atomic<uint64_t> libm{0};          ///< count (2)
    std::atomic<uint64_t> checked{0};

    explicit Counts(size_t isas) : isa(isas) {}
};

void
sweep(const std::vector<IsaLevel> &isas, uint64_t stride,
      std::atomic<uint64_t> &next_block, Counts &counts)
{
    const uint64_t inputs = (kPatterns + stride - 1) / stride;
    std::vector<float> x(kBlock), want(kBlock), got(kBlock);
    const auto &reference = vitdyn::kernelsFor(IsaLevel::Scalar);
    for (;;) {
        const uint64_t first = next_block.fetch_add(kBlock);
        if (first >= inputs)
            return;
        const int64_t n = static_cast<int64_t>(
            std::min<uint64_t>(kBlock, inputs - first));
        uint64_t libm = 0;
        for (int64_t i = 0; i < n; ++i) {
            const auto bits = static_cast<uint32_t>((first + i) * stride);
            std::memcpy(&x[i], &bits, sizeof bits);
            const float ours = vitdyn::tanhScalar(x[i]);
            const float host = std::tanh(x[i]);
            libm += std::memcmp(&ours, &host, sizeof ours) != 0;
        }
        counts.libm += libm;
        reference.geluF32(x.data(), want.data(), n);
        for (size_t k = 0; k < isas.size(); ++k) {
            vitdyn::kernelsFor(isas[k]).geluF32(x.data(), got.data(), n);
            uint64_t bad = 0;
            for (int64_t i = 0; i < n; ++i)
                bad += std::memcmp(&want[i], &got[i], sizeof(float)) != 0;
            counts.isa[k] += bad;
        }
        counts.checked += static_cast<uint64_t>(n);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    vitdyn::ArgParser args;
    args.addOption("threads", "4", "worker threads");
    args.addOption("stride", "1",
                   "check every stride-th bit pattern (1 = all 2^32)");
    args.parse(argc, argv);
    const long long threads = args.getInt("threads");
    const long long stride = args.getInt("stride");
    if (threads < 1 || threads > 64 || stride < 1 ||
        stride > static_cast<long long>(kPatterns)) {
        std::cerr << "vitdyn_gelu_check: --threads must be in [1, 64] and "
                     "--stride in [1, 2^32]\n";
        return 2;
    }

    // Every SIMD set this CPU runs; the scalar set is the reference.
    std::vector<IsaLevel> isas;
    for (IsaLevel isa : {IsaLevel::Avx2, IsaLevel::Avx512, IsaLevel::Neon})
        if (vitdyn::isaAvailable(isa))
            isas.push_back(isa);

    Counts counts(isas.size());
    std::atomic<uint64_t> next_block{0};
    std::vector<std::thread> workers;
    for (long long t = 0; t < threads; ++t)
        workers.emplace_back(sweep, std::cref(isas),
                             static_cast<uint64_t>(stride),
                             std::ref(next_block), std::ref(counts));
    for (std::thread &w : workers)
        w.join();

    std::cout << "inputs checked: " << counts.checked << "\n";
    bool ok = true;
    for (size_t k = 0; k < isas.size(); ++k) {
        const uint64_t bad = counts.isa[k];
        std::cout << "geluF32 " << vitdyn::isaName(isas[k])
                  << " vs geluScalar: " << bad << " mismatches\n";
        ok = ok && bad == 0;
    }
    std::cout << "tanhScalar vs host std::tanh: " << counts.libm
              << " mismatches (informational)\n";
    return ok ? 0 : 1;
}
