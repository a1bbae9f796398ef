/**
 * @file
 * Shared helpers of the kernel parity tests: each rewritten kernel is
 * compared with the scalar loop it replaced, memcmp-exact, for every
 * available ISA, at 1 and 4 pool threads, and on inputs holding -0.0,
 * NaN and +-Inf.
 */

#ifndef VITDYN_TESTS_PARITY_HH
#define VITDYN_TESTS_PARITY_HH

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/kernels/kernels.hh"
#include "tensor/tensor.hh"
#include "util/threadpool.hh"

namespace vitdyn
{

/** Every ISA whose microkernels this CPU can run. */
inline std::vector<IsaLevel>
availableIsas()
{
    std::vector<IsaLevel> isas;
    for (IsaLevel isa : {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512,
                         IsaLevel::Neon})
        if (isaAvailable(isa))
            isas.push_back(isa);
    return isas;
}

/**
 * memcmp equality, element by element. With @p nan_bits false, two NaNs
 * count as equal whatever their bits: which NaN operand an add returns
 * is the compiler's choice of operand order (the add commutes), so NaN
 * payloads and signs are only reproducible while a single NaN encoding
 * is in play.
 */
inline ::testing::AssertionResult
bitIdentical(const Tensor &want, const Tensor &got, bool nan_bits = true)
{
    if (want.shape() != got.shape())
        return ::testing::AssertionFailure()
               << "shape " << shapeToString(got.shape()) << " != "
               << shapeToString(want.shape());
    for (int64_t i = 0; i < want.numel(); ++i) {
        if (!nan_bits && std::isnan(want[i]) && std::isnan(got[i]))
            continue;
        if (std::memcmp(&want.data()[i], &got.data()[i], sizeof(float)))
            return ::testing::AssertionFailure()
                   << "element " << i << ": got " << got[i] << ", want "
                   << want[i];
    }
    return ::testing::AssertionSuccess();
}

/**
 * The NaN the FPU itself produces for an invalid operation. Inputs
 * carrying exactly this encoding leave one NaN bit pattern in the whole
 * computation (Inf - Inf and Inf * 0 make the same one), so outputs must
 * match to the bit.
 */
inline float
generatedNaN()
{
    volatile float inf = std::numeric_limits<float>::infinity();
    return inf - inf;
}

/** Sprinkle -0.0, @p nan and +-Inf through @p t at a fixed stride. */
inline void
addSpecials(Tensor &t, float nan)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {-0.0f, nan, inf, -inf};
    for (int64_t i = 0, s = 0; i < t.numel(); i += 7, ++s)
        t[i] = specials[s % 4];
}

/** Both NaN flavors: {the generated encoding, bits compared} and {a
 *  different quiet NaN, NaN positions compared}. */
struct NanFlavor
{
    float nan;
    bool nanBits;
};

inline std::vector<NanFlavor>
nanFlavors()
{
    return {{generatedNaN(), true}, {std::nanf("7"), false}};
}

/** Fixture running each test at the pool size given as its parameter. */
class PoolThreadsTest : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override { ThreadPool::instance().resize(GetParam()); }
    void TearDown() override { ThreadPool::instance().resize(0); }
};

} // namespace vitdyn

#endif // VITDYN_TESTS_PARITY_HH
