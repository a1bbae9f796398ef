/**
 * @file
 * Wall-clock deadlines for serving-path entry points.
 *
 * A Deadline is a std::chrono::steady_clock time point; the
 * default-constructed value means "no deadline" so existing callers
 * (batch experiments, benches) pass nothing and pay nothing. All
 * deadline-aware entry points (DrtEngine::tryInfer and
 * tryInferBatch, the serve/ scheduler) share these helpers so
 * "expired" means exactly one thing everywhere.
 */

#ifndef VITDYN_UTIL_DEADLINE_HH
#define VITDYN_UTIL_DEADLINE_HH

#include <chrono>

namespace vitdyn
{

/** Absolute wall-clock deadline; default-constructed = none. */
using Deadline = std::chrono::steady_clock::time_point;

/** True when @p d carries an actual deadline. */
inline bool
deadlineSet(Deadline d)
{
    return d != Deadline{};
}

/** True when @p d is set and already in the past at @p now. */
inline bool
deadlineExpired(Deadline d,
                Deadline now = std::chrono::steady_clock::now())
{
    return deadlineSet(d) && now >= d;
}

/** Milliseconds from @p now to @p d (negative when past). */
inline double
msUntil(Deadline d, Deadline now = std::chrono::steady_clock::now())
{
    return std::chrono::duration<double, std::milli>(d - now).count();
}

/** Deadline @p ms milliseconds after @p from (default: now). */
inline Deadline
deadlineAfterMs(double ms,
                Deadline from = std::chrono::steady_clock::now())
{
    return from + std::chrono::duration_cast<Deadline::duration>(
                      std::chrono::duration<double, std::milli>(ms));
}

} // namespace vitdyn

#endif // VITDYN_UTIL_DEADLINE_HH
