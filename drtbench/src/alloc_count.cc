/**
 * @file
 * Benchmark-owned replacement of the global operator new/delete: every
 * heap allocation in the process (library, pool workers, scheduler)
 * bumps two relaxed counters, which give the exact alloc.* counts per
 * frame. Memory still comes from malloc, so the program's allocation
 * behaviour is unchanged apart from the two increments.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hh"

namespace
{

std::atomic<uint64_t> allocCount{0};
std::atomic<uint64_t> allocBytes{0};

void *
allocate(std::size_t size)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    allocBytes.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    allocBytes.fetch_add(size, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

} // namespace

namespace drtbench
{

AllocCounts
allocCounts()
{
    return {allocCount.load(std::memory_order_relaxed),
            allocBytes.load(std::memory_order_relaxed)};
}

} // namespace drtbench

void *
operator new(std::size_t size)
{
    if (void *p = allocate(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = allocate(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return allocate(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return allocate(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = allocateAligned(size, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    if (void *p = allocateAligned(size, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return allocateAligned(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return allocateAligned(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}
