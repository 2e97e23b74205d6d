/**
 * @file
 * Replacement global operator new/delete that counts, per thread, the
 * heap allocations made and the bytes requested.  Linked only into the
 * benchmark binary, never into the library or the tools.  The counters
 * are plain thread-locals, so counting costs no atomic operation on the
 * simulator's hot path; the traced tick loop reads the counts of the
 * thread it runs on.
 */

#include <cstdlib>
#include <new>

#include "bench.hh"

namespace
{

thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_bytes = 0;

void *
countedAlloc(std::size_t size)
{
    ++t_allocs;
    t_bytes += size;
    return std::malloc(size ? size : 1);
}

} // namespace

namespace rmtbench
{

std::uint64_t
threadAllocs()
{
    return t_allocs;
}

std::uint64_t
threadAllocBytes()
{
    return t_bytes;
}

} // namespace rmtbench

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
