/**
 * @file
 * Bit-manipulation helpers used by caches, predictors, and the fault
 * injector, and the little-endian integer layout every binary format
 * (snapshot images, result-store frames, wire payloads) shares.
 */

#ifndef RMTSIM_COMMON_BITS_HH
#define RMTSIM_COMMON_BITS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rmt
{

/** True iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** Extract bits [first, first+count) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned first, unsigned count)
{
    if (count >= 64)
        return v >> first;
    return (v >> first) & ((std::uint64_t{1} << count) - 1);
}

/** Flip bit @p pos of @p v (transient-fault model primitive). */
constexpr std::uint64_t
flipBit(std::uint64_t v, unsigned pos)
{
    return v ^ (std::uint64_t{1} << (pos & 63));
}

/** Even parity over all 64 bits: 1 if the popcount is odd. */
constexpr unsigned
parity64(std::uint64_t v)
{
    v ^= v >> 32;
    v ^= v >> 16;
    v ^= v >> 8;
    v ^= v >> 4;
    v ^= v >> 2;
    v ^= v >> 1;
    return static_cast<unsigned>(v & 1);
}

/** Store @p v at @p out as sizeof(T) little-endian bytes, whatever the
 *  host byte order. */
template <typename T>
inline void
storeLe(char *out, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out[i] = static_cast<char>(static_cast<std::uint64_t>(v) >> (8 * i));
}

/** Append @p v to @p out as sizeof(T) little-endian bytes. */
template <typename T>
inline void
putLe(std::string &out, T v)
{
    char b[sizeof(T)];
    storeLe(b, v);
    out.append(b, sizeof(T));
}

/** The little-endian T at byte @p at of @p buf (no bounds check). */
template <typename T>
inline T
getLe(std::string_view buf, std::size_t at)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= std::uint64_t{static_cast<std::uint8_t>(buf[at + i])}
             << (8 * i);
    return static_cast<T>(v);
}

} // namespace rmt

#endif // RMTSIM_COMMON_BITS_HH
