/**
 * @file
 * FNV-1a-64 fingerprinting, shared by every subsystem that keys work
 * by content: the canonical-options fingerprint (sim/simulator), the
 * campaign records (runner/), and the content-addressed result store
 * and daemon campaign ids (serve/).
 *
 * One implementation so the hashes agree by construction — a row
 * stored under key K must be found again by any other layer computing
 * K from the same pre-image.
 */

#ifndef RMTSIM_COMMON_FINGERPRINT_HH
#define RMTSIM_COMMON_FINGERPRINT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace rmt
{

/** FNV-1a-64 offset basis: the seed of every fingerprint chain. */
constexpr std::uint64_t fnv1a64Seed = 0xcbf29ce484222325ull;

/** Fold @p len bytes at @p data into @p h (FNV-1a-64 step). */
std::uint64_t fnv1a64(const void *data, std::size_t len,
                      std::uint64_t h = fnv1a64Seed);

/** Fold a string's bytes into @p h. */
inline std::uint64_t
fnv1a64(const std::string &s, std::uint64_t h = fnv1a64Seed)
{
    return fnv1a64(s.data(), s.size(), h);
}

/**
 * Fold one delimited field into an incremental hash: the content plus
 * a 0x1f separator, so "ab"+"c" and "a"+"bc" hash apart.  This is the
 * building block of multi-field fingerprints (campaign identity,
 * result-store keys).
 */
void fnv1a64Field(std::uint64_t &h, const std::string &s);

/** Canonical 16-digit lower-case hex rendering of a fingerprint. */
std::string fingerprintHex(std::uint64_t v);

} // namespace rmt

#endif // RMTSIM_COMMON_FINGERPRINT_HH
