#include "rmt/lvq.hh"

#include <algorithm>
#include <vector>

#include "common/bits.hh"

namespace rmt
{

Lvq::Lvq(unsigned capacity, bool ecc_protected, std::string name)
    : capacity(capacity), eccProtected(ecc_protected), entries(capacity),
      statGroup(std::move(name)),
      statInserts(statGroup, "inserts", "leading loads forwarded"),
      statHits(statGroup, "hits", "trailing loads satisfied"),
      statAddrMismatches(statGroup, "addr_mismatches",
                         "address mismatches (detected faults)"),
      statEccCorrected(statGroup, "ecc_corrected",
                       "bit flips corrected by ECC"),
      statCorruptions(statGroup, "corruptions",
                      "bit flips that corrupted data (no ECC)")
{
}

bool
Lvq::insert(std::uint64_t tag, Addr addr, std::uint64_t data,
            Cycle available_at)
{
    if (full())
        return false;
    entries.insert(tag, Entry{addr, data, available_at});
    ++statInserts;
    return true;
}

Lvq::Lookup
Lvq::lookup(std::uint64_t tag, Addr expected_addr, Cycle now,
            std::uint64_t &data)
{
    const Entry *e = entries.find(tag);
    if (!e || now < e->availableAt)
        return Lookup::NotPresent;

    const bool addr_ok = e->addr == expected_addr;
    data = e->data;
    entries.erase(tag);
    if (!addr_ok) {
        ++statAddrMismatches;
        return Lookup::AddrMismatch;
    }
    ++statHits;
    return Lookup::Hit;
}

bool
Lvq::injectDataBitFlip(Random &rng)
{
    if (entries.empty())
        return false;
    const auto k = static_cast<std::ptrdiff_t>(rng.range(entries.size()));
    if (eccProtected) {
        // SECDED corrects the single-bit flip on read; data unchanged.
        ++statEccCorrected;
        return true;
    }
    // The k-th resident entry in tag order (a fault path: the scratch
    // vector is fine here).
    std::vector<std::uint64_t> tags;
    tags.reserve(entries.size());
    entries.forEach(
        [&](std::uint64_t tag, const Entry &) { tags.push_back(tag); });
    std::nth_element(tags.begin(), tags.begin() + k, tags.end());
    Entry &victim = *entries.find(tags[static_cast<std::size_t>(k)]);
    victim.data =
        flipBit(victim.data, static_cast<unsigned>(rng.range(64)));
    ++statCorruptions;
    return true;
}

} // namespace rmt
