#include "rmt/store_comparator.hh"

#include "common/logging.hh"

namespace rmt
{

StoreComparator::StoreComparator(std::string name)
    : trailing(64),
      statGroup(std::move(name)),
      statComparisons(statGroup, "comparisons", "store pairs compared"),
      statMismatches(statGroup, "mismatches",
                     "store mismatches (detected faults)")
{
}

void
StoreComparator::pushTrailing(std::uint64_t store_idx, Addr addr,
                              std::uint64_t data, unsigned size,
                              Cycle available_at)
{
    if (!trailing.insert(store_idx,
                         Record{addr, data, size, available_at}))
        panic("store comparator: duplicate trailing store index %llu",
              static_cast<unsigned long long>(store_idx));
}

bool
StoreComparator::tryVerify(std::uint64_t store_idx, Addr addr,
                           std::uint64_t data, unsigned size, Cycle now,
                           bool &mismatch)
{
    // Associative search on the store index, mirroring the paper's CAM
    // search of the store queue: trailing stores execute (and deliver
    // their data) out of order, so arrival order carries no meaning.
    mismatch = false;
    const Record *rec = trailing.find(store_idx);
    if (!rec || now < rec->availableAt)
        return false;
    mismatch = rec->addr != addr || rec->data != data || rec->size != size;
    ++statComparisons;
    if (mismatch)
        ++statMismatches;
    trailing.erase(store_idx);
    return true;
}

} // namespace rmt
