#include <gtest/gtest.h>

#include "rmt/lvq.hh"

using namespace rmt;

TEST(Lvq, InsertLookupDeallocates)
{
    Lvq lvq(4, true, "lvq");
    EXPECT_TRUE(lvq.insert(1, 0x100, 42, 10));
    std::uint64_t data = 0;
    // Not visible before the forwarding latency has elapsed.
    EXPECT_EQ(lvq.lookup(1, 0x100, 9, data), Lvq::Lookup::NotPresent);
    EXPECT_EQ(lvq.lookup(1, 0x100, 10, data), Lvq::Lookup::Hit);
    EXPECT_EQ(data, 42u);
    // Entry deallocated by the hit.
    EXPECT_EQ(lvq.lookup(1, 0x100, 11, data), Lvq::Lookup::NotPresent);
    EXPECT_EQ(lvq.size(), 0u);
}

TEST(Lvq, OutOfOrderLookupByTag)
{
    Lvq lvq(4, true, "lvq");
    lvq.insert(1, 0x100, 11, 0);
    lvq.insert(2, 0x200, 22, 0);
    lvq.insert(3, 0x300, 33, 0);
    std::uint64_t data = 0;
    // Trailing thread may issue loads out of program order (Sec. 4.1).
    EXPECT_EQ(lvq.lookup(3, 0x300, 5, data), Lvq::Lookup::Hit);
    EXPECT_EQ(data, 33u);
    EXPECT_EQ(lvq.lookup(1, 0x100, 5, data), Lvq::Lookup::Hit);
    EXPECT_EQ(data, 11u);
}

TEST(Lvq, AddressMismatchIsDetectedFault)
{
    Lvq lvq(4, true, "lvq");
    lvq.insert(7, 0x100, 42, 0);
    std::uint64_t data = 0;
    EXPECT_EQ(lvq.lookup(7, 0x104, 1, data), Lvq::Lookup::AddrMismatch);
    EXPECT_EQ(lvq.size(), 0u);
}

TEST(Lvq, CapacityBound)
{
    Lvq lvq(2, true, "lvq");
    EXPECT_TRUE(lvq.insert(1, 0x0, 0, 0));
    EXPECT_TRUE(lvq.insert(2, 0x8, 0, 0));
    EXPECT_TRUE(lvq.full());
    EXPECT_FALSE(lvq.insert(3, 0x10, 0, 0));
    std::uint64_t data = 0;
    lvq.lookup(1, 0x0, 1, data);
    EXPECT_FALSE(lvq.full());
    EXPECT_TRUE(lvq.insert(3, 0x10, 0, 0));
}

TEST(Lvq, EccCorrectsBitFlip)
{
    Lvq lvq(4, true, "lvq");
    lvq.insert(1, 0x100, 0xAAAA, 0);
    Random rng(1);
    EXPECT_TRUE(lvq.injectDataBitFlip(rng));
    EXPECT_EQ(lvq.eccCorrections(), 1u);
    std::uint64_t data = 0;
    EXPECT_EQ(lvq.lookup(1, 0x100, 1, data), Lvq::Lookup::Hit);
    EXPECT_EQ(data, 0xAAAAu);   // value intact
}

TEST(Lvq, UnprotectedFlipCorruptsData)
{
    Lvq lvq(4, false, "lvq");
    lvq.insert(1, 0x100, 0xAAAA, 0);
    Random rng(1);
    EXPECT_TRUE(lvq.injectDataBitFlip(rng));
    std::uint64_t data = 0;
    EXPECT_EQ(lvq.lookup(1, 0x100, 1, data), Lvq::Lookup::Hit);
    EXPECT_NE(data, 0xAAAAu);   // exactly one bit differs
    EXPECT_EQ(__builtin_popcountll(data ^ 0xAAAA), 1);
}

TEST(Lvq, FlipOnEmptyReportsFalse)
{
    Lvq lvq(4, false, "lvq");
    Random rng(1);
    EXPECT_FALSE(lvq.injectDataBitFlip(rng));
}

TEST(Lvq, UnprotectedStrikeVictimIsTheKthEntryInTagOrder)
{
    // The victim is defined by tag order, not by the table's layout:
    // draw k = rng.range(size) then the bit, exactly as the strike does.
    const std::uint64_t tags[] = {40, 3, 17, 8, 25};
    const std::uint64_t sorted[] = {3, 8, 17, 25, 40};
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Lvq lvq(8, false, "lvq");
        for (std::uint64_t tag : tags)
            lvq.insert(tag, tag * 8, 1000 + tag, 0);
        Random rng(seed);
        Random ref(seed);
        const std::uint64_t k = ref.range(5);
        const unsigned bit = static_cast<unsigned>(ref.range(64));
        ASSERT_TRUE(lvq.injectDataBitFlip(rng));
        for (std::uint64_t tag : sorted) {
            std::uint64_t data = 0;
            ASSERT_EQ(lvq.lookup(tag, tag * 8, 1, data), Lvq::Lookup::Hit);
            const std::uint64_t want =
                tag == sorted[k] ? (1000 + tag) ^ (std::uint64_t{1} << bit)
                                 : 1000 + tag;
            EXPECT_EQ(data, want) << "seed " << seed << " tag " << tag;
        }
    }
}
