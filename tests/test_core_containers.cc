/**
 * @file
 * The allocation-free structures under the core: the timing-wheel event
 * calendar, the ring buffer behind every pipeline queue, the
 * open-addressed table behind the LVQ, store comparator and MSHRs, and
 * the wakeup-driven issue-queue select state.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/open_table.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/timing_wheel.hh"
#include "cpu/issue_queue.hh"

using namespace rmt;

namespace
{

std::vector<int>
drain(TimingWheel<int> &w, Cycle now)
{
    std::vector<int> out;
    int item = 0;
    while (w.pop(now, item))
        out.push_back(item);
    return out;
}

} // namespace

// ------------------------------------------------------------ wheel

TEST(TimingWheel, SameCycleItemsComeOutInScheduleOrder)
{
    TimingWheel<int> w(8);
    w.schedule(3, 1);
    w.schedule(2, 2);
    w.schedule(3, 3);
    w.schedule(2, 4);
    EXPECT_TRUE(drain(w, 1).empty());
    EXPECT_EQ(drain(w, 2), (std::vector<int>{2, 4}));
    EXPECT_EQ(drain(w, 3), (std::vector<int>{1, 3}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, FarAndNearItemsForOneCycleKeepInsertionOrder)
{
    TimingWheel<int> w(8);
    // Scheduled from cycle 0, cycle 20 is beyond the 8-slot wheel: the
    // item parks in the overflow heap.
    w.schedule(20, 1);
    EXPECT_EQ(w.overflowSize(), 1u);
    for (Cycle c = 1; c <= 15; ++c)
        EXPECT_TRUE(drain(w, c).empty());
    // Now within reach: these go straight into the wheel slot for 20,
    // behind the earlier overflow item.
    w.schedule(20, 2);
    w.schedule(19, 3);
    w.schedule(20, 4);
    w.schedule(24, 5);  // exactly one wheel length past the cursor
    EXPECT_EQ(w.overflowSize(), 2u);
    EXPECT_EQ(drain(w, 19), (std::vector<int>{3}));
    EXPECT_EQ(drain(w, 20), (std::vector<int>{1, 2, 4}));
    EXPECT_EQ(drain(w, 23), std::vector<int>{});
    EXPECT_EQ(drain(w, 24), (std::vector<int>{5}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, ItemOneWheelLengthAheadDoesNotAliasTheDrainingSlot)
{
    TimingWheel<int> w(8);
    w.schedule(5, 1);
    int item = 0;
    ASSERT_TRUE(w.pop(5, item));
    // Scheduled while cycle 5 drains: cycle 13 maps to the same slot.
    w.schedule(13, 2);
    w.schedule(6, 3);
    EXPECT_TRUE(drain(w, 5).empty());
    EXPECT_EQ(drain(w, 6), (std::vector<int>{3}));
    EXPECT_TRUE(drain(w, 12).empty());
    EXPECT_EQ(drain(w, 13), (std::vector<int>{2}));
}

TEST(TimingWheel, SkippedCyclesDrainInCycleOrder)
{
    TimingWheel<int> w(4);
    w.schedule(2, 1);
    w.schedule(100, 2);
    w.schedule(3, 3);
    w.schedule(50, 4);
    EXPECT_EQ(drain(w, 1000), (std::vector<int>{1, 3, 4, 2}));
    EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, MatchesAnOrderedMapOnRandomTraffic)
{
    // Reference: the std::map<cycle, vector> calendar it replaced.
    TimingWheel<int> w(16);
    std::map<Cycle, std::vector<int>> ref;
    Random rng(7);
    int next = 0;
    for (Cycle now = 1; now < 3000; ++now) {
        std::vector<int> want;
        if (!ref.empty() && ref.begin()->first <= now) {
            want = ref.begin()->second;
            ref.erase(ref.begin());
        }
        ASSERT_EQ(drain(w, now), want) << "cycle " << now;
        const unsigned n = static_cast<unsigned>(rng.range(4));
        for (unsigned i = 0; i < n; ++i) {
            // Mostly near, sometimes far past the 16-slot wheel.
            const Cycle when = now + 1 +
                               (rng.range(8) == 0 ? rng.range(100)
                                                  : rng.range(16));
            w.schedule(when, next);
            ref[when].push_back(next++);
        }
    }
}

// ------------------------------------------------------------- ring

TEST(Ring, WrapsAroundAndKeepsOrder)
{
    Ring<int> r(4);
    EXPECT_EQ(r.capacity(), 4u);
    for (int round = 0; round < 5; ++round) {
        r.push_back(3 * round);
        r.push_back(3 * round + 1);
        r.push_back(3 * round + 2);
        EXPECT_EQ(r.front(), 3 * round);
        r.pop_front();
        r.pop_front();
        EXPECT_EQ(r.front(), 3 * round + 2);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 4u);    // never grew
}

TEST(Ring, PopBackAndReverseIteration)
{
    Ring<int> r(4);
    r.push_back(1);
    r.pop_front();
    for (int v : {10, 20, 30, 40})
        r.push_back(v);     // head is mid-buffer: this wraps
    EXPECT_EQ(r.back(), 40);
    r.pop_back();
    EXPECT_EQ(r.back(), 30);
    std::vector<int> rev(r.rbegin(), r.rend());
    EXPECT_EQ(rev, (std::vector<int>{30, 20, 10}));
    std::vector<int> fwd(r.begin(), r.end());
    EXPECT_EQ(fwd, (std::vector<int>{10, 20, 30}));
}

TEST(Ring, EraseIfKeepsSurvivorOrderAcrossTheWrap)
{
    Ring<int> r(8);
    for (int i = 0; i < 6; ++i)
        r.push_back(i);
    for (int i = 0; i < 5; ++i)
        r.pop_front();
    for (int i = 6; i < 12; ++i)
        r.push_back(i);     // 5..11, wrapped
    EXPECT_EQ(r.erase_if([](int v) { return v % 2 == 0; }), 3u);
    EXPECT_EQ(std::vector<int>(r.begin(), r.end()),
              (std::vector<int>{5, 7, 9, 11}));
    r.push_back(12);
    EXPECT_EQ(r.back(), 12);
    EXPECT_EQ(r.size(), 5u);
}

TEST(Ring, GrowsWhenFullAndReleasesHandles)
{
    auto token = std::make_shared<int>(0);
    Ring<std::shared_ptr<int>> r(2);
    r.push_back(token);
    r.push_back(token);
    r.push_back(token);     // full: doubles
    EXPECT_EQ(r.capacity(), 4u);
    EXPECT_EQ(token.use_count(), 4);
    r.pop_front();
    r.pop_back();
    EXPECT_EQ(token.use_count(), 2);
    r.erase_if([](const std::shared_ptr<int> &) { return true; });
    EXPECT_EQ(token.use_count(), 1);
    r.push_back(token);
    r.clear();
    EXPECT_EQ(token.use_count(), 1);
}

// ------------------------------------------------------------ table

TEST(OpenTable, CollidingKeysStayFindableThroughErase)
{
    OpenTable<int> t(8);    // 16 slots
    const std::size_t cap = t.capacity();
    // Three keys with one home slot, plus one whose home is the slot
    // the probe run spills into.
    std::vector<std::uint64_t> same;
    for (std::uint64_t k = 1; same.size() < 3; ++k) {
        if (t.homeOf(k) == t.homeOf(1))
            same.push_back(k);
    }
    std::uint64_t neighbour = 1;
    while (t.homeOf(neighbour) != (t.homeOf(1) + 1) % cap)
        ++neighbour;
    for (std::uint64_t k : same)
        ASSERT_TRUE(t.insert(k, static_cast<int>(k)));
    ASSERT_TRUE(t.insert(neighbour, -1));
    EXPECT_FALSE(t.insert(same[1], 0));     // duplicate
    EXPECT_TRUE(t.erase(same[0]));
    EXPECT_EQ(t.find(same[0]), nullptr);
    ASSERT_NE(t.find(same[1]), nullptr);
    EXPECT_EQ(*t.find(same[1]), static_cast<int>(same[1]));
    ASSERT_NE(t.find(same[2]), nullptr);
    ASSERT_NE(t.find(neighbour), nullptr);
    EXPECT_EQ(*t.find(neighbour), -1);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.capacity(), cap);
}

TEST(OpenTable, ProbeRunsWrapPastTheLastSlot)
{
    OpenTable<int> t(8);
    const std::size_t last = t.capacity() - 1;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < 3; ++k) {
        if (t.homeOf(k) == last)
            keys.push_back(k);
    }
    for (std::uint64_t k : keys)
        t.insert(k, static_cast<int>(k));
    EXPECT_TRUE(t.erase(keys[0]));
    for (std::size_t i = 1; i < keys.size(); ++i) {
        ASSERT_NE(t.find(keys[i]), nullptr);
        EXPECT_EQ(*t.find(keys[i]), static_cast<int>(keys[i]));
    }
}

TEST(OpenTable, ClearAndGrowth)
{
    OpenTable<std::uint64_t> t(2);
    const std::size_t cap0 = t.capacity();
    for (std::uint64_t k = 0; k < 100; ++k)
        ASSERT_TRUE(t.insert(k * 64, k));
    EXPECT_GT(t.capacity(), cap0);
    EXPECT_LE(2 * t.size(), t.capacity());
    for (std::uint64_t k = 0; k < 100; ++k) {
        ASSERT_NE(t.find(k * 64), nullptr);
        EXPECT_EQ(*t.find(k * 64), k);
    }
    const std::size_t grown = t.capacity();
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.capacity(), grown);
    EXPECT_TRUE(t.insert(0, 7));
}

TEST(OpenTable, MatchesAMapOnRandomTraffic)
{
    OpenTable<int> t(4);
    std::map<std::uint64_t, int> ref;
    Random rng(3);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = rng.range(64);
        if (rng.range(2)) {
            EXPECT_EQ(t.insert(key, i), ref.emplace(key, i).second);
        } else {
            EXPECT_EQ(t.erase(key), ref.erase(key) == 1);
        }
        ASSERT_EQ(t.size(), ref.size());
    }
    for (const auto &[key, value] : ref) {
        ASSERT_NE(t.find(key), nullptr);
        EXPECT_EQ(*t.find(key), value);
    }
    std::size_t visited = 0;
    t.forEach([&](std::uint64_t key, int value) {
        ++visited;
        EXPECT_EQ(ref.at(key), value);
    });
    EXPECT_EQ(visited, ref.size());
}

// ------------------------------------------------------ issue queue

namespace
{

std::vector<std::uint64_t>
readySeqs(const IssueQueue &iq)
{
    std::vector<std::uint64_t> out;
    for (std::uint32_t s = iq.oldestReady(); s != IssueQueue::none;
         s = iq.nextReady(s)) {
        out.push_back(iq.inst(s)->seq);
    }
    return out;
}

} // namespace

TEST(IssueQueue, WakeupBuildsAnAgeOrderedReadyList)
{
    DynInstPool pool;
    IssueQueue iq(8, 16);
    std::vector<DynInstPtr> insts;
    for (std::uint64_t seq = 0; seq < 4; ++seq) {
        insts.push_back(pool.acquire());
        insts.back()->seq = seq;
    }
    auto store = pool.acquire();
    insts[0]->issuableCycle = 5;
    iq.insert(insts[0], 3, invalidPhysReg, nullptr);
    insts[1]->issuableCycle = 5;
    iq.insert(insts[1], invalidPhysReg, invalidPhysReg, nullptr);
    insts[2]->issuableCycle = 6;
    iq.insert(insts[2], 4, 4, nullptr);
    insts[3]->issuableCycle = 6;
    iq.insert(insts[3], invalidPhysReg, invalidPhysReg, store.get());
    EXPECT_EQ(iq.size(), 4u);

    iq.wakeIssuable(4);
    EXPECT_TRUE(readySeqs(iq).empty());     // front latency not over
    iq.wakeIssuable(5);
    EXPECT_EQ(readySeqs(iq), (std::vector<std::uint64_t>{1}));
    iq.wakeIssuable(6);
    iq.wakeReg(4);          // both operands of seq 2 at once
    EXPECT_EQ(readySeqs(iq), (std::vector<std::uint64_t>{1, 2}));
    iq.wakeStore(store.get());
    iq.wakeReg(3);          // the oldest joins at the head
    EXPECT_EQ(readySeqs(iq), (std::vector<std::uint64_t>{0, 1, 2, 3}));

    iq.remove(insts[1]->iqSlot);
    iq.remove(insts[3]->iqSlot);
    EXPECT_EQ(readySeqs(iq), (std::vector<std::uint64_t>{0, 2}));
    EXPECT_EQ(iq.size(), 2u);
}

TEST(IssueQueue, SquashedEntriesLeaveEveryWaitList)
{
    DynInstPool pool;
    IssueQueue iq(2, 16);
    auto a = pool.acquire();
    auto b = pool.acquire();
    auto st = pool.acquire();
    a->seq = 0;
    b->seq = 1;
    a->issuableCycle = 1;
    iq.insert(a, 7, invalidPhysReg, st.get());
    b->issuableCycle = 1;
    iq.insert(b, 7, invalidPhysReg, nullptr);
    iq.remove(a->iqSlot);   // squashed while waiting on r7 and a store

    // Its slot is reused; the stale front-pipe reference and the old
    // wait-list links must not touch the new occupant.
    auto c = pool.acquire();
    c->seq = 2;
    c->issuableCycle = 3;
    iq.insert(c, invalidPhysReg, invalidPhysReg, nullptr);
    EXPECT_EQ(c->iqSlot, a->iqSlot);
    iq.wakeIssuable(1);
    EXPECT_TRUE(readySeqs(iq).empty());
    iq.wakeStore(st.get());
    iq.wakeReg(7);
    EXPECT_EQ(readySeqs(iq), (std::vector<std::uint64_t>{1}));
    iq.wakeIssuable(3);
    EXPECT_EQ(readySeqs(iq), (std::vector<std::uint64_t>{1, 2}));
}
