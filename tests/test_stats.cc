#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"

using namespace rmt;

TEST(Stats, CounterBasics)
{
    StatGroup g("grp");
    Counter c(g, "count", "a counter");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    StatGroup g("grp");
    Average a(g, "avg", "an average");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(Stats, HistogramBuckets)
{
    StatGroup g("grp");
    Histogram h(g, "hist", "a histogram", 4, 10.0);
    h.sample(0);
    h.sample(9.9);
    h.sample(10);
    h.sample(35);
    h.sample(40);    // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.samples(), 5u);
}

TEST(Stats, GroupDumpContainsNamesAndValues)
{
    StatGroup g("core0");
    Counter c(g, "cycles", "cycles simulated");
    c += 7;
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("core0.cycles"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("cycles simulated"), std::string::npos);
}

TEST(Stats, GroupResetAll)
{
    StatGroup g("g");
    Counter c(g, "c", "");
    Average a(g, "a", "");
    c += 5;
    a.sample(1.0);
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.samples(), 0u);
}

// Regression: stats used to stay registered after destruction, so a
// dump after a stat died walked a dangling pointer.
TEST(Stats, StatUnregistersOnDestruction)
{
    StatGroup g("g");
    Counter keep(g, "keep", "");
    {
        Counter temp(g, "temp", "");
        ++temp;
        EXPECT_EQ(g.statList().size(), 2u);
    }
    EXPECT_EQ(g.statList().size(), 1u);
    EXPECT_EQ(g.statList().front(), &keep);

    std::ostringstream os;
    g.dump(os);     // must not touch the dead stat
    EXPECT_EQ(os.str().find("temp"), std::string::npos);
    EXPECT_NE(os.str().find("keep"), std::string::npos);
}

// The reverse order: the group dies before a stat it contained.  The
// stat's destructor must not chase the dead group.
TEST(Stats, GroupMayDieBeforeStats)
{
    auto group = std::make_unique<StatGroup>("g");
    auto stat = std::make_unique<Counter>(*group, "c", "");
    group.reset();
    ++*stat;            // stat is detached but still usable
    EXPECT_EQ(stat->value(), 1u);
    stat.reset();       // and must not unregister from the dead group
}

TEST(Stats, RegistryTracksLiveGroups)
{
    StatRegistry &reg = StatRegistry::instance();
    const std::size_t before = reg.liveGroups();
    {
        StatGroup a("a");
        StatGroup b("b");
        EXPECT_EQ(reg.liveGroups(), before + 2);

        bool saw_a = false;
        bool saw_b = false;
        reg.forEach([&](const StatGroup &g) {
            saw_a = saw_a || &g == &a;
            saw_b = saw_b || &g == &b;
        });
        EXPECT_TRUE(saw_a);
        EXPECT_TRUE(saw_b);
    }
    EXPECT_EQ(reg.liveGroups(), before);
}

namespace
{

JsonValue
parsedGroupJson(const StatGroup &g)
{
    std::ostringstream os;
    g.json(os);
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(os.str(), v, error)) << error << "\n"
                                               << os.str();
    return v;
}

} // namespace

TEST(StatsJson, ParseReplacesWhatTheValueHeld)
{
    // One JsonValue reused for two documents holds the second only: no
    // member or element of the first survives, and find() reads the
    // new member.
    JsonValue v;
    ASSERT_TRUE(parseJson("{\"a\":1,\"b\":2}", v));
    ASSERT_TRUE(parseJson("{\"a\":3}", v));
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.members().size(), 1u);
    EXPECT_EQ(v.numberOr("a", -1), 3.0);
    EXPECT_EQ(v.find("b"), nullptr);

    ASSERT_TRUE(parseJson("[1]", v));
    ASSERT_TRUE(parseJson("[2,3]", v));
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.array().size(), 2u);
    EXPECT_EQ(v.array()[0].number(), 2.0);
    EXPECT_TRUE(v.members().empty());
}

TEST(StatsJson, ZeroSampleAverageAndHistogram)
{
    StatGroup g("g");
    Average a(g, "a", "");
    Histogram h(g, "h", "", 3, 2.0);

    const JsonValue v = parsedGroupJson(g);
    const JsonValue *stats = v.find("stats");
    ASSERT_TRUE(stats && stats->isArray());
    ASSERT_EQ(stats->array().size(), 2u);

    const JsonValue &ja = stats->array()[0];
    EXPECT_EQ(ja.strOr("kind", ""), "average");
    EXPECT_EQ(ja.numberOr("count", -1), 0.0);
    EXPECT_EQ(ja.numberOr("mean", -1), 0.0);    // not NaN

    const JsonValue &jh = stats->array()[1];
    EXPECT_EQ(jh.strOr("kind", ""), "histogram");
    EXPECT_EQ(jh.numberOr("count", -1), 0.0);
    const JsonValue *buckets = jh.find("buckets");
    ASSERT_TRUE(buckets && buckets->isArray());
    EXPECT_EQ(buckets->array().size(), 3u);
}

TEST(StatsJson, HistogramBucketsAndOverflow)
{
    StatGroup g("g");
    Histogram h(g, "h", "lifetimes", 4, 10.0);
    h.sample(0);
    h.sample(9.9);
    h.sample(35);
    h.sample(400);      // overflow

    const JsonValue v = parsedGroupJson(g);
    const JsonValue &jh = v.find("stats")->array()[0];
    EXPECT_EQ(jh.numberOr("bucket_width", 0), 10.0);
    const JsonValue *buckets = jh.find("buckets");
    ASSERT_TRUE(buckets && buckets->isArray());
    ASSERT_EQ(buckets->array().size(), 4u);
    EXPECT_EQ(buckets->array()[0].number(), 2.0);
    EXPECT_EQ(buckets->array()[3].number(), 1.0);
    EXPECT_EQ(jh.numberOr("overflow", -1), 1.0);
    EXPECT_EQ(jh.numberOr("count", -1), 4.0);
}

// Two stats may share a name (e.g. identically-named per-thread
// counters); the array representation keeps both.
TEST(StatsJson, DuplicateStatNamesSurvive)
{
    StatGroup g("g");
    Counter c1(g, "dup", "first");
    Counter c2(g, "dup", "second");
    ++c1;
    c2 += 2;

    const JsonValue v = parsedGroupJson(g);
    const JsonValue *stats = v.find("stats");
    ASSERT_TRUE(stats && stats->isArray());
    ASSERT_EQ(stats->array().size(), 2u);
    EXPECT_EQ(stats->array()[0].numberOr("value", -1), 1.0);
    EXPECT_EQ(stats->array()[1].numberOr("value", -1), 2.0);
}

TEST(StatsJson, EscapesAwkwardStrings)
{
    StatGroup g("g\"\\\n");
    Counter c(g, "c", "tab\there");
    const JsonValue v = parsedGroupJson(g);
    EXPECT_EQ(v.strOr("name", ""), "g\"\\\n");
    EXPECT_EQ(v.find("stats")->array()[0].strOr("desc", ""),
              "tab\there");
}
