/**
 * @file
 * Golden work-counter pins for the core.  test_determinism compares a
 * run only against itself, so a core rewrite that shifts timing would
 * pass it; these values were recorded from the reference core and any
 * change to them is a change in simulated behaviour.
 *
 * The matrix is the perfbench sim-sweep one: every mode on gcc, swim,
 * fpppp and gcc+swim with a 2000-instruction warm-up and a 20000-
 * instruction measured window.  Each row pins the total cycle count,
 * the per-logical-thread commits, the squashed (wrong-path) instruction
 * count, every commit-slot attribution bucket, and an FNV-1a-64 hash of
 * the full --stats-json document with its host-timing block removed.
 *
 * Table1.DefaultsMatchThePaper pins the default machine against the
 * paper's Table 1 values that EXPERIMENTS.md states.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/fingerprint.hh"
#include "common/stats.hh"
#include "cpu/smt_params.hh"
#include "isa/isa.hh"
#include "mem/mem_system.hh"
#include "sim/simulator.hh"

using namespace rmt;

namespace
{

struct Pin
{
    SimMode mode;
    const char *mix;                ///< comma-separated workloads
    Cycle total_cycles;
    std::vector<std::uint64_t> committed;   ///< per logical thread
    std::uint64_t wrong_path_insts;         ///< summed over cores
    std::array<std::uint64_t, numStallCauses> slots;
    std::uint64_t stats_hash;       ///< stats JSON without "host"
};

const Pin kPins[] = {
    {SimMode::Base, "gcc", 20418, {22259}, 54058,
     {22259, 0, 11002, 0, 0, 0, 0, 0, 0, 0,
      37656, 1048, 0, 0, 0, 0, 0, 91379, 0, 0},
     0x8170ed3766fb5ab5ull},
    {SimMode::Base, "swim", 20883, {22153}, 175,
     {22153, 0, 127, 0, 0, 0, 0, 0, 0, 0,
      120905, 1843, 0, 0, 0, 0, 0, 22036, 0, 0},
     0xeada4206da46b39eull},
    {SimMode::Base, "fpppp", 16057, {22347}, 232,
     {22347, 0, 88, 0, 0, 0, 0, 0, 0, 0,
      2151, 1831, 0, 0, 0, 0, 0, 102039, 0, 0},
     0x0c9121192391e0b5ull},
    {SimMode::Base, "gcc,swim", 32722, {39067, 22095}, 74497,
     {61162, 0, 8159, 0, 0, 0, 0, 0, 0, 0,
      99563, 1450, 0, 0, 0, 0, 0, 91442, 0, 0},
     0xa272fd65e844f531ull},
    {SimMode::Base2, "gcc", 20746, {22259}, 68894,
     {44550, 0, 9466, 0, 0, 0, 0, 0, 0, 0,
      39277, 1044, 0, 0, 0, 0, 0, 71631, 0, 0},
     0x5b2c556f975f82e6ull},
    {SimMode::Base2, "swim", 32481, {22095}, 266,
     {44190, 0, 139, 0, 0, 0, 0, 0, 0, 0,
      176639, 1834, 0, 0, 0, 0, 0, 37046, 0, 0},
     0xea6753c85079c089ull},
    {SimMode::Base2, "fpppp", 30685, {22200}, 366,
     {44383, 0, 100, 0, 0, 0, 0, 0, 0, 0,
      105143, 1834, 0, 0, 0, 0, 0, 94020, 0, 0},
     0xf08452e9033b1eebull},
    {SimMode::Base2, "gcc,swim", 62932, {79624, 22037}, 174430,
     {203270, 0, 14128, 0, 0, 0, 0, 0, 0, 0,
      140751, 1447, 0, 0, 0, 0, 0, 143860, 0, 0},
     0x5f39847d9b8806acull},
    {SimMode::Srt, "gcc", 20620, {22301}, 47789,
     {44544, 0, 20711, 0, 0, 0, 0, 0, 0, 0,
      18181, 524, 0, 0, 0, 0, 0, 81000, 0, 0},
     0xd42579860cf15722ull},
    {SimMode::Srt, "swim", 20918, {22211}, 167,
     {44364, 0, 33536, 0, 0, 0, 0, 0, 0, 0,
      42062, 907, 0, 0, 0, 0, 0, 46475, 0, 0},
     0xbbb6d3c12046c1ccull},
    {SimMode::Srt, "fpppp", 20510, {22470}, 257,
     {44694, 0, 1836, 0, 0, 0, 0, 0, 0, 0,
      1040, 901, 0, 0, 0, 0, 0, 115609, 0, 0},
     0xcedde3b675f9a934ull},
    {SimMode::Srt, "gcc,swim", 35582, {41690, 22097}, 61942,
     {127476, 0, 31081, 0, 0, 0, 0, 0, 0, 0,
      36976, 719, 0, 0, 0, 0, 0, 88404, 0, 0},
     0xfeab9ef1dcb567ceull},
    {SimMode::Lockstep, "gcc", 20730, {22259}, 54066,
     {22259, 0, 11002, 0, 0, 0, 0, 0, 0, 0,
      40088, 1112, 0, 0, 0, 0, 0, 91379, 0, 0},
     0x8174f3ded3758e94ull},
    {SimMode::Lockstep, "swim", 21923, {22153}, 175,
     {22153, 0, 127, 0, 0, 0, 0, 0, 0, 0,
      129097, 1971, 0, 0, 0, 0, 0, 22036, 0, 0},
     0xb34dd34419986183ull},
    {SimMode::Lockstep, "fpppp", 16582, {22347}, 232,
     {22347, 0, 88, 0, 0, 0, 0, 0, 0, 0,
      2343, 1959, 0, 0, 0, 0, 0, 105919, 0, 0},
     0x9322a2851b5b1ac6ull},
    {SimMode::Lockstep, "gcc,swim", 34346, {40696, 22095}, 77534,
     {62791, 0, 8823, 0, 0, 0, 0, 0, 0, 0,
      106509, 1546, 0, 0, 0, 0, 0, 95099, 0, 0},
     0x4767be0e08f07aefull},
    {SimMode::Crt, "gcc", 20449, {22301}, 54246,
     {44544, 0, 45314, 0, 0, 0, 0, 0, 0, 0,
      37656, 1136, 0, 0, 0, 0, 0, 198534, 0, 0},
     0xcfee66c375cfcbf1ull},
    {SimMode::Crt, "swim", 20922, {22214}, 175,
     {44367, 0, 102010, 0, 0, 0, 0, 0, 0, 0,
      121025, 2019, 0, 0, 0, 0, 0, 65331, 0, 0},
     0x10de993b5e40149full},
    {SimMode::Crt, "fpppp", 16147, {22618}, 232,
     {44965, 0, 3482, 0, 0, 0, 0, 0, 0, 0,
      2151, 2007, 0, 0, 0, 0, 0, 205747, 0, 0},
     0x055a15f86086742bull},
    {SimMode::Crt, "gcc,swim", 20932, {22574, 22211}, 49501,
     {89455, 0, 32085, 0, 0, 0, 0, 0, 0, 0,
      58793, 1577, 0, 0, 0, 0, 0, 153002, 0, 0},
     0x794cb0b56b9c89daull},
};

std::vector<std::string>
splitMix(const std::string &mix)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t comma; (comma = mix.find(',', start)) !=
                            std::string::npos;
         start = comma + 1) {
        out.push_back(mix.substr(start, comma - start));
    }
    out.push_back(mix.substr(start));
    return out;
}

/** The stats document minus its wall-clock block (flat object). */
std::string
withoutHost(const std::string &json)
{
    const std::string key = ",\"host\":{";
    const std::size_t begin = json.find(key);
    if (begin == std::string::npos)
        return json;
    const std::size_t end = json.find('}', begin);
    return json.substr(0, begin) + json.substr(end + 1);
}

class CorePins : public ::testing::TestWithParam<Pin>
{
};

TEST_P(CorePins, MatchReferenceCore)
{
    const Pin &pin = GetParam();
    SimOptions o;
    o.mode = pin.mode;
    o.warmup_insts = 2000;
    o.measure_insts = 20000;
    o.collect_stats_json = true;
    Simulation sim(splitMix(pin.mix), o);
    const RunResult r = sim.run();

    EXPECT_EQ(r.total_cycles, pin.total_cycles);
    ASSERT_EQ(r.threads.size(), pin.committed.size());
    for (std::size_t i = 0; i < r.threads.size(); ++i)
        EXPECT_EQ(r.threads[i].committed, pin.committed[i]) << "thread " << i;

    std::uint64_t wrong_path = 0;
    for (unsigned c = 0; c < sim.chip().numCores(); ++c) {
        for (const StatBase *s : sim.chip().cpu(c).stats().statList()) {
            if (s->name() == "wrong_path_insts")
                wrong_path += dynamic_cast<const Counter &>(*s).value();
        }
    }
    EXPECT_EQ(wrong_path, pin.wrong_path_insts);

    for (std::size_t i = 0; i < numStallCauses; ++i) {
        EXPECT_EQ(r.attribution.slots[i], pin.slots[i])
            << "slots_" << stallCauseName(static_cast<StallCause>(i));
    }
    EXPECT_EQ(fnv1a64(withoutHost(r.stats_json)), pin.stats_hash);
}

std::string
pinName(const ::testing::TestParamInfo<Pin> &info)
{
    std::string name = std::string(modeName(info.param.mode)) + "_" +
                       info.param.mix;
    for (char &c : name) {
        if (c == ',')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(SimSweep, CorePins, ::testing::ValuesIn(kPins),
                         pinName);

TEST(Table1, DefaultsMatchThePaper)
{
    const SmtParams p;
    const MemSystemParams m;
    constexpr std::uint64_t KB = 1024;

    // Fetch: two 8-instruction chunks per cycle.
    EXPECT_EQ(p.fetch_chunks_per_cycle, 2u);
    EXPECT_EQ(chunkSize, 8u);
    // A 128-entry IQ in two 64-entry halves, 8-issue (4 per half).
    EXPECT_EQ(p.iq_entries, 128u);
    EXPECT_EQ(p.issue_width, 8u);
    EXPECT_EQ(p.issue_per_half, 4u);
    EXPECT_EQ(p.phys_regs, 512u);
    // 8 integer, 8 logic, 4 memory and 4 fp units over both halves.
    EXPECT_EQ(2 * p.int_units_per_half, 8u);
    EXPECT_EQ(2 * p.logic_units_per_half, 8u);
    EXPECT_EQ(2 * p.mem_units_per_half, 4u);
    EXPECT_EQ(2 * p.fp_units_per_half, 4u);
    EXPECT_EQ(p.load_queue_entries, 64u);
    EXPECT_EQ(p.store_queue_entries, 64u);
    EXPECT_EQ(p.merge_buffer.entries, 16u);
    EXPECT_EQ(p.merge_buffer.block_bytes, 64u);
    EXPECT_EQ(p.icache.size_bytes, 64 * KB);
    EXPECT_EQ(p.dcache.size_bytes, 64 * KB);
    EXPECT_EQ(m.l2.size_bytes, 3 * KB * KB);
    // Pipeline segments I=4, P=2, Q=4, R=4, E=1, M=2.
    EXPECT_EQ(p.ibox_latency, 4u);
    EXPECT_EQ(p.pbox_latency, 2u);
    EXPECT_EQ(p.qbox_front_latency + p.qbox_back_latency, 4u);
    EXPECT_EQ(p.rbox_latency, 4u);
    EXPECT_EQ(StaticInst{Op::Add}.latency(), 1u);
    EXPECT_EQ(p.mbox_latency, 2u);
    // SRT forwarding, and CRT's extra cross-core hop.
    EXPECT_EQ(p.lpq_forward_latency, 4u);
    EXPECT_EQ(p.lvq_forward_latency, 2u);
    EXPECT_EQ(p.cross_core_latency, 4u);
}

} // namespace
