#include <gtest/gtest.h>

#include "isa/program.hh"

using namespace rmt;

TEST(Program, BuilderEmitsInOrder)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 5).addi(intReg(2), intReg(1), 1).halt();
    Program p = b.build();
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.insts()[0].op, Op::AddI);
    EXPECT_EQ(p.insts()[2].op, Op::Halt);
    EXPECT_EQ(p.entry(), Program::textBase);
}

TEST(Program, BackwardLabelResolution)
{
    ProgramBuilder b("t");
    b.label("top");
    b.nop();
    b.br("top");
    Program p = b.build();
    // br at index 1; displacement from index 2 back to 0 = -8 bytes.
    EXPECT_EQ(p.insts()[1].imm, -8);
}

TEST(Program, ForwardLabelResolution)
{
    ProgramBuilder b("t");
    b.beq(intReg(1), intReg(2), "end");
    b.nop();
    b.nop();
    b.label("end");
    b.halt();
    Program p = b.build();
    // beq at 0; target index 3; displacement (3-1)*4 = 8.
    EXPECT_EQ(p.insts()[0].imm, 8);
}

TEST(Program, FetchAndContains)
{
    ProgramBuilder b("t");
    b.nop().halt();
    Program p = b.build();
    EXPECT_TRUE(p.contains(Program::textBase));
    EXPECT_TRUE(p.contains(Program::textBase + 4));
    EXPECT_FALSE(p.contains(Program::textBase + 8));
    EXPECT_FALSE(p.contains(Program::textBase + 2));    // misaligned
    EXPECT_FALSE(p.contains(0));
    EXPECT_EQ(p.fetch(Program::textBase).op, Op::Nop);
    // Out-of-range decodes as Halt (wrong-path safety).
    EXPECT_EQ(p.fetch(Program::textBase + 800).op, Op::Halt);
    EXPECT_EQ(p.fetch(0x10).op, Op::Halt);
}

TEST(Program, HereTracksAddresses)
{
    ProgramBuilder b("t");
    EXPECT_EQ(b.here(), Program::textBase);
    b.nop();
    EXPECT_EQ(b.here(), Program::textBase + 4);
}

TEST(DataMemory, ReadWriteRoundTrip)
{
    DataMemory mem(4096);
    mem.write(0x10, 8, 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x10, 8), 0x1122334455667788ull);
    // Little-endian sub-reads.
    EXPECT_EQ(mem.read(0x10, 1), 0x88u);
    EXPECT_EQ(mem.read(0x10, 2), 0x7788u);
    EXPECT_EQ(mem.read(0x10, 4), 0x55667788u);
    EXPECT_EQ(mem.read(0x14, 4), 0x11223344u);
}

TEST(DataMemory, PartialOverwrite)
{
    DataMemory mem(64);
    mem.write(0, 8, ~0ull);
    mem.write(2, 1, 0);
    EXPECT_EQ(mem.read(0, 8), 0xFFFFFFFFFF00FFFFull);
}

TEST(DataMemory, OutOfBoundsIsBenign)
{
    DataMemory mem(64);
    EXPECT_EQ(mem.read(64, 1), 0u);
    EXPECT_EQ(mem.read(60, 8), 0u);     // straddles the end
    mem.write(100, 8, 42);              // dropped
    EXPECT_EQ(mem.read(56, 8), 0u);
    EXPECT_FALSE(mem.inBounds(60, 8));
    EXPECT_TRUE(mem.inBounds(56, 8));
    // Wrap-around addresses must not pass the bounds check.
    EXPECT_FALSE(mem.inBounds(~Addr{0}, 8));
}

TEST(DataMemory, FreshImageReadsZero)
{
    // Workload-sized: the pages are mapped lazily, never written here.
    DataMemory mem(8 * 1024 * 1024);
    EXPECT_TRUE(DataMemory::zeroBytes(mem.data(), mem.size()));
    EXPECT_EQ(mem.read(0, 8), 0u);
    EXPECT_EQ(mem.read(mem.size() - 8, 8), 0u);
}

TEST(DataMemory, ClearZeroesAfterWrites)
{
    DataMemory mem(3 * DataMemory::pageBytes + 100);  // short last page
    mem.write(0, 8, 0x0123456789ABCDEFull);
    mem.write(DataMemory::pageBytes + 7, 4, 0xDEADBEEF);
    mem.write(mem.size() - 8, 8, ~0ull);
    ASSERT_FALSE(DataMemory::zeroBytes(mem.data(), mem.size()));

    mem.clear();
    EXPECT_TRUE(DataMemory::zeroBytes(mem.data(), mem.size()));
    EXPECT_EQ(mem.read(DataMemory::pageBytes + 7, 4), 0u);

    // Still a working image after the clear.
    mem.write(16, 2, 0xBEEF);
    EXPECT_EQ(mem.read(16, 2), 0xBEEFu);
}

TEST(DataMemory, OutOfBoundsIsBenignAfterClear)
{
    DataMemory mem(2 * DataMemory::pageBytes);
    mem.clear();
    mem.write(mem.size(), 1, 0xFF);         // dropped
    mem.write(mem.size() - 4, 8, ~0ull);    // straddles the end: dropped
    EXPECT_EQ(mem.read(mem.size(), 1), 0u);
    EXPECT_EQ(mem.read(mem.size() - 4, 8), 0u);
    EXPECT_TRUE(DataMemory::zeroBytes(mem.data(), mem.size()));
}
