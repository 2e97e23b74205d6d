#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
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

namespace
{

/** Every nonzero byte lies in a touched page, forEachTouchedPage visits
 *  exactly the touched pages in ascending order, and the image equals
 *  @p shadow byte for byte. */
void
expectTouchedInvariant(const DataMemory &mem,
                       const std::vector<std::uint8_t> &shadow,
                       std::size_t step)
{
    const std::size_t pages =
        (mem.size() + DataMemory::pageBytes - 1) / DataMemory::pageBytes;
    std::vector<std::size_t> visited;
    mem.forEachTouchedPage(
        [&visited](std::size_t p, std::span<const std::uint8_t>) {
            visited.push_back(p);
        });
    std::vector<std::size_t> touched;
    for (std::size_t p = 0; p < pages; ++p) {
        const std::span<const std::uint8_t> bytes = mem.page(p);
        if (mem.touched(p))
            touched.push_back(p);
        else
            EXPECT_TRUE(DataMemory::zeroBytes(bytes.data(), bytes.size()))
                << "untouched page " << p << " is nonzero at step " << step;
    }
    EXPECT_EQ(visited, touched) << "step " << step;
    EXPECT_TRUE(std::equal(shadow.begin(), shadow.end(), mem.data()))
        << "image differs from its model at step " << step;
}

} // namespace

TEST(DataMemory, EveryNonzeroByteLiesInATouchedPage)
{
    // A short last page, so straddling and end-of-image cases meet it.
    constexpr std::size_t page = DataMemory::pageBytes;
    DataMemory mem(5 * page + 100);
    std::vector<std::uint8_t> shadow(mem.size(), 0);
    Random rng(23);

    // Addresses near page edges and the image end are where marking a
    // single page would go wrong; mix them with uniform ones.
    const auto pickAddr = [&]() -> Addr {
        switch (rng.range(4)) {
          case 0:
            return rng.range(mem.size() + 16);
          case 1:
            return (rng.range(6) + 1) * page - rng.range(8);
          case 2:
            return mem.size() - rng.range(12);
          default:
            return ~Addr{0} - rng.range(8);     // wraps: dropped
        }
    };
    for (std::size_t step = 0; step < 3000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.range(20));
        if (op < 16) {
            const unsigned bytes = 1u << rng.range(4);
            const Addr addr = pickAddr();
            // Some stores write zero: their page is touched yet clean.
            const std::uint64_t value = rng.range(4) ? rng.next() : 0;
            mem.write(addr, bytes, value);
            if (addr + bytes <= mem.size() && addr + bytes >= addr) {
                for (unsigned i = 0; i < bytes; ++i)
                    shadow[addr + i] =
                        static_cast<std::uint8_t>(value >> (8 * i));
            }
        } else if (op < 19) {
            std::vector<std::uint8_t> bytes(rng.range(2 * page + 1));
            for (std::uint8_t &b : bytes)
                b = static_cast<std::uint8_t>(rng.next());
            const Addr addr = pickAddr();
            mem.fill(addr, bytes.data(), bytes.size());
            if (!bytes.empty() && addr <= mem.size() &&
                bytes.size() <= mem.size() - addr) {
                std::copy(bytes.begin(), bytes.end(),
                          shadow.begin() + static_cast<long>(addr));
            }
        } else {
            mem.clear();
            std::fill(shadow.begin(), shadow.end(), 0);
            for (std::size_t p = 0; p * page < mem.size(); ++p)
                EXPECT_FALSE(mem.touched(p)) << "page " << p;
        }
        expectTouchedInvariant(mem, shadow, step);
        if (HasFailure())
            return;
    }
}

TEST(DataMemory, WritesMarkEveryPageTheyStoreTo)
{
    constexpr std::size_t page = DataMemory::pageBytes;
    DataMemory mem(3 * page + 100);
    mem.write(page - 4, 8, ~0ull);      // straddles pages 0 and 1
    EXPECT_TRUE(mem.touched(0));
    EXPECT_TRUE(mem.touched(1));
    EXPECT_FALSE(mem.touched(2));
    mem.write(mem.size() - 8, 8, 1);    // the short last page
    EXPECT_TRUE(mem.touched(3));
    mem.write(mem.size() - 4, 8, 1);    // out of bounds: marks nothing
    mem.write(2 * page, 8, 0);          // a zero store still marks
    EXPECT_TRUE(mem.touched(2));

    const std::uint8_t bytes[3] = {1, 2, 3};
    mem.clear();
    mem.fill(2 * page - 1, bytes, sizeof bytes);
    EXPECT_FALSE(mem.touched(0));
    EXPECT_TRUE(mem.touched(1));
    EXPECT_TRUE(mem.touched(2));
    EXPECT_EQ(mem.read(2 * page - 1, 2), 0x0201u);
    mem.fill(mem.size() - 2, bytes, sizeof bytes);   // dropped
    EXPECT_FALSE(mem.touched(3));
}
