#include "isa/program.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#define RMT_DATA_MEMORY_MMAP 1
#include <sys/mman.h>
#endif

#include "common/logging.hh"

namespace rmt
{

std::uint64_t
Program::readsOf(const std::vector<StaticInst> &insts)
{
    static_assert(numArchRegs <= 64, "one mask bit per register");
    std::uint64_t mask = 0;
    for (const StaticInst &si : insts) {
        for (const RegIndex r : {si.ra, si.rb}) {
            if (r < numArchRegs)
                mask |= std::uint64_t{1} << r;
        }
    }
    return mask;
}

DataMemory::DataMemory(std::size_t size_bytes)
    : _size(size_bytes),
      touchedMap((size_bytes + 64 * pageBytes - 1) / (64 * pageBytes))
{
    if (_size == 0)
        return;
#ifdef RMT_DATA_MEMORY_MMAP
    void *p = ::mmap(nullptr, _size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
    // A huge page would make one touched byte cost 2 MiB of residency.
    ::madvise(p, _size, MADV_NOHUGEPAGE);
#endif
    mem = static_cast<std::uint8_t *>(p);
#else
    mem = static_cast<std::uint8_t *>(std::calloc(_size, 1));
    if (!mem)
        throw std::bad_alloc();
#endif
}

DataMemory::~DataMemory()
{
    if (!mem)
        return;
#ifdef RMT_DATA_MEMORY_MMAP
    ::munmap(mem, _size);
#else
    std::free(mem);
#endif
}

bool
DataMemory::zeroBytes(const std::uint8_t *bytes, std::size_t len)
{
    static const std::uint8_t zero[pageBytes] = {};
    for (std::size_t at = 0; at < len; at += pageBytes) {
        const std::size_t n = std::min(pageBytes, len - at);
        if (std::memcmp(bytes + at, zero, n) != 0)
            return false;
    }
    return true;
}

void
DataMemory::clear()
{
    // Zeroing in place keeps the pages resident: a restore refills
    // most of them at once, and a remap would fault each one back in.
    forEachTouchedPage(
        [this](std::size_t p, std::span<const std::uint8_t> bytes) {
            std::memset(mem + p * pageBytes, 0, bytes.size());
        });
    std::fill(touchedMap.begin(), touchedMap.end(), 0);
}

void
DataMemory::fill(Addr addr, const std::uint8_t *bytes, std::size_t len)
{
    if (len == 0 || !inBounds(addr, len))
        return;
    std::memcpy(mem + addr, bytes, len);
    for (std::size_t p = addr / pageBytes; p <= (addr + len - 1) / pageBytes;
         ++p)
        mark(p);
}

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    auto [it, inserted] = labels.emplace(name, insts.size());
    if (!inserted)
        fatal("ProgramBuilder(%s): duplicate label '%s'", _name.c_str(),
              name.c_str());
    (void)it;
    return *this;
}

Addr
ProgramBuilder::here() const
{
    return Program::textBase + insts.size() * instBytes;
}

ProgramBuilder &
ProgramBuilder::emit(Op op, RegIndex rd, RegIndex ra, RegIndex rb,
                     std::int64_t imm)
{
    insts.push_back(StaticInst{op, rd, ra, rb, imm});
    return *this;
}

ProgramBuilder &
ProgramBuilder::emitBranch(Op op, RegIndex rd, RegIndex ra, RegIndex rb,
                           const std::string &lbl)
{
    fixups.push_back(Fixup{insts.size(), lbl});
    return emit(op, rd, ra, rb, 0);
}

Program
ProgramBuilder::build()
{
    for (const auto &fixup : fixups) {
        auto it = labels.find(fixup.label);
        if (it == labels.end())
            fatal("ProgramBuilder(%s): undefined label '%s'", _name.c_str(),
                  fixup.label.c_str());
        // Displacement is relative to the instruction after the branch.
        const auto target = static_cast<std::int64_t>(it->second);
        const auto after = static_cast<std::int64_t>(fixup.index + 1);
        insts[fixup.index].imm = (target - after) * instBytes;
    }
    fixups.clear();
    return Program(insts, _name);
}

} // namespace rmt
