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

namespace
{

#ifdef RMT_DATA_MEMORY_MMAP
/** Fresh zero pages over @p size bytes (at @p at when non-null). */
std::uint8_t *
mapZeroPages(void *at, std::size_t size)
{
    void *p = ::mmap(at, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | (at ? MAP_FIXED : 0),
                     -1, 0);
    if (p == MAP_FAILED)
        return nullptr;
#ifdef MADV_NOHUGEPAGE
    // A huge page would make one touched byte cost 2 MiB of residency.
    ::madvise(p, size, MADV_NOHUGEPAGE);
#endif
    return static_cast<std::uint8_t *>(p);
}
#endif

} // namespace

DataMemory::DataMemory(std::size_t size_bytes) : _size(size_bytes)
{
    if (_size == 0)
        return;
#ifdef RMT_DATA_MEMORY_MMAP
    mem = mapZeroPages(nullptr, _size);
#else
    mem = static_cast<std::uint8_t *>(std::calloc(_size, 1));
#endif
    if (!mem)
        throw std::bad_alloc();
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
    if (!mem)
        return;
#ifdef RMT_DATA_MEMORY_MMAP
    // Replacing the mapping in place drops the touched pages without
    // writing a byte.  A failed MAP_FIXED may leave the range unmapped,
    // so the image degrades to empty (every access out of bounds).
    if (!mapZeroPages(mem, _size)) {
        mem = nullptr;
        _size = 0;
        throw std::bad_alloc();
    }
#else
    std::memset(mem, 0, _size);
#endif
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
