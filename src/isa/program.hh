/**
 * @file
 * Program representation: pre-decoded instruction memory plus a builder
 * with label-based control-flow fixup, and the per-logical-thread flat
 * data memory image.
 */

#ifndef RMTSIM_ISA_PROGRAM_HH
#define RMTSIM_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/isa.hh"

namespace rmt
{

/**
 * Read-only instruction memory.  The paper assumes the instruction space
 * is read-only, so both redundant threads always observe identical
 * instruction values; we encode that assumption structurally.
 */
class Program
{
  public:
    /** Text segment base address. */
    static constexpr Addr textBase = 0x1000;

    Program() = default;
    explicit Program(std::vector<StaticInst> insts, std::string name = "")
        : _insts(std::move(insts)), _name(std::move(name))
    {
    }

    /** Entry point (first instruction). */
    Addr entry() const { return textBase; }

    /** Number of instructions. */
    std::size_t size() const { return _insts.size(); }

    const std::string &name() const { return _name; }

    /** True if @p pc addresses a real instruction. */
    bool
    contains(Addr pc) const
    {
        return pc >= textBase && (pc & 3) == 0 &&
               (pc - textBase) / instBytes < _insts.size();
    }

    /**
     * Fetch the instruction at @p pc.  Out-of-range addresses (reachable
     * only on a wrong path or after an undetected fault) decode as Halt,
     * which has no effect unless it commits.
     */
    const StaticInst &
    fetch(Addr pc) const
    {
        static const StaticInst halt_inst{Op::Halt, noReg, noReg, noReg, 0};
        if (!contains(pc))
            return halt_inst;
        return _insts[(pc - textBase) / instBytes];
    }

    const std::vector<StaticInst> &insts() const { return _insts; }

  private:
    std::vector<StaticInst> _insts;
    std::string _name;
};

/**
 * Builder for Program with symbolic labels.  Control-flow immediates are
 * byte displacements relative to the instruction after the branch;
 * label() / branch-to-label calls resolve them at build() time, in
 * either order.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name = "") : _name(std::move(name))
    {
    }

    /** Define a label at the current position. */
    ProgramBuilder &label(const std::string &name);

    /** Address the next emitted instruction will occupy. */
    Addr here() const;

    // --- Raw emit -------------------------------------------------------
    ProgramBuilder &emit(Op op, RegIndex rd = noReg, RegIndex ra = noReg,
                         RegIndex rb = noReg, std::int64_t imm = 0);

    // --- Integer --------------------------------------------------------
    ProgramBuilder &nop() { return emit(Op::Nop); }
    ProgramBuilder &halt() { return emit(Op::Halt); }
    ProgramBuilder &add(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Add, d, a, b); }
    ProgramBuilder &sub(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Sub, d, a, b); }
    ProgramBuilder &mul(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Mul, d, a, b); }
    ProgramBuilder &div(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Div, d, a, b); }
    ProgramBuilder &addi(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::AddI, d, a, noReg, imm); }
    ProgramBuilder &muli(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::MulI, d, a, noReg, imm); }
    /** li: load immediate via addi from r0. */
    ProgramBuilder &li(RegIndex d, std::int64_t imm)
    { return emit(Op::AddI, d, intReg(0), noReg, imm); }
    ProgramBuilder &mov(RegIndex d, RegIndex a)
    { return emit(Op::AddI, d, a, noReg, 0); }
    ProgramBuilder &slt(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Slt, d, a, b); }
    ProgramBuilder &sltu(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Sltu, d, a, b); }
    ProgramBuilder &slti(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::SltI, d, a, noReg, imm); }
    ProgramBuilder &cmpeq(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Cmpeq, d, a, b); }

    // --- Logic ----------------------------------------------------------
    ProgramBuilder &and_(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::And, d, a, b); }
    ProgramBuilder &or_(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Or, d, a, b); }
    ProgramBuilder &xor_(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Xor, d, a, b); }
    ProgramBuilder &andi(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::AndI, d, a, noReg, imm); }
    ProgramBuilder &ori(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::OrI, d, a, noReg, imm); }
    ProgramBuilder &xori(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::XorI, d, a, noReg, imm); }
    ProgramBuilder &sll(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Sll, d, a, b); }
    ProgramBuilder &srl(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Srl, d, a, b); }
    ProgramBuilder &sra(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Sra, d, a, b); }
    ProgramBuilder &slli(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::SllI, d, a, noReg, imm); }
    ProgramBuilder &srli(RegIndex d, RegIndex a, std::int64_t imm)
    { return emit(Op::SrlI, d, a, noReg, imm); }

    // --- Memory ---------------------------------------------------------
    ProgramBuilder &ldb(RegIndex d, RegIndex a, std::int64_t off)
    { return emit(Op::Ldb, d, a, noReg, off); }
    ProgramBuilder &ldh(RegIndex d, RegIndex a, std::int64_t off)
    { return emit(Op::Ldh, d, a, noReg, off); }
    ProgramBuilder &ldw(RegIndex d, RegIndex a, std::int64_t off)
    { return emit(Op::Ldw, d, a, noReg, off); }
    ProgramBuilder &ldq(RegIndex d, RegIndex a, std::int64_t off)
    { return emit(Op::Ldq, d, a, noReg, off); }
    ProgramBuilder &stb(RegIndex v, RegIndex a, std::int64_t off)
    { return emit(Op::Stb, noReg, a, v, off); }
    ProgramBuilder &sth(RegIndex v, RegIndex a, std::int64_t off)
    { return emit(Op::Sth, noReg, a, v, off); }
    ProgramBuilder &stw(RegIndex v, RegIndex a, std::int64_t off)
    { return emit(Op::Stw, noReg, a, v, off); }
    ProgramBuilder &stq(RegIndex v, RegIndex a, std::int64_t off)
    { return emit(Op::Stq, noReg, a, v, off); }
    ProgramBuilder &fld(RegIndex d, RegIndex a, std::int64_t off)
    { return emit(Op::Fld, d, a, noReg, off); }
    ProgramBuilder &fst(RegIndex v, RegIndex a, std::int64_t off)
    { return emit(Op::Fst, noReg, a, v, off); }
    ProgramBuilder &membar() { return emit(Op::MemBar); }
    ProgramBuilder &ldunc(RegIndex d, RegIndex a, std::int64_t off)
    { return emit(Op::LdUnc, d, a, noReg, off); }
    ProgramBuilder &stunc(RegIndex v, RegIndex a, std::int64_t off)
    { return emit(Op::StUnc, noReg, a, v, off); }
    ProgramBuilder &iret() { return emit(Op::Iret); }

    // --- Control flow (label-resolved) -----------------------------------
    ProgramBuilder &beq(RegIndex a, RegIndex b, const std::string &lbl)
    { return emitBranch(Op::Beq, noReg, a, b, lbl); }
    ProgramBuilder &bne(RegIndex a, RegIndex b, const std::string &lbl)
    { return emitBranch(Op::Bne, noReg, a, b, lbl); }
    ProgramBuilder &blt(RegIndex a, RegIndex b, const std::string &lbl)
    { return emitBranch(Op::Blt, noReg, a, b, lbl); }
    ProgramBuilder &bge(RegIndex a, RegIndex b, const std::string &lbl)
    { return emitBranch(Op::Bge, noReg, a, b, lbl); }
    ProgramBuilder &br(const std::string &lbl)
    { return emitBranch(Op::Br, noReg, noReg, noReg, lbl); }
    ProgramBuilder &call(const std::string &lbl, RegIndex link = linkReg)
    { return emitBranch(Op::Call, link, noReg, noReg, lbl); }
    ProgramBuilder &callr(RegIndex a, RegIndex link = linkReg)
    { return emit(Op::CallR, link, a); }
    ProgramBuilder &jmp(RegIndex a) { return emit(Op::Jmp, noReg, a); }
    ProgramBuilder &ret(RegIndex a = linkReg)
    { return emit(Op::Ret, noReg, a); }

    // --- Floating point ---------------------------------------------------
    ProgramBuilder &fadd(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Fadd, d, a, b); }
    ProgramBuilder &fsub(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Fsub, d, a, b); }
    ProgramBuilder &fmul(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Fmul, d, a, b); }
    ProgramBuilder &fdiv(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Fdiv, d, a, b); }
    ProgramBuilder &fsqrt(RegIndex d, RegIndex a)
    { return emit(Op::Fsqrt, d, a); }
    ProgramBuilder &fneg(RegIndex d, RegIndex a)
    { return emit(Op::Fneg, d, a); }
    ProgramBuilder &fcmplt(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Fcmplt, d, a, b); }
    ProgramBuilder &fcmpeq(RegIndex d, RegIndex a, RegIndex b)
    { return emit(Op::Fcmpeq, d, a, b); }
    ProgramBuilder &cvtif(RegIndex d, RegIndex a)
    { return emit(Op::CvtIF, d, a); }
    ProgramBuilder &cvtfi(RegIndex d, RegIndex a)
    { return emit(Op::CvtFI, d, a); }

    /** Resolve all labels and produce the Program.  Fatal on undefined
     *  label references or duplicate labels. */
    Program build();

    /** Instructions emitted so far. */
    std::size_t size() const { return insts.size(); }

  private:
    ProgramBuilder &emitBranch(Op op, RegIndex rd, RegIndex ra, RegIndex rb,
                               const std::string &lbl);

    struct Fixup
    {
        std::size_t index;      ///< instruction needing its imm patched
        std::string label;
    };

    std::string _name;
    std::vector<StaticInst> insts;
    std::unordered_map<std::string, std::size_t> labels;
    std::vector<Fixup> fixups;
};

/**
 * Flat per-logical-thread data memory.  Out-of-bounds accesses (possible
 * on wrong paths and after injected faults) read as zero and drop
 * writes — they must never crash the simulator.
 *
 * The image is lazily zeroed: on POSIX it is an anonymous mapping, so
 * a page becomes resident only once it is written (the workloads touch
 * a small fraction of their address space).  Elsewhere it falls back
 * to calloc.
 */
class DataMemory
{
  public:
    explicit DataMemory(std::size_t size_bytes);
    ~DataMemory();

    DataMemory(const DataMemory &) = delete;
    DataMemory &operator=(const DataMemory &) = delete;

    /** Residency granule, and the page of every sparse image of it
     *  (snapshots, fault-oracle goldens). */
    static constexpr std::size_t pageBytes = 4096;

    /** True when the @p len bytes at @p bytes are all zero. */
    static bool zeroBytes(const std::uint8_t *bytes, std::size_t len);

    std::size_t size() const { return _size; }

    /** Zero the whole image, releasing every page it had touched. */
    void clear();

    bool
    inBounds(Addr addr, unsigned bytes) const
    {
        return addr + bytes <= _size && addr + bytes >= addr;
    }

    /** Little-endian read of @p bytes (1/2/4/8). */
    std::uint64_t
    read(Addr addr, unsigned bytes) const
    {
        if (!inBounds(addr, bytes))
            return 0;
        std::uint64_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= std::uint64_t{mem[addr + i]} << (8 * i);
        return v;
    }

    /** Little-endian write of @p bytes (1/2/4/8). */
    void
    write(Addr addr, unsigned bytes, std::uint64_t value)
    {
        if (!inBounds(addr, bytes))
            return;
        for (unsigned i = 0; i < bytes; ++i)
            mem[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }

    /** Raw access for workload initialisation. */
    std::uint8_t *data() { return mem; }
    const std::uint8_t *data() const { return mem; }

  private:
    std::uint8_t *mem = nullptr;
    std::size_t _size = 0;
};

} // namespace rmt

#endif // RMTSIM_ISA_PROGRAM_HH
