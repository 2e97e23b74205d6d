/**
 * @file
 * Deterministic fault injection (paper Sections 2, 4.5).
 *
 * Models one fault class per hardware structure of the sphere of
 * replication and its boundary, so coverage can be measured per
 * structure rather than asserted:
 *
 *  - transient single-bit flips in architectural register values inside
 *    the sphere (cosmic-ray strike on a register file or latch) —
 *    caught by output comparison at the store comparator;
 *  - transient flips in LVQ data — outside the redundant computation,
 *    so they must be caught (or corrected) by the LVQ's ECC;
 *  - store-queue data/address strikes on an unretired entry — the
 *    corrupted store is compared against the other copy's, so SRT/CRT
 *    detect it while the base machine silently corrupts memory;
 *  - LPQ chunk-address and BOQ outcome corruption — wrong predictions
 *    steer the trailing fetch off the leading path, caught by the
 *    committed-stream divergence check (or corrected by optional ECC);
 *  - PC strikes on a thread's next-fetch address — control-flow faults
 *    that end in divergence detection or a hang (watchdog territory);
 *  - decode corruption (immediate bit flip or opcode substitution) of
 *    the next instruction one thread decodes — a fetch/decode latch
 *    strike inside the sphere;
 *  - merge-buffer data strikes on a released (post-comparison) store —
 *    outside the sphere, so the merge buffer must carry ECC;
 *  - permanent stuck-at faults in a functional unit — caught only when
 *    the redundant copies execute on *different* units, which is what
 *    preferential space redundancy guarantees.
 */

#ifndef RMTSIM_RMT_FAULT_INJECTOR_HH
#define RMTSIM_RMT_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace rmt
{

class SmtCpu;
class RedundantPair;

struct FaultRecord
{
    enum class Kind : std::uint8_t
    {
        TransientReg,       ///< flip one bit of one arch register value
        TransientLvq,       ///< flip one bit of a resident LVQ entry
        PermanentFu,        ///< stuck-at fault in one functional unit
        TransientSqData,    ///< flip one data bit of an unretired SQ entry
        TransientSqAddr,    ///< flip one address bit of an unretired SQ entry
        TransientLpq,       ///< flip one bit of a resident LPQ chunk address
        TransientBoq,       ///< flip one bit of the front BOQ outcome
        TransientPc,        ///< flip one bit of a thread's next fetch pc
        TransientDecode,    ///< corrupt the next decoded instruction
        TransientMergeBuffer,   ///< flip one data bit of the next store
                                ///< accepted into the merge buffer
    };

    Kind kind;
    Cycle when = 0;             ///< activation cycle
    CoreId core = 0;
    ThreadId tid = 0;           ///< victim thread (most transient kinds)
    RegIndex reg = 0;           ///< TransientReg: victim register
    unsigned bit = 0;           ///< bit position to flip
    unsigned fuIndex = 0;       ///< PermanentFu: victim unit (global id)
    std::uint64_t mask = 1;     ///< PermanentFu: result corruption mask
    LogicalId pairLogical = 0;  ///< TransientLvq: victim pair
    bool applied = false;
};

/** Short stable name for a fault kind ("reg", "sqd", ...), used by the
 *  CLI `--fault` syntax and the campaign JSONL. */
const char *faultKindName(FaultRecord::Kind kind);

/** Inverse of faultKindName; throws std::invalid_argument on unknown
 *  names. */
FaultRecord::Kind parseFaultKind(const std::string &name);

/**
 * Parse a CLI fault spec `kind:cycle:core:tid:reg:bit`, where trailing
 * fields irrelevant to the kind may be omitted:
 *
 *   reg:CYCLE:CORE:TID:REG:BIT    register value strike
 *   lvq:CYCLE:CORE:TID            LVQ data strike (pair of TID)
 *   fu:CYCLE:CORE:UNIT:MASKBIT    permanent stuck-at FU fault
 *   sqd:CYCLE:CORE:TID:BIT        store-queue data strike
 *   sqa:CYCLE:CORE:TID:BIT        store-queue address strike
 *   lpq:CYCLE:CORE:TID:BIT        LPQ chunk-address strike
 *   boq:CYCLE:CORE:TID:BIT        BOQ outcome strike
 *   pc:CYCLE:CORE:TID:BIT         fetch-pc strike
 *   dec:CYCLE:CORE:TID:BIT        decode corruption (bit >= 48: opcode)
 *   mb:CYCLE:CORE:TID:BIT         merge-buffer data strike
 *
 * The legacy 2-field forms `reg:CYCLE:TID:REG:BIT`, `lvq:CYCLE:TID`,
 * and `fu:CYCLE:UNIT:MASKBIT` (implicit core 0) are still accepted.
 * Throws std::invalid_argument on malformed input.
 */
FaultRecord parseFaultSpec(const std::string &spec);

/**
 * What the injector needs to know about the machine to validate fault
 * records at schedule() time.  Filled in by Simulation once the chip is
 * built; a default-constructed shape (cores == 0) disables the
 * machine-dependent checks (bare-injector unit tests).
 */
struct FaultMachineShape
{
    unsigned cores = 0;
    unsigned threads = 0;       ///< hardware contexts per core
    unsigned pairs = 0;         ///< redundant pairs on the chip
    unsigned int_units_per_half = 4;
    unsigned logic_units_per_half = 4;
    unsigned mem_units_per_half = 2;
    unsigned fp_units_per_half = 2;
};

/**
 * Throw std::invalid_argument with a descriptive message when @p fault
 * could never apply on a machine of @p shape: register index in range
 * (not r0), bit < 64, FU index names an existing unit, core/thread/pair
 * exist.  The one validator of fault records: schedule() calls it, and
 * so does a runner that finishes a trial without building its machine.
 */
void validateFault(const FaultRecord &fault, const FaultMachineShape &shape);

class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 1) : rng(seed) {}

    /** Provide the machine shape used to validate scheduled records. */
    void configure(const FaultMachineShape &machine) { shape = machine; }

    /** The machine shape schedule() validates against. */
    const FaultMachineShape &machine() const { return shape; }

    /**
     * The simulation was restored from a snapshot taken at @p cycle:
     * schedule() throws std::invalid_argument, naming both cycles, for
     * a fault whose activation cycle is not strictly after it (tick
     * applies faults with when <= now, so such a fault would fire
     * immediately instead of at its nominal cycle).  A trial restores
     * only an image strictly before its first strike
     * (SnapshotCache::latestBefore), so this fails a row only if a
     * runner ever picks a later one.
     */
    void setRestoredCycle(Cycle cycle) { restoredCycle = cycle; }

    /**
     * Schedule @p fault, validating it first (validateFault against
     * machine()); throws std::invalid_argument on a record that could
     * never apply.
     */
    void schedule(const FaultRecord &fault);

    /**
     * Apply transient faults due at @p now to @p cpu (and its pairs).
     * Called once per core per cycle.
     */
    void tick(SmtCpu &cpu, Cycle now);

    /**
     * Permanent-fault filter on execution results: returns @p value
     * XORed with the mask of any active permanent fault on
     * (@p core, @p fu_index).
     */
    std::uint64_t filterFuResult(CoreId core, unsigned fu_index,
                                 Cycle now, std::uint64_t value) const;

    /** Any permanent FU fault configured for @p core? */
    bool hasPermanentFault(CoreId core) const;

    unsigned transientsApplied() const { return applied; }

    const std::vector<FaultRecord> &scheduled() const { return faults; }

  private:
    std::vector<FaultRecord> faults;
    FaultMachineShape shape;
    Random rng;
    unsigned applied = 0;
    Cycle restoredCycle = 0;
};

} // namespace rmt

#endif // RMTSIM_RMT_FAULT_INJECTOR_HH
