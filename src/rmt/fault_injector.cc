#include "rmt/fault_injector.hh"

#include <sstream>
#include <stdexcept>

#include "common/parse.hh"
#include "cpu/smt_cpu.hh"

namespace rmt
{

const char *
faultKindName(FaultRecord::Kind kind)
{
    switch (kind) {
      case FaultRecord::Kind::TransientReg:         return "reg";
      case FaultRecord::Kind::TransientLvq:         return "lvq";
      case FaultRecord::Kind::PermanentFu:          return "fu";
      case FaultRecord::Kind::TransientSqData:      return "sqd";
      case FaultRecord::Kind::TransientSqAddr:      return "sqa";
      case FaultRecord::Kind::TransientLpq:         return "lpq";
      case FaultRecord::Kind::TransientBoq:         return "boq";
      case FaultRecord::Kind::TransientPc:          return "pc";
      case FaultRecord::Kind::TransientDecode:      return "dec";
      case FaultRecord::Kind::TransientMergeBuffer: return "mb";
    }
    return "?";
}

FaultRecord::Kind
parseFaultKind(const std::string &name)
{
    if (name == "reg") return FaultRecord::Kind::TransientReg;
    if (name == "lvq") return FaultRecord::Kind::TransientLvq;
    if (name == "fu")  return FaultRecord::Kind::PermanentFu;
    if (name == "sqd") return FaultRecord::Kind::TransientSqData;
    if (name == "sqa") return FaultRecord::Kind::TransientSqAddr;
    if (name == "lpq") return FaultRecord::Kind::TransientLpq;
    if (name == "boq") return FaultRecord::Kind::TransientBoq;
    if (name == "pc")  return FaultRecord::Kind::TransientPc;
    if (name == "dec") return FaultRecord::Kind::TransientDecode;
    if (name == "mb")  return FaultRecord::Kind::TransientMergeBuffer;
    throw std::invalid_argument("unknown fault kind '" + name + "'");
}

namespace
{

[[noreturn]] void
badSpec(const std::string &spec, const char *why)
{
    throw std::invalid_argument("fault spec '" + spec + "': " + why);
}

std::vector<std::uint64_t>
splitFields(const std::string &spec, std::string &kind)
{
    std::vector<std::uint64_t> fields;
    std::stringstream ss(spec);
    std::string tok;
    bool first = true;
    while (std::getline(ss, tok, ':')) {
        if (first) {
            kind = tok;
            first = false;
            continue;
        }
        if (tok.empty())
            badSpec(spec, "empty field");
        std::uint64_t v = 0;
        try {
            v = parseUnsigned(tok, "fault field");
        } catch (const std::invalid_argument &) {
            badSpec(spec, "non-numeric field");
        }
        fields.push_back(v);
    }
    if (first)
        badSpec(spec, "missing kind");
    return fields;
}

} // namespace

FaultRecord
parseFaultSpec(const std::string &spec)
{
    std::string kind;
    const std::vector<std::uint64_t> f = splitFields(spec, kind);
    FaultRecord fault;

    auto need = [&](std::size_t n) {
        if (f.size() != n)
            badSpec(spec, "wrong field count for this kind");
    };

    if (kind == "reg") {
        fault.kind = FaultRecord::Kind::TransientReg;
        if (f.size() == 4) {        // legacy: cycle:tid:reg:bit
            fault.when = f[0];
            fault.tid = static_cast<ThreadId>(f[1]);
            fault.reg = static_cast<RegIndex>(f[2]);
            fault.bit = static_cast<unsigned>(f[3]);
        } else {                    // cycle:core:tid:reg:bit
            need(5);
            fault.when = f[0];
            fault.core = static_cast<CoreId>(f[1]);
            fault.tid = static_cast<ThreadId>(f[2]);
            fault.reg = static_cast<RegIndex>(f[3]);
            fault.bit = static_cast<unsigned>(f[4]);
        }
    } else if (kind == "lvq") {
        fault.kind = FaultRecord::Kind::TransientLvq;
        if (f.size() == 2) {        // legacy: cycle:tid
            fault.when = f[0];
            fault.tid = static_cast<ThreadId>(f[1]);
        } else {                    // cycle:core:tid
            need(3);
            fault.when = f[0];
            fault.core = static_cast<CoreId>(f[1]);
            fault.tid = static_cast<ThreadId>(f[2]);
        }
    } else if (kind == "fu") {
        fault.kind = FaultRecord::Kind::PermanentFu;
        if (f.size() == 3) {        // legacy: cycle:unit:maskbit
            fault.when = f[0];
            fault.fuIndex = static_cast<unsigned>(f[1]);
            fault.mask = std::uint64_t{1} << (f[2] % 64);
        } else {                    // cycle:core:unit:maskbit
            need(4);
            fault.when = f[0];
            fault.core = static_cast<CoreId>(f[1]);
            fault.fuIndex = static_cast<unsigned>(f[2]);
            fault.mask = std::uint64_t{1} << (f[3] % 64);
        }
    } else {
        // All remaining kinds share the cycle:core:tid:bit layout.
        fault.kind = parseFaultKind(kind);
        need(4);
        fault.when = f[0];
        fault.core = static_cast<CoreId>(f[1]);
        fault.tid = static_cast<ThreadId>(f[2]);
        fault.bit = static_cast<unsigned>(f[3]);
    }
    return fault;
}

void
validateFault(const FaultRecord &fault, const FaultMachineShape &shape)
{
    auto reject = [&](const char *why) {
        std::ostringstream os;
        os << "fault " << faultKindName(fault.kind) << "@" << fault.when
           << ": " << why;
        throw std::invalid_argument(os.str());
    };

    if (fault.bit >= 64)
        reject("bit must be < 64");

    const bool uses_tid = fault.kind != FaultRecord::Kind::PermanentFu;
    const bool uses_pair =
        fault.kind == FaultRecord::Kind::TransientLvq ||
        fault.kind == FaultRecord::Kind::TransientLpq ||
        fault.kind == FaultRecord::Kind::TransientBoq;

    if (fault.kind == FaultRecord::Kind::TransientReg) {
        if (fault.reg == 0)
            reject("register 0 is hardwired to zero");
        if (fault.reg >= numArchRegs)
            reject("register index out of range");
    }
    if (fault.kind == FaultRecord::Kind::PermanentFu && fault.mask == 0)
        reject("corruption mask must be non-zero");

    if (shape.cores == 0)
        return;     // no machine attached: universal checks only

    if (fault.core >= shape.cores)
        reject("core does not exist");
    if (uses_tid && fault.tid >= shape.threads)
        reject("thread context does not exist");
    if (uses_pair && shape.pairs == 0)
        reject("kind needs a redundant pair and none exists");
    if (fault.kind == FaultRecord::Kind::TransientLvq &&
        fault.pairLogical >= shape.pairs) {
        reject("pair does not exist");
    }
    if (fault.kind == FaultRecord::Kind::PermanentFu) {
        // Global FU ids: class base (IntAlu 0, Logic 16, Mem 32, Fp 48)
        // plus half * pool_size + unit for the two halves (qbox issue).
        const unsigned cls = fault.fuIndex / 16;
        const unsigned unit = fault.fuIndex % 16;
        unsigned pool = 0;
        switch (cls) {
          case 0: pool = shape.int_units_per_half; break;
          case 1: pool = shape.logic_units_per_half; break;
          case 2: pool = shape.mem_units_per_half; break;
          case 3: pool = shape.fp_units_per_half; break;
          default: reject("functional-unit index out of range");
        }
        if (unit >= 2 * pool)
            reject("functional-unit index names no unit in its class");
    }
}

void
FaultInjector::schedule(const FaultRecord &fault)
{
    validateFault(fault, shape);
    if (restoredCycle && fault.when <= restoredCycle) {
        std::ostringstream os;
        os << "fault " << faultKindName(fault.kind) << "@" << fault.when
           << ": injection cycle is not after the restored snapshot "
              "(cycle "
           << restoredCycle
           << "); fork from an earlier snapshot or run from scratch";
        throw std::invalid_argument(os.str());
    }
    faults.push_back(fault);
}

void
FaultInjector::tick(SmtCpu &cpu, Cycle now)
{
    for (auto &fault : faults) {
        if (fault.applied || fault.core != cpu.coreId() ||
            now < fault.when) {
            continue;
        }
        switch (fault.kind) {
          case FaultRecord::Kind::TransientReg:
            cpu.injectRegBitFlip(fault.tid, fault.reg, fault.bit);
            fault.applied = true;
            ++applied;
            break;
          case FaultRecord::Kind::TransientLvq:
            if (RedundantPair *pair = cpu.pairOf(fault.tid)) {
                // Strike retries until an entry is resident.
                if (pair->lvq.injectDataBitFlip(rng)) {
                    fault.applied = true;
                    ++applied;
                }
            }
            break;
          case FaultRecord::Kind::PermanentFu:
            // Activation only; the effect is applied by
            // filterFuResult() on every victim-unit execution.
            fault.applied = true;
            break;
          case FaultRecord::Kind::TransientSqData:
            // Strike retries until an unretired data-ready entry is
            // resident (the latch has to hold a value to corrupt).
            if (cpu.injectSqBitFlip(fault.tid, fault.bit, false)) {
                fault.applied = true;
                ++applied;
            }
            break;
          case FaultRecord::Kind::TransientSqAddr:
            if (cpu.injectSqBitFlip(fault.tid, fault.bit, true)) {
                fault.applied = true;
                ++applied;
            }
            break;
          case FaultRecord::Kind::TransientLpq:
            if (RedundantPair *pair = cpu.pairOf(fault.tid)) {
                if (pair->lpq.injectAddrBitFlip(fault.bit)) {
                    fault.applied = true;
                    ++applied;
                }
            }
            break;
          case FaultRecord::Kind::TransientBoq:
            if (RedundantPair *pair = cpu.pairOf(fault.tid)) {
                if (pair->injectBoqBitFlip(fault.bit)) {
                    fault.applied = true;
                    ++applied;
                }
            }
            break;
          case FaultRecord::Kind::TransientPc:
            if (cpu.injectPcBitFlip(fault.tid, fault.bit)) {
                fault.applied = true;
                ++applied;
            }
            break;
          case FaultRecord::Kind::TransientDecode:
            if (cpu.armDecodeStrike(fault.tid, fault.bit)) {
                fault.applied = true;
                ++applied;
            }
            break;
          case FaultRecord::Kind::TransientMergeBuffer:
            if (cpu.armMergeStrike(fault.tid, fault.bit)) {
                fault.applied = true;
                ++applied;
            }
            break;
        }
    }
}

std::uint64_t
FaultInjector::filterFuResult(CoreId core, unsigned fu_index, Cycle now,
                              std::uint64_t value) const
{
    for (const auto &fault : faults) {
        if (fault.kind == FaultRecord::Kind::PermanentFu &&
            fault.core == core && fault.fuIndex == fu_index &&
            now >= fault.when) {
            value ^= fault.mask;
        }
    }
    return value;
}

bool
FaultInjector::hasPermanentFault(CoreId core) const
{
    for (const auto &fault : faults) {
        if (fault.kind == FaultRecord::Kind::PermanentFu &&
            fault.core == core) {
            return true;
        }
    }
    return false;
}

} // namespace rmt
