#include "rmt/fault_oracle.hh"

#include <algorithm>
#include <cstring>

namespace rmt
{

const char *
verdictName(FaultVerdict verdict)
{
    switch (verdict) {
      case FaultVerdict::Masked:   return "masked";
      case FaultVerdict::Detected: return "detected";
      case FaultVerdict::Sdc:      return "sdc";
      case FaultVerdict::Hang:     return "hang";
    }
    return "?";
}

std::vector<std::uint8_t>
FaultOracle::goldenImage(const std::vector<std::string> &workloads,
                         const SimOptions &options, unsigned logical)
{
    Simulation sim(workloads, options);
    sim.run();
    const DataMemory &mem = sim.memory(logical);
    return {mem.data(), mem.data() + mem.size()};
}

FaultOracle::FaultOracle(std::vector<std::uint8_t> golden,
                         unsigned logical)
    : goldenSize(golden.size()), logical(logical)
{
    constexpr std::size_t page = DataMemory::pageBytes;
    for (std::size_t at = 0; at < golden.size(); at += page) {
        const std::size_t n = std::min(page, golden.size() - at);
        if (DataMemory::zeroBytes(golden.data() + at, n))
            continue;
        goldenPages.push_back(static_cast<std::uint32_t>(at / page));
        goldenBytes.insert(goldenBytes.end(), golden.begin() + at,
                           golden.begin() + at + n);
    }
}

bool
FaultOracle::differs(const DataMemory &mem) const
{
    if (mem.size() != goldenSize)
        return true;
    constexpr std::size_t page = DataMemory::pageBytes;
    const std::uint8_t *stored = goldenBytes.data();
    std::size_t next = 0;   // next stored page to match
    for (std::size_t at = 0; at < goldenSize; at += page) {
        const std::size_t n = std::min(page, goldenSize - at);
        const std::uint8_t *bytes = mem.data() + at;
        if (next < goldenPages.size() && goldenPages[next] == at / page) {
            if (std::memcmp(bytes, stored, n) != 0)
                return true;
            stored += n;
            ++next;
        } else if (!DataMemory::zeroBytes(bytes, n)) {
            return true;
        }
    }
    return false;
}

namespace
{

/** The pair the fault actually landed on (detection attribution). */
RedundantPair *
faultedPair(Simulation &sim, const FaultRecord &fault)
{
    RedundancyManager &rm = sim.chip().redundancy();
    if (RedundantPair *pair = rm.pairFor(fault.core, fault.tid))
        return pair;
    if (fault.kind == FaultRecord::Kind::TransientLvq &&
        fault.pairLogical < rm.numPairs()) {
        return &rm.pair(fault.pairLogical);
    }
    if (fault.kind == FaultRecord::Kind::PermanentFu) {
        // A stuck-at unit can hit any pair with a copy on that core;
        // attribute to the first one (single-pair campaigns: exact).
        for (std::size_t i = 0; i < rm.numPairs(); ++i) {
            const RedundantPairParams &p = rm.pair(i).params();
            if (p.leading.core == fault.core ||
                p.trailing.core == fault.core) {
                return &rm.pair(i);
            }
        }
    }
    return nullptr;
}

} // namespace

FaultTrialReport
FaultOracle::classify(Simulation &sim, const RunResult &result,
                      const FaultRecord &fault) const
{
    FaultTrialReport report;

    RedundantPair *pair = faultedPair(sim, fault);
    if (pair) {
        report.faulted_pair = static_cast<int>(pair->logical());
        report.detections = pair->detectionCount();
        // First detection at or after the activation cycle belongs to
        // this fault; earlier events would be another trial's residue.
        for (const DetectionEvent &ev : pair->detections()) {
            if (ev.cycle >= fault.when) {
                report.latency_valid = true;
                report.detection_latency = ev.cycle - fault.when;
                break;
            }
        }
    } else {
        report.detections = result.detections;
    }

    report.memory_corrupted = differs(sim.memory(logical));

    if (report.detections > 0)
        report.verdict = FaultVerdict::Detected;
    else if (result.outcome != Outcome::Completed)
        report.verdict = FaultVerdict::Hang;
    else if (report.memory_corrupted)
        report.verdict = FaultVerdict::Sdc;
    else
        report.verdict = FaultVerdict::Masked;
    return report;
}

} // namespace rmt
