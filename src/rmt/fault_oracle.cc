#include "rmt/fault_oracle.hh"

#include <algorithm>
#include <cstring>
#include <memory>

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

namespace
{

/** The one fault-free reference run behind goldens and snapshot sets:
 *  @p workloads under @p options to the end, appending a snapshot at
 *  every barrier to @p snapshots when set; @p result receives the
 *  run's RunResult when set. */
std::unique_ptr<Simulation>
finishedRun(const std::vector<std::string> &workloads,
            const SimOptions &options, SnapshotSet *snapshots,
            RunResult *result = nullptr)
{
    auto sim = std::make_unique<Simulation>(workloads, options);
    if (snapshots) {
        // The hook fires at barriers in cycle order; no sort needed.
        sim->setSnapshotHook([snapshots](Cycle cycle, Simulation &s) {
            snapshots->push_back(
                {cycle, std::make_shared<const std::string>(
                            s.saveSnapshotBuffer())});
        });
    }
    RunResult run = sim->run();
    if (result)
        *result = std::move(run);
    return sim;
}

} // namespace

FaultOracle
FaultOracle::reference(const std::vector<std::string> &workloads,
                       const SimOptions &options, unsigned logical,
                       SnapshotSet *snapshots)
{
    auto run = std::make_shared<RunResult>();
    const auto sim = finishedRun(workloads, options, snapshots, run.get());
    const DataMemory &mem = sim->memory(logical);
    FaultOracle oracle(mem.size(), logical);
    oracle.finalRun = std::move(run);
    oracle.shape = sim->faultInjector().machine();
    for (unsigned c = 0; c < oracle.shape.cores; ++c) {
        for (unsigned t = 0; t < oracle.shape.threads; ++t)
            oracle.reads.push_back(
                sim->chip().cpu(c).readMask(static_cast<ThreadId>(t)));
    }
    mem.forEachTouchedPage(
        [&oracle](std::size_t p, std::span<const std::uint8_t> bytes) {
            oracle.keepPage(p, bytes);
        });
    return oracle;
}

std::vector<std::uint8_t>
FaultOracle::goldenImage(const std::vector<std::string> &workloads,
                         const SimOptions &options, unsigned logical)
{
    const auto sim = finishedRun(workloads, options, nullptr);
    const DataMemory &mem = sim->memory(logical);
    std::vector<std::uint8_t> image(mem.size());
    mem.forEachTouchedPage(
        [&image](std::size_t p, std::span<const std::uint8_t> bytes) {
            std::copy(bytes.begin(), bytes.end(),
                      image.begin() + p * DataMemory::pageBytes);
        });
    return image;
}

FaultOracle::FaultOracle(const std::vector<std::uint8_t> &golden,
                         unsigned logical)
    : FaultOracle(golden.size(), logical)
{
    constexpr std::size_t page = DataMemory::pageBytes;
    for (std::size_t at = 0; at < golden.size(); at += page) {
        keepPage(at / page,
                 {golden.data() + at, std::min(page, golden.size() - at)});
    }
}

void
FaultOracle::keepPage(std::size_t page, std::span<const std::uint8_t> bytes)
{
    if (DataMemory::zeroBytes(bytes.data(), bytes.size()))
        return;
    goldenPages.push_back(static_cast<std::uint32_t>(page));
    goldenBytes.insert(goldenBytes.end(), bytes.begin(), bytes.end());
}

bool
FaultOracle::differs(const DataMemory &mem) const
{
    if (mem.size() != goldenSize)
        return true;
    // Every kept page must match: a kept page is nonzero, so one the
    // trial never touched (all zero) differs without a compare.
    const std::uint8_t *stored = goldenBytes.data();
    for (const std::uint32_t p : goldenPages) {
        const std::span<const std::uint8_t> bytes = mem.page(p);
        if (!mem.touched(p) ||
            std::memcmp(bytes.data(), stored, bytes.size()) != 0)
            return true;
        stored += bytes.size();
    }
    // Every other page must be zero; only touched ones can be nonzero.
    bool dirty = false;
    std::size_t next = 0;   // first kept page not below the current one
    mem.forEachTouchedPage(
        [&](std::size_t p, std::span<const std::uint8_t> bytes) {
            while (next < goldenPages.size() && goldenPages[next] < p)
                ++next;
            if (dirty || (next < goldenPages.size() && goldenPages[next] == p))
                return;
            dirty = !DataMemory::zeroBytes(bytes.data(), bytes.size());
        });
    return dirty;
}

namespace
{

/** The first detection @p pair logged at or after @p when, or nullptr:
 *  an earlier event would be another fault's residue. */
const DetectionEvent *
firstDetection(const RedundantPair &pair, Cycle when)
{
    for (const DetectionEvent &ev : pair.detections()) {
        if (ev.cycle >= when)
            return &ev;
    }
    return nullptr;
}

/** The pair the fault actually landed on (detection attribution). */
RedundantPair *
faultedPair(Simulation &sim, const FaultRecord &fault)
{
    RedundancyManager &rm = sim.chip().redundancy();
    RedundantPair *pair = rm.pairFor(fault.core, fault.tid);
    if (!pair && fault.kind == FaultRecord::Kind::TransientLvq &&
        fault.pairLogical < rm.numPairs()) {
        return &rm.pair(fault.pairLogical);
    }
    if (fault.kind != FaultRecord::Kind::PermanentFu)
        return pair;
    // A stuck-at unit can hit any pair with a copy on that core.  It
    // belongs to the pair that detected it first (without recovery, the
    // detection that ended the run), else to the struck context's pair
    // or the core's first one (single-pair campaigns: exact).
    const DetectionEvent *first =
        pair ? firstDetection(*pair, fault.when) : nullptr;
    for (std::size_t i = 0; i < rm.numPairs(); ++i) {
        RedundantPair &other = rm.pair(i);
        const RedundantPairParams &p = other.params();
        if (p.leading.core != fault.core && p.trailing.core != fault.core)
            continue;
        if (!pair)
            pair = &other;
        const DetectionEvent *ev = firstDetection(other, fault.when);
        if (ev && (!first || ev->cycle < first->cycle)) {
            pair = &other;
            first = ev;
        }
    }
    return pair;
}

} // namespace

FaultTrialReport
FaultOracle::classify(Simulation *sim, const RunResult &result,
                      const FaultRecord &fault) const
{
    FaultTrialReport report;

    RedundantPair *pair = sim ? faultedPair(*sim, fault) : nullptr;
    if (!sim || sim->stoppedAtBarrier()) {
        // Rejoined: the verdict is the reference run's (executeJob
        // rejoins only a reference that completed with no detection).
        report.faulted_pair =
            pair ? static_cast<int>(pair->logical()) : -1;
        return report;
    }
    if (pair) {
        report.faulted_pair = static_cast<int>(pair->logical());
        report.detections = pair->detectionCount();
        if (const DetectionEvent *ev = firstDetection(*pair, fault.when)) {
            report.latency_valid = true;
            report.detection_latency = ev->cycle - fault.when;
        }
    } else {
        report.detections = result.detections;
    }

    report.memory_corrupted = differs(sim->memory(logical));

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
