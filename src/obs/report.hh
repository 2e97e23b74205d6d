/**
 * @file
 * Campaign report: aggregate a rmtsim_batch .jsonl result stream into
 * the paper's headline shape — per-mode throughput and degradation
 * relative to the base machine (e.g. SRT one-thread ~32 % / two-thread
 * ~30 % slowdowns, CRT ~13 % over lockstep), without a bespoke bench
 * binary per figure.
 *
 * Jobs are matched to their baseline by workload mix and instruction
 * budget, so sweeps that vary RMT-side knobs (slack, queue sizes, ...)
 * all compare against the same base cells while budget sweeps stay
 * properly separated.
 */

#ifndef RMTSIM_OBS_REPORT_HH
#define RMTSIM_OBS_REPORT_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "avf/estimator.hh"
#include "common/json.hh"
#include "obs/attribution.hh"

namespace rmt
{

struct ReportOptions
{
    std::string base_mode = "base";     ///< degradation reference mode
    bool per_mix = false;               ///< also emit the per-mix table
};

/** Aggregate of all jobs sharing one mode. */
struct ReportModeRow
{
    std::string mode;
    unsigned jobs = 0;
    unsigned failed = 0;
    double mean_ipc = 0;            ///< mean over ok jobs of summed
                                    ///< per-thread IPC (throughput)
    double mean_efficiency = -1;    ///< mean SMT-efficiency, if present
    /** Mean of per-job (1 - ipc/base_ipc); valid iff with_base > 0. */
    double mean_degradation = 0;
    unsigned with_base = 0;         ///< ok jobs that had a base match
};

/** Aggregate of all jobs sharing one (workload mix, mode) cell. */
struct ReportMixRow
{
    std::string mix;                ///< "gcc" or "gcc+swim"
    std::string mode;
    unsigned jobs = 0;
    double mean_ipc = 0;
    double mean_degradation = 0;
    bool has_base = false;
};

struct CampaignReport
{
    std::string base_mode;
    unsigned total_jobs = 0;
    unsigned failed_jobs = 0;
    std::vector<ReportModeRow> modes;       ///< first-seen order
    std::vector<ReportMixRow> mixes;        ///< mix-major order
};

/** Upper bounds (exclusive) of the detection-latency histogram; the
 *  last bucket is open-ended. */
inline constexpr unsigned kCoverageLatencyBuckets[] =
    {64, 256, 1024, 4096, 16384};
inline constexpr unsigned kCoverageHistogramSize =
    sizeof(kCoverageLatencyBuckets) / sizeof(unsigned) + 1;

/** Aggregate of all classified trials sharing one fault kind. */
struct CoverageKindRow
{
    std::string kind;               ///< faults[0].kind ("reg", "sqd"...)
    unsigned trials = 0;            ///< classified ok jobs
    unsigned failed = 0;            ///< failed / rejected jobs
    unsigned masked = 0;
    unsigned detected = 0;
    unsigned sdc = 0;
    unsigned hang = 0;
    /** detected / (trials - masked); negative when nothing unmasked. */
    double detection_rate = -1;
    /** Mean over trials with a valid latency; negative when none. */
    double mean_latency = -1;
    unsigned latency_n = 0;
    unsigned histogram[kCoverageHistogramSize] = {};
    /** Unmasked fraction with its Wilson interval at the report's
     *  confidence; avf is negative when no trial classified. */
    double avf = -1;
    Interval avf_ci;
    double sdc_rate = -1;
    Interval sdc_ci;
};

/** Per-(mode, kind) AVF cell for comparing protection modes. */
struct CoverageModeKindRow
{
    std::string mode;               ///< options.mode of the records
    std::string kind;
    unsigned trials = 0;
    unsigned masked = 0;
    unsigned sdc = 0;
    double avf = -1;
    Interval avf_ci;
    double sdc_rate = -1;
    Interval sdc_ci;
    /** True when this kind's AVF interval still overlaps the same
     *  kind's interval under some other mode — the campaign has not
     *  yet separated the modes statistically at this stratum. */
    bool overlaps_other_mode = false;
};

struct CoverageReport
{
    unsigned total_jobs = 0;
    unsigned unclassified = 0;      ///< ok jobs without a verdict field
    double confidence = 0.95;       ///< interval confidence used
    std::vector<CoverageKindRow> kinds;     ///< first-seen order
    /** Kind-major (mode within kind), first-seen order; only the
     *  kinds/modes actually present.  Empty when records carry no
     *  options.mode. */
    std::vector<CoverageModeKindRow> mode_kinds;
};

/**
 * Aggregate of the snapshot-forking fields fault campaigns record in
 * each job's "extra" object (runner with a SnapshotCache attached).
 * A fork-eligible row simulated the cycles from its start,
 * (snapshot_hit ? snapshot_cycle : 0), to its end,
 * (rejoined ? rejoin_cycle : total_cycles); the rest of its
 * total_cycles were never simulated.
 */
struct SnapshotReport
{
    unsigned total_jobs = 0;
    unsigned fork_eligible = 0;     ///< jobs that carried a snapshot_hit
    unsigned hits = 0;              ///< trials restored from a snapshot
    unsigned rejoined = 0;          ///< trials that rejoined their
                                    ///< reference run (rejoin_cycle)
    double hit_rate = -1;           ///< hits / eligible; negative if none
    double total_cycles = 0;        ///< sum of eligible rows' total_cycles
    double restored_cycles = 0;     ///< sum of restored prefixes
    double unsimulated_cycles = 0;  ///< of total_cycles, never simulated
    double mean_restored_cycles = -1;   ///< over hits
    double mean_bytes = -1;         ///< snapshot image size, over hits
};

/** One failed job of a degraded campaign. */
struct FailureRow
{
    std::uint64_t id = 0;
    std::string label;
    std::string error;
    unsigned attempts = 0;
};

/**
 * Digest of a campaign's failed jobs — the triage view of a batch run
 * that exited 3 (degraded).  Built from the failed rows themselves,
 * which carry every field it shows.
 */
struct FailuresReport
{
    unsigned total_jobs = 0;
    unsigned failed = 0;
    std::vector<FailureRow> rows;   ///< id order
    /** Distinct error strings with their multiplicity, first-seen
     *  order — repeated infrastructure faults collapse to one line. */
    std::vector<std::pair<std::string, unsigned>> by_error;
};

/**
 * Commit-slot cycle accounting aggregated per mode, from the
 * "attribution" object `--embed-stats` records carry.  Degradation
 * decomposition works in *slots*: each base-matched job contributes
 * (its slots − its cell's base-mode mean), so per mode
 * `sum(delta_slots) == width * delta_cycles` exactly — the observed
 * cycle delta vs base fully decomposed into named causes.
 */
struct AttributionModeRow
{
    std::string mode;
    unsigned jobs = 0;              ///< ok jobs carrying attribution
    unsigned with_base = 0;         ///< of those, jobs with a base match
    unsigned width = 0;             ///< commit width (slots per cycle)
    double mean_core_cycles = 0;    ///< mean per job, summed over cores
    std::array<double, numStallCauses> mean_slots{};
    /** Mean over base-matched jobs of (job − matched base-cell mean). */
    double delta_cycles = 0;
    std::array<double, numStallCauses> delta_slots{};
};

struct AttributionReport
{
    std::string base_mode;
    unsigned total_jobs = 0;
    unsigned with_attribution = 0;  ///< ok jobs carrying the object
    /** Records where sum(slots) != core_cycles * width — any nonzero
     *  value here is a simulator bug, and rmtsim_report exits 1. */
    unsigned conservation_violations = 0;
    std::vector<AttributionModeRow> modes;      ///< first-seen order
};

/** Parse the lines of a .jsonl stream; malformed lines are skipped
 *  and counted in @p bad_lines. */
std::vector<JsonValue> parseJsonlLines(
    const std::vector<std::string> &lines, unsigned &bad_lines);

/** Aggregate parsed batch records into the report tables. */
CampaignReport buildReport(const std::vector<JsonValue> &records,
                           const ReportOptions &options);

/** Render as aligned, human-readable tables. */
std::string formatReport(const CampaignReport &report,
                         const ReportOptions &options);

/**
 * Collect the failed jobs of a batch stream: per-error tally plus the
 * per-job rows in id order.  Summary records (avf_summary, and the
 * failures digest older builds appended) are skipped.
 */
FailuresReport buildFailuresReport(const std::vector<JsonValue> &records);

/** Render the failure digest; a clean stream renders as one line. */
std::string formatFailuresReport(const FailuresReport &report);

/**
 * Aggregate fault-campaign records by the kind of their first fault:
 * verdict tallies, detection rate over unmasked trials, mean detection
 * latency and a fixed-bucket latency histogram.  Records without a
 * "faults" array are counted under kind "none"; ok records without a
 * "verdict" (campaign ran without a FaultOracle) are only counted in
 * CoverageReport::unclassified.  Every kind row carries its AVF and
 * SDC-rate Wilson intervals at @p confidence; when the stream mixes
 * modes, per-(mode, kind) rows compare them and flag kinds whose AVF
 * intervals still overlap between modes.  The trailing "avf_summary"
 * object a stratified campaign appends is skipped.
 */
CoverageReport buildCoverageReport(
    const std::vector<JsonValue> &records, double confidence = 0.95);

/** Render the per-kind coverage table. */
std::string formatCoverageReport(const CoverageReport &report);

/**
 * Aggregate the embedded commit-slot attribution per mode, verifying
 * the conservation invariant on every record along the way.  Records
 * without an embedded "stats.attribution" object (campaigns run
 * without --embed-stats) only count toward total_jobs.
 */
AttributionReport buildAttributionReport(
    const std::vector<JsonValue> &records, const ReportOptions &options);

/** Render the per-mode attribution and degradation-decomposition
 *  tables. */
std::string formatAttributionReport(const AttributionReport &report);

/** Aggregate the snapshot-forking metrics of a fault campaign run with
 *  --snapshot-every: hit rate, rejoins, cycles never simulated,
 *  snapshot image sizes. */
SnapshotReport buildSnapshotReport(const std::vector<JsonValue> &records);

/** Render the snapshot-forking summary. */
std::string formatSnapshotReport(const SnapshotReport &report);

} // namespace rmt

#endif // RMTSIM_OBS_REPORT_HH
