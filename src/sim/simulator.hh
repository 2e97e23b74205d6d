/**
 * @file
 * Configuration builders and run drivers for the paper's four target
 * architectures (Section 6.3): the base SMT processor, SRT (with the
 * per-thread-store-queue and no-store-comparison variants), lockstepped
 * dual cores (Lock0/Lock8), and CRT.
 *
 * This is the public entry point most users want: pick workloads, pick
 * a mode, run, read per-logical-thread IPCs and the RMT statistics.
 */

#ifndef RMTSIM_SIM_SIMULATOR_HH
#define RMTSIM_SIM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cmp/chip.hh"
#include "obs/attribution.hh"
#include "obs/host_profile.hh"
#include "obs/timeline.hh"
#include "workloads/workloads.hh"

namespace rmt
{

/** How to arrange the logical threads on the chip. */
enum class SimMode
{
    Base,       ///< one hardware thread per logical thread, one core
    Base2,      ///< one program as two uncoupled redundant copies
    Srt,        ///< leading+trailing per logical thread, one core
    Lockstep,   ///< base timing + checker penalty on off-core signals
    Crt,        ///< leading+trailing cross-coupled over two cores
};

/** Printable name of a mode ("srt", "crt", ...). */
const char *modeName(SimMode mode);

struct SimOptions
{
    SimMode mode = SimMode::Base;
    std::uint64_t warmup_insts = 2000;      ///< per logical thread
    std::uint64_t measure_insts = 30000;    ///< per logical thread
    unsigned checker_penalty = 8;           ///< Lockstep mode only
    bool per_thread_store_queues = false;   ///< "SRT + ptsq"
    bool store_comparison = true;           ///< false = "SRT + nosc"
    bool preferential_space_redundancy = true;
    TrailingFetchMode trailing_fetch =
        TrailingFetchMode::LinePredictionQueue;
    unsigned slack_fetch = 0;
    bool lvq_ecc = true;
    bool lpq_ecc = false;                   ///< LPQ chunk-address ECC
    bool boq_ecc = false;                   ///< BOQ outcome ECC
    bool merge_buffer_ecc = true;           ///< out-of-sphere store path
    /**
     * Forward-progress watchdog: if any participating hardware thread
     * goes this many cycles without committing while still live, the
     * run aborts with Outcome::Hang instead of spinning to the safety
     * cap.  0 disables the watchdog.
     */
    std::uint64_t hang_cycles = 20000;
    bool cosim = false;                     ///< architectural checking
    bool recovery = false;                  ///< checkpoint fault recovery
    RecoveryParams recovery_params{};       ///< when recovery is on
    SmtParams cpu{};                        ///< base core parameters
    MemSystemParams mem{};

    // Observability (src/obs/).
    Cycle timeline_interval = 0;            ///< 0 = no timeline probe
    std::size_t timeline_max_samples = 65536;   ///< ring cap (0 = unbounded)
    bool collect_stats_json = false;        ///< fill RunResult::stats_json

    /**
     * Checkpointing (src/ckpt/): place a snapshot barrier every N
     * cycles (0 = none).  At each barrier the chip drains to a quiesce
     * point before the snapshot hook runs; the drain is part of the
     * simulation's timing, so two runs with the same snapshot_every are
     * cycle-identical whether or not either one actually saves or was
     * restored from a snapshot.  Part of the options fingerprint for
     * exactly that reason.  Incompatible with cosim and recovery.
     */
    std::uint64_t snapshot_every = 0;
};

/**
 * Set the field a key of the settings table (sim/settings.cc) names: a
 * mode or frontend name, 0/1 for a switch, else an unsigned decimal or
 * 0x hex number that fits the field, nonzero for a queue or window and
 * in [257, 65535] for physregs.  Throws std::invalid_argument on an
 * unknown key or a bad value, leaving @p options unchanged.
 */
void applySetting(SimOptions &options, std::string_view key,
                  const std::string &value);

/** The key a tool flag such as --insts spells, or nullptr. */
const char *flagSetting(std::string_view flag);

/** Every key with its value form ("mode=base|...|crt warmup_insts=N
 *  ... ptsq=0|1 ..."), in canonical-JSON order, for --help. */
std::string settingsHelp();

/**
 * Canonical one-line JSON of every setting, in table order: the
 * pre-image of the options fingerprint used to key snapshots, baseline
 * caches, and campaign records.  "physregs", "dynlsq" and
 * "recovery_interval" are present only off their defaults.
 */
std::string optionsCanonicalJson(const SimOptions &options);

/** FNV-1a-64 hash of optionsCanonicalJson(). */
std::uint64_t optionsFingerprintU64(const SimOptions &options);

/**
 * How a run ended.  Replaces the old completed/not-completed split with
 * a structured verdict so fault campaigns never exit through the raw
 * instruction cap without classification.
 */
enum class Outcome : std::uint8_t
{
    Completed,      ///< every logical thread reached its target
    Hang,           ///< forward-progress watchdog fired, no detection
    /** Stopped short with a recorded detection: without recovery, at
     *  the end of the cycle of the first one (a detection-only machine
     *  stops there); with recovery, through the watchdog or a thread's
     *  early halt. */
    DetectedUnrecoverable,
    CapExceeded,    ///< safety cap hit with the watchdog disabled
};

/** Printable name of an outcome ("completed", "hang", ...). */
const char *outcomeName(Outcome outcome);

/** Outcome of one logical thread. */
struct ThreadResult
{
    std::string workload;
    double ipc = 0;
    std::uint64_t committed = 0;
    Cycle cycles = 0;
};

struct RunResult
{
    std::vector<ThreadResult> threads;
    Cycle total_cycles = 0;
    bool completed = false;         ///< all threads reached their target
    Outcome outcome = Outcome::CapExceeded;     ///< set by run()

    // RMT aggregates (Srt/Crt modes).
    std::uint64_t detections = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t fu_pairs = 0;
    std::uint64_t fu_same_unit = 0;
    std::uint64_t store_comparisons = 0;
    std::uint64_t store_mismatches = 0;

    // Core-side aggregates.
    std::uint64_t sq_full_stalls = 0;
    std::uint64_t lvq_full_stalls = 0;
    std::uint64_t branch_mispredicts = 0;
    std::uint64_t line_mispredicts = 0;
    double avg_leading_store_lifetime = 0;

    // Observability.
    HostTiming host;                ///< wall-clock phase breakdown
    std::string stats_json;         ///< full stats doc (opt-in), else ""

    /**
     * Commit-slot cycle accounting, summed over every core that ran:
     * each cycle × commit slot is charged to exactly one StallCause, so
     * `attribution.total() == attribution_core_cycles * commit_width`
     * holds for every finished run (the conservation invariant).
     */
    StallSlots attribution;
    std::uint64_t attribution_core_cycles = 0;  ///< sum of per-core cycles
    unsigned commit_width = 0;

    double fuSameFraction() const
    {
        return fu_pairs ? static_cast<double>(fu_same_unit) / fu_pairs : 0;
    }
};

/**
 * A fully wired simulation: chip, workload instances, and thread
 * placement, ready to run.  Exposed (rather than hidden inside run())
 * so examples, tests, and the fault-injection experiments can reach
 * into the chip mid-run.
 */
class Simulation
{
  public:
    Simulation(const std::vector<std::string> &workload_names,
               const SimOptions &options);

    Chip &chip() { return *_chip; }
    FaultInjector &faultInjector() { return injector; }
    const SimOptions &options() const { return opts; }
    unsigned numLogical() const
    {
        return static_cast<unsigned>(workloads.size());
    }

    /**
     * Run to completion, the watchdog, the safety cap or, with recovery
     * off, the end of the cycle in which any pair logs its first
     * detection; gather results.
     */
    RunResult run();

    /** The timeline probe, or nullptr when timeline_interval == 0. */
    TimelineProbe *timeline() { return probe.get(); }

    /**
     * Full stats document for a finished run:
     * `{"schema":"rmtsim-stats-v1","mode":...,"workloads":[...],
     *   "total_cycles":...,"host":{...},"groups":[...]}`.
     */
    std::string statsJson(const RunResult &result);

    /** Where each logical thread's copies live. */
    struct Placement
    {
        CoreId lead_core = 0;
        ThreadId lead_tid = 0;
        CoreId trail_core = 0;      ///< == lead when not redundant
        ThreadId trail_tid = 0;
        bool redundant = false;
    };
    const Placement &placement(unsigned logical) const
    {
        return placements.at(logical);
    }

    /** The data image of logical thread @p logical (for output
     *  comparison in fault-coverage experiments). */
    DataMemory &memory(unsigned logical) { return *memories.at(logical); }

    // --------------------------------------------- checkpoint/restore
    /**
     * Called at every snapshot barrier, after the chip has quiesced;
     * typically calls saveSnapshotBuffer()/saveSnapshot(),
     * matchesSnapshot() or stopAtBarrier().
     */
    using SnapshotHook = std::function<void(Cycle, Simulation &)>;
    void setSnapshotHook(SnapshotHook hook)
    {
        snapshotHook = std::move(hook);
    }

    /**
     * From the snapshot hook: end run() at this barrier, right after
     * the hook returns.  The RunResult run() then returns describes a
     * machine stopped mid-run (outcome cap_exceeded), and
     * stoppedAtBarrier() reads true.
     */
    void stopAtBarrier() { stopped = true; }

    /** run() ended at a barrier through stopAtBarrier(). */
    bool stoppedAtBarrier() const { return stopped; }

    /**
     * Serialize the whole simulation (chip, data memories, statistics)
     * into a snapshot image.  Only valid at a quiesce point — i.e. from
     * the snapshot hook, or after run() returned — and throws
     * SnapshotError otherwise.
     */
    std::string saveSnapshotBuffer() const;

    /**
     * Would saveSnapshotBuffer() return @p image, byte for byte?  The
     * compare streams (Serializer's compare mode): each section is
     * checked as it is written and the first differing section ends
     * it, so no image is built.  Valid where saveSnapshotBuffer() is.
     */
    bool matchesSnapshot(std::string_view image) const;

    /**
     * Restore a snapshot image into this freshly built (never run)
     * simulation.  The image must have been taken under the same
     * workloads and options (fingerprint-checked); run() then continues
     * from the saved cycle, byte-identical to an unbroken run.
     */
    void restoreSnapshotBuffer(const std::string &image);

    /** File wrappers around the buffer API. */
    void saveSnapshot(const std::string &path) const;
    void restoreSnapshot(const std::string &path);

    /** Cycle this simulation was restored at (0 = not restored). */
    Cycle restoredCycle() const { return restoredAt; }

    /** Upper bound on the freeze-drain length at a snapshot barrier
     *  before the run dies with a clear fatal (a wedge, not a drain). */
    static constexpr Cycle maxSnapshotDrainCycles = 30000;

  private:
    void buildBase(bool base2);
    void buildSrt();
    void buildCrt();
    /** The sections of a snapshot image, written (or compared) into
     *  @p s; stops after the first section that differs. */
    void writeSnapshot(Serializer &s) const;

    SimOptions opts;
    std::string statsJsonPrefix;    ///< cached invariant stats-JSON head
    std::vector<Workload> workloads;
    std::vector<std::unique_ptr<DataMemory>> memories;
    std::vector<std::unique_ptr<DataMemory>> copyMemories;  ///< Base2
    std::unique_ptr<Chip> _chip;
    FaultInjector injector;
    std::vector<Placement> placements;
    std::unique_ptr<TimelineProbe> probe;
    double buildSeconds = 0;
    double restoreSeconds = 0;
    SnapshotHook snapshotHook;
    bool stopped = false;       ///< stopAtBarrier() was called
    Cycle restoredAt = 0;
};

/** Convenience: build + run in one call. */
RunResult runSimulation(const std::vector<std::string> &workloads,
                        const SimOptions &options);

/**
 * IPC of @p workload running alone on the base processor with the same
 * instruction budget — the denominator of SMT-Efficiency (Section 6.4).
 */
double singleThreadIpc(const std::string &workload,
                       const SimOptions &options);

} // namespace rmt

#endif // RMTSIM_SIM_SIMULATOR_HH
