/**
 * @file
 * Content-addressed result store: every JobResult rmtsimd or
 * rmtsim_batch has computed, keyed by what was simulated.
 *
 * A result is keyed by *what was simulated*, never by where it sat in
 * a campaign: `resultKeyU64` hashes the canonical-options pre-image
 * (the options fingerprint, via common/fingerprint), the workload mix,
 * the scheduled fault records, the per-job seed, the stats-embed
 * flag and, for a faulted job without recovery, a stop-at-detection
 * marker.  Job id and label are deliberately excluded, so the same
 * simulation submitted under a different grid position — or by a
 * different client entirely — is a cache hit.
 *
 * Concurrency is single-flight, split into a non-blocking `tryClaim`
 * (so CampaignEngine claims a whole job list before it waits on any
 * other client's in-flight job) and a blocking `await`:
 *
 *     tryClaim -> Hit       serve the stored result
 *              -> Owner     caller must publish() or abandon()
 *              -> InFlight  another thread is computing it; await()
 *
 * Completed results are appended to `DIR/store.rmtrs` as CRC-framed
 * records (magic | length | key | payload | CRC32(key + payload)) and
 * fsync()ed in batches, so a SIGKILL leaves at worst a torn tail that
 * the next open truncates away; a frame whose key or payload was
 * damaged fails its CRC and is dropped with everything after it.
 * Failed results are published in memory only — a failure unblocks
 * today's waiters but is never negative-cached on disk.
 */

#ifndef RMTSIM_SERVE_RESULT_STORE_HH
#define RMTSIM_SERVE_RESULT_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "runner/job.hh"

namespace rmt
{

/** Unusable store directory/file (unwritable, wrong version). */
struct StoreError : std::runtime_error
{
    explicit StoreError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Store format version (2: the frame CRC covers the key; 3 and 4:
 *  frames hold wire codec v3 and v4 rows).  It moves with the codec,
 *  so a store of an older build is refused, not truncated. */
constexpr std::uint32_t resultStoreVersion = 4;

/** One frame of a store file. */
struct StoredRow
{
    std::uint64_t key = 0;
    std::string mode;
    JobResult result;
};

/** The valid prefix of a store file (scanStore). */
struct StoreScan
{
    std::vector<StoredRow> rows;    ///< file order
    /** Bytes of the header and every row in @ref rows; 0 when the file
     *  is empty or holds part of a header only. */
    std::uint64_t valid_bytes = 0;
    /** Why the scan stopped at a corrupt frame; "" when it reached the
     *  end of the file or a torn tail. */
    std::string damage;
};

/**
 * The valid prefix of the bytes @p data of the store file in @p dir:
 * every frame up to the first torn, corrupt or undecodable one.
 * Throws StoreError for a foreign file or another format version.
 * Reads and writes no file (ResultStore::open does both).
 */
StoreScan scanStore(const std::string &data, const std::string &dir);

struct RunnerConfig;

/**
 * Content key of one job: fingerprint(options) + workloads +
 * fault records + seed (+ the stats-embed flag, which changes the
 * record payload, and, for a faulted job without recovery, a marker
 * for its stop at the first detection, so rows stored by builds that
 * ran on past it are never served).  Everything resultJson() renders
 * from the JobResult is a function of this key; everything it renders
 * from the JobSpec (id, label) is not part of it.
 */
std::uint64_t resultKeyU64(const JobSpec &spec);

/**
 * Content key of @p spec as @p config will run and render it: the
 * plain key plus -- only when set -- the efficiency baseline's options
 * and, for a fault trial under barriers, snapshot restore, both of
 * which change the row's efficiencies or its "extra" block.  With a
 * default config this equals resultKeyU64(spec).
 */
std::uint64_t resultKeyU64(const JobSpec &spec,
                           const RunnerConfig &config);

/** Counters `rmtsim_report --serve-summary` renders. */
struct ResultStoreStats
{
    std::uint64_t hits = 0;             ///< tryClaim served a stored row
    std::uint64_t misses = 0;           ///< tryClaim handed out ownership
    std::uint64_t inflight_waits = 0;   ///< await() calls that blocked
    std::uint64_t rows = 0;             ///< results resident in memory
    std::uint64_t disk_rows = 0;        ///< rows loaded from disk at open
    std::uint64_t stored_bytes = 0;     ///< bytes appended + loaded on disk
    std::map<std::string, std::uint64_t> mode_rows;  ///< per-mode rows
};

class ResultStore
{
  public:
    enum class Claim : std::uint8_t
    {
        Hit,        ///< result copied out
        Owner,      ///< caller computes; must publish() or abandon()
        InFlight,   ///< someone else is computing; await() it
    };

    ResultStore() = default;
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Attach the on-disk store under @p dir (created if needed): load
     * every valid frame of `store.rmtrs`, truncate any torn/corrupt
     * tail, and append future publishes.  Throws StoreError when the
     * directory or file cannot be used at all (including a store
     * written by another format version, or one another open store
     * holds: a store has one writer at a time, enforced by an advisory
     * flock on POSIX); damage inside the file degrades to the valid
     * prefix.
     */
    void open(const std::string &dir);

    /** fsync cadence for appended frames (default 16; 1 = every row). */
    void setSyncEvery(unsigned n) { sync_every = n ? n : 1; }

    /** Non-blocking single-flight lookup (see Claim). */
    Claim tryClaim(std::uint64_t key, JobResult &out);

    /**
     * Block until @p key is published or abandoned.  True: @p out
     * holds the published result.  False: the owner abandoned (or
     * failed without a result) — the caller should tryClaim again and
     * expect to become the owner.
     */
    bool await(std::uint64_t key, JobResult &out);

    /**
     * Publish the result of a key claimed as Owner and wake waiters.
     * Ok results are persisted (when a store is attached); failed ones
     * stay memory-resident only.  @p mode feeds the per-mode counters.
     */
    void publish(std::uint64_t key, const std::string &mode,
                 const JobResult &result);

    /** Give up ownership of a claimed key without a result; waiters
     *  wake, retry their claim, and one of them becomes the owner. */
    void abandon(std::uint64_t key);

    /** Write out buffered frames and fsync (POSIX). */
    void flush();

    ResultStoreStats stats() const;

    /** The stats as one JSON object (the status verb's "store"). */
    std::string statsJson() const;

  private:
    struct Entry
    {
        bool ready = false;     ///< false = in flight
        JobResult result;
        std::string mode;
    };

    void load(const std::string &dir);           // caller holds mu
    void appendFrame(std::uint64_t key, const std::string &mode,
                     const JobResult &result);   // caller holds mu
    void syncLocked();                           // caller holds mu

    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, Entry> entries;
    ResultStoreStats counters;

    std::string path;           ///< "" = memory-only
    int fd = -1;
    std::string buffer;         ///< frames not yet written
    unsigned unsynced = 0;
    unsigned sync_every = 16;
};

} // namespace rmt

#endif // RMTSIM_SERVE_RESULT_STORE_HH
