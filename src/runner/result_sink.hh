/**
 * @file
 * Streaming result output for campaign runs.
 *
 * JsonlSink emits one self-describing JSON object per completed job to
 * a std::ostream (one per line — the .jsonl convention) plus an
 * optional progress line on stderr.  All entry points are
 * mutex-protected; workers call record() concurrently.
 *
 * By default lines are emitted in job-id order: out-of-order
 * completions are buffered and flushed as soon as the next id
 * arrives, so `-j 8` and `-j 1` produce byte-identical files (modulo
 * wall-time fields, which can be suppressed with include_timing =
 * false for diffable output).  The stream is flushed whenever rows
 * are released (every row when unordered), so readers see them as
 * they land and a campaign killed mid-run leaves only whole lines
 * behind.
 */

#ifndef RMTSIM_RUNNER_RESULT_SINK_HH
#define RMTSIM_RUNNER_RESULT_SINK_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "common/json.hh"
#include "runner/job.hh"

namespace rmt
{

struct Campaign;

/**
 * Stable fingerprint of a SimOptions (FNV-1a over the canonical
 * serialisation): two jobs share a fingerprint iff they run the same
 * configuration, which is how downstream analysis groups sweep cells.
 */
std::string optionsFingerprint(const SimOptions &options);

/** One JSON object (no trailing newline) describing a finished job. */
std::string resultJson(const JobSpec &spec, const JobResult &result,
                       bool include_timing);

class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    virtual void begin(const Campaign &campaign) { (void)campaign; }
    virtual void record(const JobSpec &spec, const JobResult &result) = 0;
    virtual void end() {}
};

struct JsonlSinkOptions
{
    bool ordered = true;        ///< emit in job-id order
    bool include_timing = true; ///< wall_ms field
    bool progress = true;       ///< progress line on stderr

    /**
     * When non-empty, end() fsync()s this path (the file the stream
     * writes to) after the final flush, so a completed campaign's
     * records survive a machine crash.  POSIX only; ignored elsewhere.
     */
    std::string fsync_path;
};

class JsonlSink : public ResultSink
{
  public:
    using Options = JsonlSinkOptions;

    explicit JsonlSink(std::ostream &out, Options options = Options());

    void begin(const Campaign &campaign) override;
    void record(const JobSpec &spec, const JobResult &result) override;
    void end() override;

  private:
    bool flushReady();      // caller holds mu; true if rows went out

    std::ostream &out;
    Options opts;
    mutable std::mutex mu;
    std::map<std::uint64_t, std::string> pending;   // ordered mode
    std::uint64_t next_id = 0;
    std::uint64_t total = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::chrono::steady_clock::time_point started;  ///< set by begin()
};

} // namespace rmt

#endif // RMTSIM_RUNNER_RESULT_SINK_HH
