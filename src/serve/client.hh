/**
 * @file
 * Client half of the serve protocol: what `rmtsim_batch --server` and
 * the rmtsimd control verbs use to talk to a running daemon.
 */

#ifndef RMTSIM_SERVE_CLIENT_HH
#define RMTSIM_SERVE_CLIENT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "runner/runner.hh"
#include "serve/campaign_engine.hh"
#include "serve/protocol.hh"

namespace rmt
{
namespace serve
{

#if defined(__unix__) || defined(__APPLE__)

/**
 * The remote twin of CampaignEngine: the same run(jobs, emit) ->
 * EngineTally shape, served by the rmtsimd at a socket over one
 * connection held for the engine's lifetime.  The daemon keeps one
 * engine per connection, so successive runs (the rounds of a
 * stratified campaign) share its goldens as they do in-process.
 */
class RemoteEngine
{
  public:
    /**
     * Connect; throws std::runtime_error when nothing serves
     * @p socket_path.  Only config.stop and config.baseline are used:
     * the baseline cache's options travel as the submit's "efficiency"
     * member and the daemon computes efficiencies over its own store.
     */
    RemoteEngine(const std::string &socket_path,
                 const RunnerConfig &config);
    ~RemoteEngine();

    RemoteEngine(const RemoteEngine &) = delete;
    RemoteEngine &operator=(const RemoteEngine &) = delete;

    /**
     * Submit @p jobs and emit each returned row, decoded into a
     * JobResult and matched to its spec by id, in job order; jobs the
     * daemon skipped have no row.  Returns the tally "done" reports.
     * Once emit returns false or config.stop reads true (checked after
     * every row and every 100 ms while waiting for one), stops and
     * closes the connection (the daemon abandons the unstarted jobs;
     * later runs skip every job).  Throws wire::WireError on a
     * protocol violation, a connection cut before "done", or a "done"
     * whose row count differs from the rows received, and
     * std::runtime_error on a daemon-side error.
     */
    EngineTally run(std::vector<JobSpec> jobs,
                    const CampaignEngine::Emit &emit);

    /** Send one control message and return the daemon's JSON reply. */
    std::string control(const std::string &request_json);

    /** Did the last "done" report a draining daemon? */
    bool draining() const { return was_draining; }

  private:
    void close();

    int fd;
    FrameReader reader;
    RunnerConfig config;
    bool was_draining = false;
};

/** What one runRemoteCampaign reported. */
struct RemoteCampaignResult
{
    std::uint64_t rows = 0;     ///< JSONL rows streamed back
    std::uint64_t hits = 0;     ///< jobs served from the result store
    std::uint64_t misses = 0;   ///< jobs the daemon had to simulate
    std::uint64_t failed = 0;   ///< rows with status "failed"
    bool draining = false;      ///< daemon was shutting down mid-run
};

/**
 * Submit @p campaign to the daemon at @p socket_path through a
 * RemoteEngine and write each returned row to @p out in order, exactly
 * as a local JsonlSink would.  hits counts stored and awaited rows.
 * Throws std::runtime_error as RemoteEngine::run does.
 */
RemoteCampaignResult runRemoteCampaign(const std::string &socket_path,
                                       const Campaign &campaign,
                                       bool include_timing,
                                       std::ostream &out);

/**
 * Send one control message (status/flush/stop/cancel JSON) and return
 * the daemon's JSON reply body.  Throws std::runtime_error on connect
 * or protocol failure.
 */
std::string controlRequest(const std::string &socket_path,
                           const std::string &request_json);

#endif // POSIX

} // namespace serve
} // namespace rmt

#endif // RMTSIM_SERVE_CLIENT_HH
