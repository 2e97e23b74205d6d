/**
 * @file
 * rmtsimd: the campaign daemon.  One process owns a content-addressed
 * ResultStore and a work-stealing ThreadPool; clients connect over a
 * Unix-domain socket, submit campaigns (serve/protocol.hh), and get
 * their JSONL rows streamed back in job order as they complete.
 *
 * Execution model:
 *
 *  - one accept loop (poll + 200 ms tick so the SIGTERM drain flag is
 *    observed promptly), one detached-join thread per connection;
 *  - each connection holds one SnapshotCache, the home of every fault
 *    point's reference run, for as long as it stays open: every submit
 *    on it — the rounds of a stratified campaign — shares those runs.
 *    Each submit runs through a CampaignEngine (the engine a local
 *    rmtsim_batch runs, serve/campaign_engine.hh) on the shared pool:
 *    store hits are served immediately, owned jobs (reference runs
 *    first) run on the pool, and keys another client is computing
 *    right now are awaited, so each content key is simulated once
 *    however many campaigns share it;
 *  - --max-insts refuses, before any claim, a submit with a job or
 *    efficiency baseline over it (warmup + measure), naming it;
 *  - a submit's "efficiency" options give the engine a BaselineCache
 *    over the daemon's store, so --efficiency rows match a local run;
 *  - rows are sent strictly in job order from the connection thread,
 *    as wire-encoded JobResults the client renders through its own
 *    JsonlSink — so the stream is byte-identical to a local
 *    `rmtsim_batch` run of the same campaign — and a stalled client
 *    never blocks a pool worker;
 *  - a client hangup mid-stream cancels its campaign: unstarted jobs
 *    are abandoned (waiters re-claim them), finished ones are already
 *    in the store, so a resubmission resumes from row 0 at store speed.
 *
 * Drain (SIGTERM / the stop verb) stops the accept loop, flags every
 * live campaign to start no new jobs, lets in-flight simulations
 * finish and publish, flushes the store, and exits — mirroring the
 * PR-9 campaign drain semantics.
 */

#ifndef RMTSIM_SERVE_DAEMON_HH
#define RMTSIM_SERVE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "serve/campaign_engine.hh"
#include "serve/result_store.hh"
#include "sim/metrics.hh"

namespace rmt
{
namespace serve
{

struct DaemonConfig
{
    std::string socket_path;        ///< Unix socket to serve on
    std::string store_dir;          ///< ResultStore directory
    unsigned jobs = 0;              ///< pool workers (0 = all cores)
    std::uint64_t max_insts = 0;    ///< refuse warmup+measure > N
                                    ///< (0 = off)
    unsigned store_sync_every = 16; ///< fsync cadence (1 = every row)
};

#if defined(__unix__) || defined(__APPLE__)

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Open the store and bind the socket.  Throws StoreError /
     * std::runtime_error when either is unusable (socket already
     * served, unwritable store directory, version mismatch).
     */
    void open();

    /** Accept/serve until requestStop(); returns after the drain. */
    void run();

    /**
     * Begin the drain.  Async-signal-safe (one relaxed atomic store),
     * so it may be called directly from a SIGTERM/SIGINT handler.
     */
    void requestStop() { stopping.store(true); }

  private:
    /** One connection's reference runs, kept across its submits, and
     *  registered in `live` while a submit runs. */
    struct ConnState
    {
        std::uint64_t fingerprint = 0;  ///< the running submit's id
        std::atomic<bool> cancel{false};
        SnapshotCache snapshots;
    };

    void serveClient(int fd);
    void handleSubmit(int fd, const JsonValue &msg, ConnState &conn);
    void handleControl(int fd, const JsonValue &msg);
    std::string statusJson();
    void cancelCampaigns(const std::string &fp_hex);

    DaemonConfig cfg;
    ResultStore results;
    std::unique_ptr<ThreadPool> pool;
    int listen_fd = -1;
    std::atomic<bool> stopping{false};

    std::mutex reg_mu;
    std::vector<ConnState *> live;  ///< connections running a submit
    std::uint64_t campaigns_done = 0;

    std::mutex conn_mu;
    std::vector<std::thread> connections;
};

#endif // POSIX

} // namespace serve
} // namespace rmt

#endif // RMTSIM_SERVE_DAEMON_HH
