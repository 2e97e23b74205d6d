#include "serve/daemon.hh"

#if defined(__unix__) || defined(__APPLE__)

#include <algorithm>
#include <optional>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "runner/wire.hh"
#include "serve/protocol.hh"

namespace rmt
{
namespace serve
{

namespace
{

void
sendControl(int fd, const std::string &json)
{
    sendFrame(fd, tagControl, json);
}

void
sendError(int fd, const std::string &message)
{
    sendControl(fd, "{\"type\":\"error\",\"message\":\"" +
                        jsonEscape(message) + "\"}");
}

/** The "done" reply for a submit of @p jobs jobs. */
std::string
doneJson(std::size_t jobs, const EngineTally &t, bool draining)
{
    std::ostringstream os;
    os << "{\"type\":\"done\",\"rows\":" << jobs - t.skipped
       << ",\"hits\":" << t.hits << ",\"awaited\":" << t.awaited
       << ",\"simulated\":" << t.simulated << ",\"failed\":" << t.failed
       << ",\"skipped\":" << t.skipped << ",\"goldens\":" << t.goldens
       << ",\"rejoined\":" << t.rejoined
       << ",\"draining\":" << (draining ? "true" : "false") << "}";
    return os.str();
}

/** Why @p what, running @p o, is over @p cap (0 = none); "" when it
 *  fits. */
std::string
overCap(const std::string &what, const SimOptions &o, std::uint64_t cap)
{
    if (!cap ||
        (o.warmup_insts <= cap && o.measure_insts <= cap - o.warmup_insts))
        return "";
    return what + ": warmup+measure " + std::to_string(o.warmup_insts) +
           "+" + std::to_string(o.measure_insts) + " exceeds --max-insts " +
           std::to_string(cap);
}

} // namespace

Daemon::Daemon(DaemonConfig config) : cfg(std::move(config)) {}

Daemon::~Daemon()
{
    if (listen_fd >= 0) {
        ::close(listen_fd);
        ::unlink(cfg.socket_path.c_str());
    }
}

void
Daemon::open()
{
    results.setSyncEvery(cfg.store_sync_every);
    results.open(cfg.store_dir);
    std::string error;
    listen_fd = listenUnix(cfg.socket_path, error);
    if (listen_fd < 0)
        throw std::runtime_error("rmtsimd: " + error);
    pool = std::make_unique<ThreadPool>(cfg.jobs);
}

void
Daemon::run()
{
    while (!stopping.load()) {
        pollfd pfd{listen_fd, POLLIN, 0};
        const int n = ::poll(&pfd, 1, 200);
        if (n <= 0)
            continue;   // timeout tick or EINTR: re-check the flag
        const int client = ::accept(listen_fd, nullptr, nullptr);
        if (client < 0)
            continue;
        std::lock_guard<std::mutex> lock(conn_mu);
        connections.emplace_back(
            [this, client] { serveClient(client); });
    }

    // Drain: no new connections, flag every live campaign so no new
    // job starts, then let the connection threads run their campaigns
    // to the in-flight boundary and say goodbye.
    {
        std::lock_guard<std::mutex> lock(reg_mu);
        for (const auto &c : live)
            c->cancel.store(true);
    }
    std::vector<std::thread> to_join;
    {
        std::lock_guard<std::mutex> lock(conn_mu);
        to_join.swap(connections);
    }
    for (std::thread &t : to_join)
        t.join();
    results.flush();
}

void
Daemon::serveClient(int fd)
{
    try {
        ConnState conn;
        FrameReader reader(fd);
        std::string payload;
        while (reader.next(payload)) {
            if (payload.empty() || payload[0] != tagControl) {
                sendError(fd, "expected a control frame");
                break;
            }
            const std::string body = payload.substr(1);
            JsonValue msg;
            std::string perr;
            if (!parseJson(body, msg, perr)) {
                sendError(fd, "bad control JSON: " + perr);
                break;
            }
            const std::string type = msg.strOr("type", "");
            if (type == "submit") {
                handleSubmit(fd, msg, conn);
            } else if (type == "status" || type == "flush" ||
                       type == "stop" || type == "cancel") {
                handleControl(fd, msg);
            } else {
                sendError(fd, "unknown control type '" + type + "'");
                break;
            }
        }
    } catch (const std::exception &e) {
        // A torn frame or a mid-stream hangup; nothing to send the
        // peer — log and drop the connection.
        warn("rmtsimd: connection error: %s", e.what());
    }
    ::close(fd);
}

void
Daemon::handleControl(int fd, const JsonValue &msg)
{
    const std::string type = msg.strOr("type", "");
    if (type == "status") {
        sendControl(fd, statusJson());
    } else if (type == "flush") {
        results.flush();
        sendControl(fd, "{\"type\":\"ok\",\"flushed\":true}");
    } else if (type == "stop") {
        sendControl(fd, "{\"type\":\"ok\",\"stopping\":true}");
        requestStop();
    } else if (type == "cancel") {
        cancelCampaigns(msg.strOr("campaign", ""));
        sendControl(fd, "{\"type\":\"ok\",\"cancelled\":true}");
    }
}

std::string
Daemon::statusJson()
{
    std::size_t active;
    std::uint64_t done;
    {
        std::lock_guard<std::mutex> lock(reg_mu);
        active = live.size();
        done = campaigns_done;
    }
    std::ostringstream os;
    os << "{\"type\":\"status\""
       << ",\"draining\":" << (stopping.load() ? "true" : "false")
       << ",\"active_campaigns\":" << active
       << ",\"campaigns_done\":" << done
       << ",\"workers\":" << pool->numThreads()
       << ",\"store\":" << results.statsJson() << "}";
    return os.str();
}

void
Daemon::cancelCampaigns(const std::string &fp_hex)
{
    std::lock_guard<std::mutex> lock(reg_mu);
    for (const auto &c : live) {
        if (fp_hex.empty() || fingerprintHex(c->fingerprint) == fp_hex)
            c->cancel.store(true);
    }
}

void
Daemon::handleSubmit(int fd, const JsonValue &msg, ConnState &conn)
{
    std::optional<SimOptions> efficiency;
    Campaign campaign;
    try {
        campaign = parseSubmit(msg, efficiency);
    } catch (const std::exception &e) {
        sendError(fd, e.what());
        return;
    }
    if (campaign.jobs.empty()) {
        sendError(fd, "campaign has no jobs");
        return;
    }
    // The cap refuses work, never rewrites it; nothing is claimed yet.
    const std::size_t n = campaign.jobs.size();
    std::string over;
    for (std::size_t i = 0; cfg.max_insts && over.empty() && i < n; ++i) {
        const JobSpec &job = campaign.jobs[i];
        over = overCap("job " + std::to_string(job.id) + " (" + job.label +
                           ")",
                       job.options, cfg.max_insts);
    }
    if (efficiency && over.empty())
        over = overCap("efficiency baseline", *efficiency, cfg.max_insts);
    if (!over.empty()) {
        sendError(fd, over);
        return;
    }
    if (stopping.load()) {
        // Every job skipped: the client ends its run as interrupted.
        EngineTally none;
        none.skipped = n;
        sendControl(fd, doneJson(n, none, true));
        return;
    }

    // The connection's snapshot cache, home of every point's reference
    // run, serves each of its submits, so the rounds of a stratified
    // campaign share reference runs as in a local rmtsim_batch.  The
    // engine keeps nothing else, so each submit gets its own, with
    // baselines that are base-mode rows of this daemon's store.
    RunnerConfig rcfg;
    rcfg.snapshots = &conn.snapshots;
    rcfg.stop = &conn.cancel;
    std::optional<BaselineCache> baseline;
    if (efficiency)
        rcfg.baseline = &baseline.emplace(*efficiency, &results);

    // The campaign id that `accepted` reports and `cancel` matches
    // folds each job's id with its result key.
    std::uint64_t camp_fp = fnv1a64Seed;
    for (const JobSpec &job : campaign.jobs)
        fnv1a64Field(camp_fp,
                     std::to_string(job.id) + ":" +
                         fingerprintHex(resultKeyU64(job, rcfg)));

    {
        std::lock_guard<std::mutex> lock(reg_mu);
        conn.fingerprint = camp_fp;
        // A drain that began since the check above already flagged
        // the live list; this submit must not outlast it.
        conn.cancel.store(stopping.load());
        live.push_back(&conn);
    }

    sendControl(fd, "{\"type\":\"accepted\",\"campaign\":\"" +
                        fingerprintHex(camp_fp) + "\",\"jobs\":" +
                        std::to_string(n) + "}");

    // The engine claims, builds goldens and simulates on the shared
    // pool; rows leave from this connection thread as wire-encoded
    // JobResults, so a stalled client never blocks a pool worker.  A
    // dead peer stops the campaign: its unstarted jobs are abandoned
    // for other clients.
    EngineTally tally;
    std::string error;
    try {
        tally = CampaignEngine(*pool, results, rcfg).run(
            std::move(campaign.jobs),
            [&](const JobSpec &, const JobResult &r) {
                return sendFrame(fd, tagRow, wire::encodeJobResult(r));
            });
    } catch (const std::exception &e) {
        error = e.what();
    }

    {
        std::lock_guard<std::mutex> lock(reg_mu);
        live.erase(std::remove(live.begin(), live.end(), &conn),
                   live.end());
        ++campaigns_done;
    }
    results.flush();

    if (!error.empty()) {
        sendError(fd, error);
        return;
    }
    sendControl(fd, doneJson(n, tally,
                             stopping.load() || conn.cancel.load()));
}

} // namespace serve
} // namespace rmt

#endif // POSIX
