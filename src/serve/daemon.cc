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
    const std::size_t n = campaign.jobs.size();
    if (stopping.load()) {
        // Every job skipped: the client ends its run as interrupted.
        EngineTally none;
        none.skipped = n;
        sendControl(fd, doneJson(n, none, true));
        return;
    }

    // The engine (with its goldens) and the snapshot cache serve every
    // submit on this connection, so the rounds of a stratified campaign
    // share goldens as they do in a local rmtsim_batch, and fault
    // trials restore the latest barrier exactly as there.  A submit
    // with other efficiency options gets a fresh engine.
    const std::string eff_canon =
        efficiency ? optionsCanonicalJson(*efficiency) : "";
    if (!conn.engine || eff_canon != conn.efficiency) {
        conn.engine.reset();
        conn.baseline.reset();
        conn.efficiency = eff_canon;
        RunnerConfig &rcfg = conn.config;
        rcfg.max_insts = cfg.max_insts;
        rcfg.snapshots = &conn.snapshots;
        rcfg.stop = &conn.cancel;
        if (efficiency) {
            // Baselines are base-mode rows of this daemon's store.
            conn.baseline =
                std::make_unique<BaselineCache>(*efficiency, &results);
        }
        rcfg.baseline = conn.baseline.get();
        conn.engine =
            std::make_unique<CampaignEngine>(*pool, results, rcfg);
    }

    // Rows are keyed on what this daemon will run (the capped
    // options), so stores shared between differently capped daemons
    // never serve one cap's rows to the other.  The campaign id that
    // `accepted` reports and `cancel` matches folds the same keys with
    // each job's id.
    std::uint64_t camp_fp = fnv1a64Seed;
    for (const JobSpec &job : campaign.jobs)
        fnv1a64Field(camp_fp,
                     std::to_string(job.id) + ":" +
                         fingerprintHex(resultKeyU64(job, conn.config)));

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
        tally = conn.engine->run(
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
