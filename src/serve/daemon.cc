#include "serve/daemon.hh"

#if defined(__unix__) || defined(__APPLE__)

#include <algorithm>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "serve/campaign_engine.hh"
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
                handleSubmit(fd, msg);
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
Daemon::handleSubmit(int fd, const JsonValue &msg)
{
    bool include_timing = true;
    Campaign campaign;
    try {
        campaign = parseSubmit(msg, include_timing);
    } catch (const std::exception &e) {
        sendError(fd, e.what());
        return;
    }
    if (campaign.jobs.empty()) {
        sendError(fd, "campaign has no jobs");
        return;
    }
    if (stopping.load()) {
        sendError(fd, "draining: not accepting campaigns");
        return;
    }

    // Each submit gets its own snapshot cache: fault trials restore
    // the latest barrier exactly as a local rmtsim_batch run does, so
    // their rows (and keys) carry the same snapshot "extra" block.
    SnapshotCache snapshots;
    RunnerConfig rcfg;
    rcfg.max_attempts = cfg.max_attempts;
    rcfg.timeout_seconds = cfg.timeout_seconds;
    rcfg.max_insts = cfg.max_insts;
    rcfg.snapshots = &snapshots;

    // Rows are keyed on what this daemon will run (the capped
    // options), so stores shared between differently capped daemons
    // never serve one cap's rows to the other.  The campaign id that
    // `accepted` reports and `cancel` matches folds the same keys with
    // each job's id.
    const std::size_t n = campaign.jobs.size();
    std::uint64_t camp_fp = fnv1a64Seed;
    for (const JobSpec &job : campaign.jobs)
        fnv1a64Field(camp_fp, std::to_string(job.id) + ":" +
                                  fingerprintHex(resultKeyU64(job, rcfg)));

    auto reg = std::make_shared<LiveCampaign>();
    reg->fingerprint = camp_fp;
    rcfg.stop = &reg->cancel;
    {
        std::lock_guard<std::mutex> lock(reg_mu);
        live.push_back(reg);
    }

    sendControl(fd, "{\"type\":\"accepted\",\"campaign\":\"" +
                        fingerprintHex(camp_fp) + "\",\"jobs\":" +
                        std::to_string(n) + "}");

    // The engine claims, builds goldens and simulates on the shared
    // pool; rows leave from this connection thread, so a stalled
    // client never blocks a pool worker.  A dead peer stops the
    // campaign: its unstarted jobs are abandoned for other clients.
    EngineTally tally;
    std::string error;
    try {
        CampaignEngine engine(*pool, results, rcfg);
        tally = engine.run(std::move(campaign.jobs),
                           [&](const JobSpec &spec, const JobResult &r) {
            return sendFrame(fd, tagRow,
                             resultJson(spec, r, include_timing));
        });
    } catch (const std::exception &e) {
        error = e.what();
    }

    {
        std::lock_guard<std::mutex> lock(reg_mu);
        live.erase(std::remove(live.begin(), live.end(), reg),
                   live.end());
        ++campaigns_done;
    }
    results.flush();

    if (!error.empty()) {
        sendError(fd, error);
        return;
    }
    std::ostringstream os;
    os << "{\"type\":\"done\",\"rows\":" << n - tally.skipped
       << ",\"hits\":" << tally.hits + tally.awaited
       << ",\"misses\":" << tally.simulated
       << ",\"failed\":" << tally.failed << ",\"draining\":"
       << (stopping.load() || reg->cancel.load() ? "true" : "false")
       << "}";
    sendControl(fd, os.str());
}

} // namespace serve
} // namespace rmt

#endif // POSIX
