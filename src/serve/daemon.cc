#include "serve/daemon.hh"

#if defined(__unix__) || defined(__APPLE__)

#include <algorithm>
#include <condition_variable>
#include <map>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "rmt/fault_oracle.hh"
#include "serve/protocol.hh"

namespace rmt
{
namespace serve
{

namespace
{

/** Per-job state of one live submit (indexed by campaign position). */
struct Slot
{
    enum class State : std::uint8_t
    {
        Pending,    ///< owned job still queued/running on the pool
        Ready,      ///< result available
        Skipped,    ///< cancelled before it started
    };
    State state = State::Pending;
    JobResult result;
};

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
    pool->wait();
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
                handleControl(fd, body);
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
Daemon::handleControl(int fd, const std::string &body)
{
    JsonValue msg;
    parseJson(body, msg);
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

    RunnerConfig rcfg;
    rcfg.jobs = 1;          // executeJob runs inline on a pool worker
    rcfg.max_attempts = cfg.max_attempts;
    rcfg.timeout_seconds = cfg.timeout_seconds;
    rcfg.max_insts = cfg.max_insts;

    // Rows are keyed on what this daemon will run (the capped
    // options), so stores shared between differently capped daemons
    // never serve one cap's rows to the other.  The campaign id that
    // `accepted` reports and `cancel` matches folds the same keys with
    // each job's id.
    const std::size_t n = campaign.jobs.size();
    std::vector<std::uint64_t> keys(n);
    std::uint64_t camp_fp = fnv1a64Seed;
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = resultKeyU64(campaign.jobs[i], rcfg);
        fnv1a64Field(camp_fp, std::to_string(campaign.jobs[i].id) + ":" +
                                  fingerprintHex(keys[i]));
    }

    auto reg = std::make_shared<LiveCampaign>();
    reg->fingerprint = camp_fp;
    {
        std::lock_guard<std::mutex> lock(reg_mu);
        live.push_back(reg);
    }

    sendControl(fd, "{\"type\":\"accepted\",\"campaign\":\"" +
                        fingerprintHex(camp_fp) + "\",\"jobs\":" +
                        std::to_string(n) + "}");

    // Partition pass: claim every key up front so two overlapping
    // campaigns interleave at job granularity instead of racing whole
    // submissions.  Owned fault jobs get their oracle attached exactly
    // the way rmtsim_batch does it — one golden run per distinct
    // (mix, capped options) point, shared across this submit, built
    // lazily so an all-hit resubmission never pays for a golden.
    std::mutex slot_mu;
    std::condition_variable slot_cv;
    std::vector<Slot> slots(n);
    std::size_t outstanding = 0;    // owned jobs handed to the pool
    std::uint64_t hits = 0, misses = 0;
    std::vector<std::size_t> waitlist;
    std::vector<std::size_t> owned;

    for (std::size_t i = 0; i < n; ++i) {
        JobResult cached;
        switch (results.tryClaim(keys[i], cached)) {
          case ResultStore::Claim::Hit:
            slots[i].state = Slot::State::Ready;
            slots[i].result = std::move(cached);
            ++hits;
            break;
          case ResultStore::Claim::Owner:
            owned.push_back(i);
            ++misses;
            break;
          case ResultStore::Claim::InFlight:
            waitlist.push_back(i);
            break;
        }
    }

    std::map<std::string, std::unique_ptr<FaultOracle>> oracles;
    const auto attachOracle = [&](JobSpec &job) {
        if (job.faults.empty())
            return;
        const SimOptions o = cappedOptions(job, rcfg);
        std::string key;
        for (const auto &w : job.workloads)
            key += w + "+";
        key += fingerprintHex(optionsFingerprintU64(o));
        auto it = oracles.find(key);
        if (it == oracles.end()) {
            it = oracles
                     .emplace(key, std::make_unique<FaultOracle>(
                                       FaultOracle::goldenImage(
                                           job.workloads, o)))
                     .first;
        }
        attachFaultOracle(job, it->second.get());
    };

    const auto runOwned = [&](std::size_t i) {
        JobSpec &spec = campaign.jobs[i];
        JobResult r;
        if (reg->cancel.load()) {
            results.abandon(keys[i]);
            std::lock_guard<std::mutex> lock(slot_mu);
            slots[i].state = Slot::State::Skipped;
            --outstanding;
            slot_cv.notify_all();
            return;
        }
        r = executeJob(spec, rcfg);
        results.publish(keys[i], modeName(spec.options.mode), r);
        std::lock_guard<std::mutex> lock(slot_mu);
        slots[i].state = Slot::State::Ready;
        slots[i].result = std::move(r);
        --outstanding;
        slot_cv.notify_all();
    };

    bool golden_failed = false;
    try {
        for (std::size_t i : owned)
            attachOracle(campaign.jobs[i]);
    } catch (const std::exception &e) {
        // A golden run that cannot even build means every owned fault
        // job is doomed; release the claims so other clients retry.
        for (std::size_t i : owned)
            results.abandon(keys[i]);
        sendError(fd, std::string("golden run failed: ") + e.what());
        golden_failed = true;
    }

    std::uint64_t rows = 0, failed = 0;
    bool peer_gone = false;

    if (!golden_failed) {
        {
            std::lock_guard<std::mutex> lock(slot_mu);
            outstanding = owned.size();
        }
        for (std::size_t i : owned)
            pool->submit([&runOwned, i] { runOwned(i); });

        // Serve the in-flight keys: block on whoever owns them; if the
        // owner abandons (their client hung up, a drain), re-claim and
        // run inline right here.
        for (std::size_t i : waitlist) {
            JobResult r;
            for (;;) {
                if (results.await(keys[i], r)) {
                    slots[i].state = Slot::State::Ready;
                    slots[i].result = std::move(r);
                    ++hits;
                    break;
                }
                switch (results.tryClaim(keys[i], r)) {
                  case ResultStore::Claim::Hit:
                    slots[i].state = Slot::State::Ready;
                    slots[i].result = std::move(r);
                    ++hits;
                    break;
                  case ResultStore::Claim::Owner:
                    if (reg->cancel.load()) {
                        results.abandon(keys[i]);
                        slots[i].state = Slot::State::Skipped;
                    } else {
                        JobSpec &spec = campaign.jobs[i];
                        try {
                            attachOracle(spec);
                            JobResult mine = executeJob(spec, rcfg);
                            results.publish(
                                keys[i], modeName(spec.options.mode),
                                mine);
                            slots[i].state = Slot::State::Ready;
                            slots[i].result = std::move(mine);
                        } catch (const std::exception &e) {
                            results.abandon(keys[i]);
                            slots[i].state = Slot::State::Skipped;
                            warn("rmtsimd: job %llu: %s",
                                 static_cast<unsigned long long>(
                                     spec.id),
                                 e.what());
                        }
                        ++misses;
                    }
                    break;
                  case ResultStore::Claim::InFlight:
                    continue;     // next owner appeared; await again
                }
                break;
            }
        }

        // Emission cursor: rows leave in campaign order while the pool
        // fills later slots out of order.  A dead peer flips the
        // cancel flag (unstarted owned jobs abandon themselves) but we
        // still wait out the in-flight ones below.
        for (std::size_t i = 0; i < n; ++i) {
            std::unique_lock<std::mutex> lock(slot_mu);
            slot_cv.wait(lock, [&] {
                return slots[i].state != Slot::State::Pending;
            });
            if (slots[i].state == Slot::State::Skipped)
                continue;
            const JobResult &r = slots[i].result;
            if (!r.ok())
                ++failed;
            if (peer_gone || reg->cancel.load())
                continue;
            const std::string line = resultJson(
                campaign.jobs[i], r, include_timing);
            lock.unlock();
            if (!sendFrame(fd, tagRow, line)) {
                peer_gone = true;
                reg->cancel.store(true);
            } else {
                ++rows;
            }
        }

        // All owned pool tasks reference this stack frame (campaign,
        // slots, keys); do not leave before every one has retired.
        {
            std::unique_lock<std::mutex> lock(slot_mu);
            slot_cv.wait(lock, [&] { return outstanding == 0; });
        }
    }

    {
        std::lock_guard<std::mutex> lock(reg_mu);
        live.erase(std::remove(live.begin(), live.end(), reg),
                   live.end());
        ++campaigns_done;
    }
    results.flush();

    if (!golden_failed && !peer_gone) {
        std::ostringstream os;
        os << "{\"type\":\"done\",\"rows\":" << rows
           << ",\"hits\":" << hits << ",\"misses\":" << misses
           << ",\"failed\":" << failed << ",\"draining\":"
           << (stopping.load() || reg->cancel.load() ? "true"
                                                     : "false")
           << "}";
        sendControl(fd, os.str());
    }
}

} // namespace serve
} // namespace rmt

#endif // POSIX
