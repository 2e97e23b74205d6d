#include "serve/client.hh"

#if defined(__unix__) || defined(__APPLE__)

#include <ostream>
#include <stdexcept>

#include <unistd.h>

#include "runner/result_sink.hh"
#include "runner/wire.hh"

namespace rmt
{
namespace serve
{

namespace
{

int
connectOrThrow(const std::string &socket_path)
{
    std::string error;
    const int fd = connectUnix(socket_path, error);
    if (fd < 0)
        throw std::runtime_error(error);
    return fd;
}

/** Parse a control body; throws on malformed JSON or a daemon error. */
JsonValue
parseControl(const std::string &body)
{
    JsonValue msg;
    std::string error;
    if (!parseJson(body, msg, error))
        throw wire::WireError("serve: daemon sent bad JSON: " + error);
    if (msg.strOr("type", "") == "error")
        throw std::runtime_error("rmtsimd: " +
                                 msg.strOr("message", "unknown error"));
    return msg;
}

} // namespace

RemoteEngine::RemoteEngine(const std::string &socket_path,
                           const RunnerConfig &config)
    : fd(connectOrThrow(socket_path)), reader(fd), config(config)
{
}

RemoteEngine::~RemoteEngine() { close(); }

void
RemoteEngine::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

std::string
RemoteEngine::control(const std::string &request_json)
{
    if (fd < 0 || !sendFrame(fd, tagControl, request_json))
        throw std::runtime_error("serve: control write failed");
    std::string payload;
    if (!reader.next(payload))
        throw std::runtime_error("serve: daemon hung up without "
                                 "replying");
    if (payload.empty() || payload[0] != tagControl)
        throw std::runtime_error("serve: expected a control reply");
    const std::string body = payload.substr(1);
    parseControl(body);     // throws on an error reply
    return body;
}

EngineTally
RemoteEngine::run(std::vector<JobSpec> jobs,
                  const CampaignEngine::Emit &emit)
{
    const auto stopped = [this] {
        return config.stop && config.stop->load(std::memory_order_relaxed);
    };
    EngineTally tally;
    if (fd < 0 || stopped()) {
        tally.skipped = jobs.size();
        return tally;
    }

    Campaign campaign;
    campaign.jobs = std::move(jobs);
    const SimOptions *efficiency =
        config.baseline ? &config.baseline->options() : nullptr;
    if (!sendFrame(fd, tagControl, submitJson(campaign, efficiency)))
        throw wire::WireError("serve: submit write failed");

    const std::vector<JobSpec> &specs = campaign.jobs;
    std::size_t next = 0;       // rows arrive in job order
    std::uint64_t rows = 0;
    std::string payload;
    bool accepted = false;
    bool halted = false;
    // Without a stop flag there is nothing to poll for.
    const std::function<bool()> poll_stop =
        config.stop ? std::function<bool()>(stopped) : nullptr;
    while (!halted && reader.next(payload, poll_stop)) {
        if (payload.empty())
            throw wire::WireError("serve: empty frame");
        if (payload[0] == tagRow) {
            const JobResult r = wire::decodeJobResult(payload.substr(1));
            while (next < specs.size() && specs[next].id != r.id)
                ++next;
            if (next == specs.size())
                throw wire::WireError("serve: row for job " +
                                         std::to_string(r.id) +
                                         " is out of order");
            ++rows;
            tally.failed += !r.ok();
            halted = !emit(specs[next++], r) || stopped();
            continue;
        }
        const JsonValue msg = parseControl(payload.substr(1));
        const std::string type = msg.strOr("type", "");
        if (type == "accepted") {
            accepted = true;
            continue;
        }
        if (type != "done")
            throw wire::WireError("serve: unexpected control '" +
                                     type + "'");
        const auto count = [&msg](const char *key) {
            return static_cast<std::uint64_t>(msg.numberOr(key, 0));
        };
        if (count("rows") != rows)
            throw wire::WireError(
                "serve: daemon reported " + std::to_string(count("rows")) +
                " rows but sent " + std::to_string(rows));
        tally = {count("hits"),    count("awaited"), count("simulated"),
                 count("failed"),  count("skipped"), count("goldens"),
                 count("rejoined")};
        const JsonValue *d = msg.find("draining");
        was_draining = d && d->isBool() && d->boolean();
        return tally;
    }
    if (halted || stopped()) {
        close();
        tally.skipped = specs.size() - rows;
        return tally;
    }
    throw wire::WireError(
        accepted ? "serve: daemon hung up mid-campaign"
                 : "serve: daemon hung up before accepting");
}

RemoteCampaignResult
runRemoteCampaign(const std::string &socket_path,
                  const Campaign &campaign, bool include_timing,
                  std::ostream &out)
{
    RemoteEngine engine(socket_path, RunnerConfig{});
    RemoteCampaignResult r;
    const EngineTally t = engine.run(
        campaign.jobs, [&](const JobSpec &spec, const JobResult &result) {
            out << resultJson(spec, result, include_timing) << "\n";
            ++r.rows;
            return true;
        });
    out.flush();
    r.hits = t.hits + t.awaited;
    r.misses = t.simulated;
    r.failed = t.failed;
    r.draining = engine.draining();
    return r;
}

std::string
controlRequest(const std::string &socket_path,
               const std::string &request_json)
{
    return RemoteEngine(socket_path, RunnerConfig{}).control(request_json);
}

} // namespace serve
} // namespace rmt

#endif // POSIX
