#include "serve/protocol.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/parse.hh"
#include "rmt/fault_injector.hh"
#include "sim/simulator.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace rmt
{
namespace serve
{

namespace
{

/** One job as a JSON object (the "jobs" array element). */
std::string
jobJson(const JobSpec &spec)
{
    std::ostringstream os;
    // 64-bit fields that can exceed 2^53 (per-trial seeds are full
    // 64-bit hashes) travel as strings: a JSON number goes through a
    // double on the far side and would silently round.
    os << "{\"id\":" << spec.id
       << ",\"label\":\"" << jsonEscape(spec.label) << "\""
       << ",\"seed\":\"" << spec.seed << "\""
       << ",\"workloads\":[";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << jsonEscape(spec.workloads[i]) << "\"";
    }
    os << "],\"options\":" << optionsCanonicalJson(spec.options)
       << ",\"stats\":" << (spec.options.collect_stats_json ? 1 : 0);
    if (!spec.faults.empty()) {
        os << ",\"faults\":[";
        for (std::size_t i = 0; i < spec.faults.size(); ++i) {
            const FaultRecord &f = spec.faults[i];
            if (i)
                os << ",";
            os << "{\"kind\":\"" << faultKindName(f.kind) << "\""
               << ",\"when\":\"" << f.when << "\""
               << ",\"core\":" << unsigned(f.core)
               << ",\"tid\":" << unsigned(f.tid)
               << ",\"reg\":" << unsigned(f.reg)
               << ",\"bit\":" << f.bit
               << ",\"fu\":" << f.fuIndex
               << ",\"mask\":\"" << f.mask << "\""
               << ",\"pair\":" << unsigned(f.pairLogical) << "}";
        }
        os << "]";
    }
    os << "}";
    return os.str();
}

} // namespace

std::string
submitJson(const Campaign &campaign, const SimOptions *efficiency)
{
    std::ostringstream os;
    os << "{\"type\":\"submit\""
       << ",\"name\":\"" << jsonEscape(campaign.name) << "\""
       << ",\"seed\":\"" << campaign.seed << "\"";
    if (efficiency)
        os << ",\"efficiency\":" << optionsCanonicalJson(*efficiency);
    os << ",\"jobs\":[";
    for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
        if (i)
            os << ",";
        os << jobJson(campaign.jobs[i]);
    }
    os << "]}";
    return os.str();
}

namespace
{

std::uint64_t
u64Member(const JsonValue &obj, const char *key)
{
    // Full-width u64 fields arrive as strings (see jobJson); small
    // ones as numbers.  Accept both everywhere, and only unsigned
    // integers in either form.
    const std::string what = std::string("serve: member '") + key + "'";
    const JsonValue *v = obj.find(key);
    if (v && v->isString())
        return parseUnsigned(v->str(), what);
    if (!v || !v->isNumber())
        throw std::invalid_argument(
            std::string("serve: missing numeric member '") + key + "'");
    const double n = v->number();
    if (!(n >= 0) || n != std::floor(n) || n >= 0x1p64)
        throw std::invalid_argument("bad value for " + what + ": " +
                                    jsonNum(n));
    return static_cast<std::uint64_t>(n);
}

} // namespace

SimOptions
parseCanonicalOptions(const JsonValue &obj)
{
    if (!obj.isObject())
        throw std::invalid_argument("serve: options is not an object");
    SimOptions o;
    for (const auto &[key, value] : obj.members()) {
        if (!value.isString() && !value.isNumber())
            throw std::invalid_argument("serve: options member '" + key +
                                        "' is not a string or number");
        applySetting(o, key,
                     value.isString() ? value.str() : jsonNum(value.number()));
    }

    // Re-canonicalising must reproduce the sent pre-image byte for
    // byte; otherwise this daemon would simulate something other than
    // what the client asked for.
    std::ostringstream sent;
    const char *sep = "{";
    for (const auto &[key, value] : obj.members()) {
        sent << sep << "\"" << key << "\":";
        if (value.isString())
            sent << "\"" << jsonEscape(value.str()) << "\"";
        else
            sent << jsonNum(value.number());
        sep = ",";
    }
    sent << "}";
    const std::string canon = optionsCanonicalJson(o);
    if (sent.str() != canon)
        throw std::invalid_argument(
            "serve: options do not round-trip (client/daemon "
            "option-schema drift): got " + sent.str() + ", canonical " +
            canon);
    return o;
}

Campaign
parseSubmit(const JsonValue &msg, std::optional<SimOptions> &efficiency)
{
    Campaign campaign;
    campaign.name = msg.strOr("name", "campaign");
    campaign.seed = u64Member(msg, "seed");
    efficiency.reset();
    if (const JsonValue *base = msg.find("efficiency"))
        efficiency = parseCanonicalOptions(*base);

    const JsonValue *jobs = msg.find("jobs");
    if (!jobs || !jobs->isArray())
        throw std::invalid_argument("serve: submit has no jobs array");

    for (const JsonValue &j : jobs->array()) {
        JobSpec spec;
        spec.id = u64Member(j, "id");
        spec.label = j.strOr("label", "");
        spec.seed = u64Member(j, "seed");
        const JsonValue *wl = j.find("workloads");
        if (!wl || !wl->isArray() || wl->array().empty())
            throw std::invalid_argument("serve: job " +
                                        std::to_string(spec.id) +
                                        " has no workloads");
        for (const JsonValue &w : wl->array()) {
            if (!w.isString())
                throw std::invalid_argument("serve: non-string "
                                            "workload name");
            spec.workloads.push_back(w.str());
        }
        const JsonValue *opts = j.find("options");
        if (!opts)
            throw std::invalid_argument("serve: job " +
                                        std::to_string(spec.id) +
                                        " has no options");
        spec.options = parseCanonicalOptions(*opts);
        spec.options.collect_stats_json =
            j.numberOr("stats", 0) != 0;

        if (const JsonValue *faults = j.find("faults")) {
            if (!faults->isArray())
                throw std::invalid_argument("serve: faults is not an "
                                            "array");
            for (const JsonValue &fv : faults->array()) {
                FaultRecord f{};
                f.kind = parseFaultKind(fv.strOr("kind", ""));
                f.when = u64Member(fv, "when");
                f.core = static_cast<CoreId>(u64Member(fv, "core"));
                f.tid = static_cast<ThreadId>(u64Member(fv, "tid"));
                f.reg = static_cast<RegIndex>(u64Member(fv, "reg"));
                f.bit = static_cast<unsigned>(u64Member(fv, "bit"));
                f.fuIndex = static_cast<unsigned>(u64Member(fv, "fu"));
                f.mask = u64Member(fv, "mask");
                f.pairLogical =
                    static_cast<LogicalId>(u64Member(fv, "pair"));
                spec.faults.push_back(f);
            }
        }
        campaign.jobs.push_back(std::move(spec));
    }
    return campaign;
}

#if defined(__unix__) || defined(__APPLE__)

bool
sendFrame(int fd, char tag, const std::string &body)
{
    std::string payload;
    payload.reserve(1 + body.size());
    payload.push_back(tag);
    payload += body;
    const std::string framed = wire::frame(payload);
    return wire::writeAll(fd, framed.data(), framed.size());
}

bool
FrameReader::next(std::string &payload, const std::function<bool()> &stop)
{
    for (;;) {
        if (dec.next(payload))
            return true;
        if (stop) {
            pollfd p{fd, POLLIN, 0};
            const int ready = ::poll(&p, 1, 100);
            if (ready < 0 && errno != EINTR)
                throw wire::WireError(std::string("serve: poll failed: ") +
                                      std::strerror(errno));
            if (ready <= 0) {
                if (stop())
                    return false;
                continue;
            }
        }
        char buf[4096];
        const long n = wire::readSome(fd, buf, sizeof(buf));
        if (n < 0)
            throw wire::WireError(std::string("serve: read failed: ") +
                                  std::strerror(errno));
        if (n == 0) {
            if (dec.truncated())
                throw wire::WireError("serve: connection closed "
                                      "mid-frame");
            return false;
        }
        dec.feed(buf, static_cast<std::size_t>(n));
    }
}

namespace
{

bool
fillSockaddr(const std::string &path, sockaddr_un &addr,
             std::string &error)
{
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "socket path '" + path + "' is too long (max " +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes)";
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

int
connectUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, addr, error))
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = "cannot connect to '" + path + "': " +
                std::strerror(errno) + " (is rmtsimd running?)";
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillSockaddr(path, addr, error))
        return -1;

    // A leftover socket file from a killed daemon would make bind()
    // fail forever; probe it and only reclaim the path when nothing
    // answers.
    {
        std::string probe_error;
        const int probe = connectUnix(path, probe_error);
        if (probe >= 0) {
            ::close(probe);
            error = "'" + path + "' is already being served";
            return -1;
        }
        ::unlink(path.c_str());
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = "cannot bind '" + path + "': " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        error = "cannot listen on '" + path + "': " +
                std::strerror(errno);
        ::close(fd);
        ::unlink(path.c_str());
        return -1;
    }
    return fd;
}

#endif // POSIX

} // namespace serve
} // namespace rmt
