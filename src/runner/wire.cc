#include "runner/wire.hh"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <unistd.h>
#endif

namespace rmt
{
namespace wire
{

namespace
{

// Little-endian byte writer/reader.  Explicit byte assembly (rather
// than memcpy of host integers) keeps the format host-independent;
// doubles travel as their IEEE-754 bit pattern.

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putF64(std::string &out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

void
putStr(std::string &out, const std::string &s)
{
    if (s.size() > maxPayloadBytes)
        throw WireError("wire: string field exceeds payload cap");
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

class Reader
{
  public:
    explicit Reader(const std::string &buf) : buf(buf) {}

    std::uint8_t u8()
    {
        need(1);
        return static_cast<std::uint8_t>(buf[pos++]);
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(std::uint8_t(buf[pos + i])) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(std::uint8_t(buf[pos + i])) << (8 * i);
        pos += 8;
        return v;
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        const std::uint32_t len = u32();
        need(len);
        std::string s = buf.substr(pos, len);
        pos += len;
        return s;
    }

    bool atEnd() const { return pos == buf.size(); }

  private:
    void need(std::size_t n) const
    {
        if (buf.size() - pos < n)
            throw WireError("wire: payload truncated inside a field");
    }

    const std::string &buf;
    std::size_t pos = 0;
};

} // namespace

std::string
encodeJobResult(const JobResult &r)
{
    std::string out;
    out.reserve(256 + r.run.stats_json.size());

    putU8(out, codecVersion);
    putU64(out, r.id);
    putStr(out, r.label);
    putU8(out, static_cast<std::uint8_t>(r.status));
    putStr(out, r.error);
    putU32(out, r.attempts);
    putU8(out, r.timed_out ? 1 : 0);
    putU8(out, r.quarantined ? 1 : 0);
    putF64(out, r.wall_seconds);

    const RunResult &run = r.run;
    putU32(out, static_cast<std::uint32_t>(run.threads.size()));
    for (const ThreadResult &t : run.threads) {
        putStr(out, t.workload);
        putF64(out, t.ipc);
        putU64(out, t.committed);
        putU64(out, t.cycles);
    }
    putU64(out, run.total_cycles);
    putU8(out, run.completed ? 1 : 0);
    putU8(out, static_cast<std::uint8_t>(run.outcome));
    putU64(out, run.detections);
    putU64(out, run.recoveries);
    putU64(out, run.fu_pairs);
    putU64(out, run.fu_same_unit);
    putU64(out, run.store_comparisons);
    putU64(out, run.store_mismatches);
    putU64(out, run.sq_full_stalls);
    putU64(out, run.lvq_full_stalls);
    putU64(out, run.branch_mispredicts);
    putU64(out, run.line_mispredicts);
    putF64(out, run.avg_leading_store_lifetime);
    putF64(out, run.host.build_seconds);
    putF64(out, run.host.warmup_seconds);
    putF64(out, run.host.measure_seconds);
    putF64(out, run.host.sim_kips);
    putStr(out, run.stats_json);

    putF64(out, r.mean_efficiency);
    putU32(out, static_cast<std::uint32_t>(r.efficiencies.size()));
    for (const double e : r.efficiencies)
        putF64(out, e);

    putU32(out, static_cast<std::uint32_t>(r.extra.size()));
    for (const auto &[key, value] : r.extra) {
        putStr(out, key);
        putF64(out, value);
    }

    putU8(out, r.has_verdict ? 1 : 0);
    putU8(out, static_cast<std::uint8_t>(r.verdict));
    putF64(out, r.detection_latency);
    return out;
}

JobResult
decodeJobResult(const std::string &payload)
{
    Reader in(payload);

    const std::uint8_t version = in.u8();
    if (version != codecVersion)
        throw WireError("wire: unknown codec version " +
                        std::to_string(version));

    JobResult r;
    r.id = in.u64();
    r.label = in.str();
    r.status = static_cast<JobStatus>(in.u8());
    r.error = in.str();
    r.attempts = in.u32();
    r.timed_out = in.u8() != 0;
    r.quarantined = in.u8() != 0;
    r.wall_seconds = in.f64();

    RunResult &run = r.run;
    const std::uint32_t threads = in.u32();
    run.threads.resize(threads);
    for (ThreadResult &t : run.threads) {
        t.workload = in.str();
        t.ipc = in.f64();
        t.committed = in.u64();
        t.cycles = in.u64();
    }
    run.total_cycles = in.u64();
    run.completed = in.u8() != 0;
    run.outcome = static_cast<Outcome>(in.u8());
    run.detections = in.u64();
    run.recoveries = in.u64();
    run.fu_pairs = in.u64();
    run.fu_same_unit = in.u64();
    run.store_comparisons = in.u64();
    run.store_mismatches = in.u64();
    run.sq_full_stalls = in.u64();
    run.lvq_full_stalls = in.u64();
    run.branch_mispredicts = in.u64();
    run.line_mispredicts = in.u64();
    run.avg_leading_store_lifetime = in.f64();
    run.host.build_seconds = in.f64();
    run.host.warmup_seconds = in.f64();
    run.host.measure_seconds = in.f64();
    run.host.sim_kips = in.f64();
    run.stats_json = in.str();

    r.mean_efficiency = in.f64();
    const std::uint32_t effs = in.u32();
    r.efficiencies.resize(effs);
    for (double &e : r.efficiencies)
        e = in.f64();

    const std::uint32_t extras = in.u32();
    r.extra.resize(extras);
    for (auto &[key, value] : r.extra) {
        key = in.str();
        value = in.f64();
    }

    r.has_verdict = in.u8() != 0;
    r.verdict = static_cast<FaultVerdict>(in.u8());
    r.detection_latency = in.f64();

    if (!in.atEnd())
        throw WireError("wire: trailing bytes after the record");
    return r;
}

std::string
frame(const std::string &payload)
{
    if (payload.size() > maxPayloadBytes)
        throw WireError("wire: payload exceeds the frame cap");
    std::string out;
    out.reserve(8 + payload.size());
    putU32(out, frameMagic);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
    return out;
}

bool
FrameDecoder::next(std::string &payload)
{
    if (buf.size() < 8)
        return false;
    Reader in(buf);
    const std::uint32_t magic = in.u32();
    if (magic != frameMagic)
        throw WireError("wire: bad frame magic (garbage before the "
                        "record?)");
    const std::uint32_t len = in.u32();
    if (len > maxPayloadBytes)
        throw WireError("wire: frame length " + std::to_string(len) +
                        " exceeds the payload cap");
    if (buf.size() < 8 + std::size_t{len})
        return false;
    payload = buf.substr(8, len);
    buf.erase(0, 8 + std::size_t{len});
    return true;
}

#if defined(__unix__) || defined(__APPLE__)

bool
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

long
readSome(int fd, void *buf, std::size_t len)
{
    for (;;) {
        const ssize_t n = ::read(fd, buf, len);
        if (n >= 0)
            return static_cast<long>(n);
        if (errno != EINTR)
            return -1;
    }
}

#endif // POSIX

} // namespace wire
} // namespace rmt
