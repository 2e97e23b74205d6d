#include "serve/result_store.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "ckpt/serializer.hh"
#include "common/bits.hh"
#include "common/fingerprint.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "runner/runner.hh"
#include "runner/wire.hh"
#include "sim/simulator.hh"

#if defined(__unix__) || defined(__APPLE__)
#define RMT_STORE_POSIX 1
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace rmt
{

namespace
{

constexpr char kStoreMagic[8] = {'R', 'M', 'T', 'R', 'E', 'S', '\0', '\0'};

/** Frame magic "RMTS", little-endian. */
constexpr std::uint32_t kFrameMagic = 0x53544D52u;

constexpr std::size_t kHeaderBytes = sizeof(kStoreMagic) + 4;

std::string
storePath(const std::string &dir)
{
    return dir + "/store.rmtrs";
}

std::string
storeHeader()
{
    std::string header(kStoreMagic, sizeof(kStoreMagic));
    putLe(header, resultStoreVersion);
    return header;
}

/** Frame payload: u8 mode length | mode | wire-encoded JobResult. */
std::string
encodePayload(const std::string &mode, const JobResult &result)
{
    std::string payload;
    payload.push_back(static_cast<char>(mode.size() & 0xff));
    payload.append(mode.data(), std::min<std::size_t>(mode.size(), 255));
    payload += wire::encodeJobResult(result);
    return payload;
}

bool
decodePayload(const std::string &payload, std::string &mode,
              JobResult &result)
{
    if (payload.empty())
        return false;
    const std::size_t mode_len =
        static_cast<std::uint8_t>(payload[0]);
    if (payload.size() < 1 + mode_len)
        return false;
    mode = payload.substr(1, mode_len);
    try {
        result = wire::decodeJobResult(payload.substr(1 + mode_len));
    } catch (const wire::WireError &) {
        return false;
    }
    return true;
}

} // namespace

std::uint64_t
resultKeyU64(const JobSpec &spec)
{
    return resultKeyU64(spec, RunnerConfig{});
}

std::uint64_t
resultKeyU64(const JobSpec &spec, const RunnerConfig &config)
{
    const SimOptions &o = spec.options;
    std::uint64_t h = fnv1a64Seed;
    fnv1a64Field(h, optionsCanonicalJson(o));
    // collect_stats_json changes the record payload (the embedded
    // stats tree) but not the canonical timing pre-image; key it
    // separately so stats and no-stats rows never alias.
    fnv1a64Field(h, o.collect_stats_json ? "stats" : "");
    for (const std::string &w : spec.workloads)
        fnv1a64Field(h, w);
    fnv1a64Field(h, std::to_string(spec.seed));
    for (const FaultRecord &f : spec.faults) {
        std::ostringstream os;
        os << faultKindName(f.kind) << ',' << f.when << ','
           << unsigned(f.core) << ',' << unsigned(f.tid) << ','
           << unsigned(f.reg) << ',' << f.bit << ',' << f.fuIndex << ','
           << f.mask << ',' << unsigned(f.pairLogical);
        fnv1a64Field(h, os.str());
    }
    // Without recovery a faulted run stops at its first detection
    // (Simulation::run); rows stored before that rule ran on past it.
    if (!spec.faults.empty() && !o.recovery)
        fnv1a64Field(h, "stop-at-detection");
    // Runner features a campaign may turn on.  Each adds a field only
    // when set, so a default config keeps the plain key.
    if (config.baseline)
        fnv1a64Field(h, "efficiency:" + optionsCanonicalJson(
                                            config.baseline->options()));
    if (config.snapshots && o.snapshot_every && !spec.faults.empty())
        fnv1a64Field(h, "snapshot-restore");
    return h;
}

ResultStore::~ResultStore()
{
    try {
        flush();
    } catch (...) {
        // best-effort at teardown
    }
#ifdef RMT_STORE_POSIX
    if (fd >= 0)
        ::close(fd);
#endif
}

void
ResultStore::open(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(mu);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path = storePath(dir);

#ifdef RMT_STORE_POSIX
    // One writer process per store: an advisory lock held until the
    // store closes (the kernel drops it when the process dies).
    fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        throw StoreError("result store: cannot open '" + path +
                         "' for writing");
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        ::close(fd);
        fd = -1;
        throw StoreError("store '" + dir +
                         "' is in use by another process");
    }
    try {
        load(dir);
    } catch (...) {
        ::close(fd);
        fd = -1;
        throw;
    }
#else
    load(dir);
#endif
}

StoreScan
scanStore(const std::string &data, const std::string &dir)
{
    StoreScan scan;
    // A header cut short by a crash during the very first write is an
    // empty store, not a foreign file.
    if (data.size() < kHeaderBytes &&
        storeHeader().compare(0, data.size(), data) == 0)
        return scan;

    const std::string path = storePath(dir);
    if (data.size() < kHeaderBytes ||
        data.compare(0, sizeof(kStoreMagic), kStoreMagic,
                     sizeof(kStoreMagic)) != 0)
        throw StoreError("result store: '" + path +
                         "' is not a result store (bad magic)");
    const std::uint32_t version =
        getLe<std::uint32_t>(data, sizeof(kStoreMagic));
    if (version != resultStoreVersion)
        throw StoreError(
            "result store: '" + path + "' has format version " +
            std::to_string(version) + " (this build reads " +
            std::to_string(resultStoreVersion) + "); delete '" + dir +
            "' to start a fresh store");
    scan.valid_bytes = kHeaderBytes;

    std::size_t at = kHeaderBytes;
    while (at < data.size()) {
        // frame: magic(4) len(4) key(8) payload(len) crc(4), the CRC
        // over key + payload
        if (data.size() - at < 16)
            break;                              // torn header
        const std::uint32_t magic = getLe<std::uint32_t>(data, at);
        const std::uint32_t len = getLe<std::uint32_t>(data, at + 4);
        if (magic != kFrameMagic || len > wire::maxPayloadBytes) {
            scan.damage = "bad frame header at offset " +
                          std::to_string(at) + "; keeping the " +
                          std::to_string(scan.rows.size()) +
                          " rows before it";
            break;
        }
        if (data.size() - at - 16 < std::size_t{len} + 4)
            break;                              // torn payload/crc
        StoredRow row;
        row.key = getLe<std::uint64_t>(data, at + 8);
        const std::uint32_t stored_crc =
            getLe<std::uint32_t>(data, at + 16 + len);
        if (stored_crc != crc32(data.data() + at + 8, 8 + len)) {
            scan.damage = "frame at offset " + std::to_string(at) +
                          " failed its CRC; keeping the rows before it";
            break;
        }
        if (!decodePayload(data.substr(at + 16, len), row.mode,
                           row.result)) {
            scan.damage = "frame at offset " + std::to_string(at) +
                          " does not decode; keeping the rows before it";
            break;
        }
        scan.rows.push_back(std::move(row));
        at += 20 + std::size_t{len};
        scan.valid_bytes = at;
    }
    return scan;
}

void
ResultStore::load(const std::string &dir)
{
    // Load whatever valid prefix exists; the writer truncates a
    // torn/corrupt tail before appending.
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::ostringstream ss;
            ss << in.rdbuf();
            data = ss.str();
        }
    }
    StoreScan scan = scanStore(data, dir);
    if (!scan.damage.empty())
        warn("result store '%s': %s", path.c_str(), scan.damage.c_str());
    for (StoredRow &row : scan.rows) {
        Entry &e = entries[row.key];
        if (!e.ready) {
            e.ready = true;
            e.result = std::move(row.result);
            e.mode = row.mode;
            ++counters.rows;
            ++counters.disk_rows;
            ++counters.mode_rows[row.mode];
        }
    }
    counters.stored_bytes = scan.valid_bytes;

    const std::string header = storeHeader();
#ifdef RMT_STORE_POSIX
    if (!scan.valid_bytes) {
        if (::ftruncate(fd, 0) != 0 ||
            !wire::writeAll(fd, header.data(), header.size()))
            throw StoreError("result store: cannot write the header "
                             "of '" + path + "'");
        counters.stored_bytes = header.size();
    } else if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) !=
                   0 ||
               ::lseek(fd, 0, SEEK_END) < 0) {
        throw StoreError("result store: cannot truncate '" + path +
                         "' to its valid prefix");
    }
#else
    if (!scan.valid_bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(header.data(),
                  static_cast<std::streamsize>(header.size()));
        counters.stored_bytes = header.size();
    }
    fd = 0;     // sentinel: appends go through ofstream::app
#endif
}

ResultStore::Claim
ResultStore::tryClaim(std::uint64_t key, JobResult &out)
{
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] = entries.try_emplace(key);
    if (inserted) {
        ++counters.misses;
        return Claim::Owner;
    }
    if (!it->second.ready)
        return Claim::InFlight;
    ++counters.hits;
    out = it->second.result;
    return Claim::Hit;
}

bool
ResultStore::await(std::uint64_t key, JobResult &out)
{
    std::unique_lock<std::mutex> lock(mu);
    ++counters.inflight_waits;
    for (;;) {
        const auto it = entries.find(key);
        if (it == entries.end())
            return false;       // owner abandoned; caller re-claims
        if (it->second.ready) {
            out = it->second.result;
            return true;
        }
        cv.wait(lock);
    }
}

void
ResultStore::publish(std::uint64_t key, const std::string &mode,
                     const JobResult &result)
{
    std::lock_guard<std::mutex> lock(mu);
    Entry &e = entries[key];
    e.ready = true;
    e.result = result;
    e.mode = mode;
    ++counters.rows;
    ++counters.mode_rows[mode];
    // Only completed work is worth persisting: a failure must unblock
    // waiters (it already has) but never poison a future daemon run.
    if (fd >= 0 && result.ok())
        appendFrame(key, mode, result);
    cv.notify_all();
}

void
ResultStore::abandon(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = entries.find(key);
    if (it != entries.end() && !it->second.ready)
        entries.erase(it);
    cv.notify_all();
}

void
ResultStore::appendFrame(std::uint64_t key, const std::string &mode,
                         const JobResult &result)
{
    const std::string payload = encodePayload(mode, result);
    putLe(buffer, kFrameMagic);
    putLe(buffer, static_cast<std::uint32_t>(payload.size()));
    const std::size_t keyed = buffer.size();
    putLe(buffer, key);
    buffer += payload;
    putLe(buffer, crc32(buffer.data() + keyed, 8 + payload.size()));
    counters.stored_bytes += 20 + payload.size();
    if (++unsynced >= sync_every)
        syncLocked();
}

void
ResultStore::syncLocked()
{
    if (!buffer.empty()) {
#ifdef RMT_STORE_POSIX
        if (!wire::writeAll(fd, buffer.data(), buffer.size()))
            throw StoreError("result store: write to '" + path +
                             "' failed");
        ::fsync(fd);
#else
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write(buffer.data(),
                  static_cast<std::streamsize>(buffer.size()));
#endif
        buffer.clear();
    }
    unsynced = 0;
}

void
ResultStore::flush()
{
    std::lock_guard<std::mutex> lock(mu);
    if (fd >= 0)
        syncLocked();
}

ResultStoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

std::string
ResultStore::statsJson() const
{
    const ResultStoreStats s = stats();
    std::ostringstream os;
    os << "{\"rows\":" << s.rows
       << ",\"disk_rows\":" << s.disk_rows
       << ",\"stored_bytes\":" << s.stored_bytes
       << ",\"hits\":" << s.hits
       << ",\"misses\":" << s.misses
       << ",\"inflight_waits\":" << s.inflight_waits
       << ",\"modes\":{";
    bool first = true;
    for (const auto &[mode, rows] : s.mode_rows) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(mode) << "\":" << rows;
    }
    os << "}}";
    return os.str();
}

} // namespace rmt
