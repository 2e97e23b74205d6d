#include "runner/result_sink.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/fingerprint.hh"
#include "runner/campaign.hh"

namespace rmt
{

namespace
{

// jsonEscape comes from common/json.hh, as does the round-trip
// double format used everywhere in this file.
std::string
num(double v)
{
    return jsonNum(v);
}

/**
 * Remove the wall-clock "host" member from an embedded stats blob.
 * The blob is built inside the run, where the sink's include_timing
 * choice is unknown; suppressing it here keeps --no-timing output
 * byte-identical across runs and across -j levels.  The member is a
 * flat object, so scanning to the next '}' is sufficient.
 */
std::string
stripHostMember(std::string stats)
{
    const auto pos = stats.find(",\"host\":{");
    if (pos == std::string::npos)
        return stats;
    const auto end = stats.find('}', pos);
    if (end == std::string::npos)
        return stats;
    stats.erase(pos, end - pos + 1);
    return stats;
}

} // namespace

std::string
optionsFingerprint(const SimOptions &o)
{
    return fingerprintHex(optionsFingerprintU64(o));
}

std::string
resultJson(const JobSpec &spec, const JobResult &r, bool include_timing)
{
    std::ostringstream os;
    os << "{\"id\":" << spec.id
       << ",\"label\":\"" << jsonEscape(spec.label) << "\""
       << ",\"seed\":" << spec.seed
       << ",\"workloads\":[";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << jsonEscape(spec.workloads[i]) << "\"";
    }
    // The sim layer owns the canonical form: snapshots, baseline
    // caches and the fingerprint key on the same pre-image.
    os << "]"
       << ",\"options\":" << optionsCanonicalJson(spec.options)
       << ",\"fingerprint\":\"" << optionsFingerprint(spec.options) << "\""
       << ",\"status\":\"" << (r.ok() ? "ok" : "failed") << "\""
       << ",\"attempts\":" << r.attempts;
    if (!spec.faults.empty()) {
        os << ",\"faults\":[";
        for (std::size_t i = 0; i < spec.faults.size(); ++i) {
            const FaultRecord &f = spec.faults[i];
            if (i)
                os << ",";
            os << "{\"kind\":\"" << faultKindName(f.kind) << "\""
               << ",\"when\":" << f.when
               << ",\"core\":" << unsigned(f.core)
               << ",\"tid\":" << unsigned(f.tid)
               << ",\"reg\":" << unsigned(f.reg)
               << ",\"bit\":" << f.bit
               << ",\"fu\":" << f.fuIndex
               << ",\"pair\":" << unsigned(f.pairLogical) << "}";
        }
        os << "]";
    }
    if (!r.ok()) {
        os << ",\"error\":\"" << jsonEscape(r.error) << "\"";
    }
    if (include_timing) {
        os << ",\"wall_ms\":" << num(r.wall_seconds * 1e3);
        if (r.ok())
            os << ",\"host\":" << r.run.host.json();
    }
    if (r.ok()) {
        const RunResult &run = r.run;
        os << ",\"completed\":" << (run.completed ? "true" : "false")
           << ",\"outcome\":\"" << outcomeName(run.outcome) << "\""
           << ",\"total_cycles\":" << run.total_cycles
           << ",\"threads\":[";
        for (std::size_t i = 0; i < run.threads.size(); ++i) {
            const ThreadResult &t = run.threads[i];
            if (i)
                os << ",";
            os << "{\"workload\":\"" << jsonEscape(t.workload) << "\""
               << ",\"ipc\":" << num(t.ipc)
               << ",\"committed\":" << t.committed
               << ",\"cycles\":" << t.cycles << "}";
        }
        os << "]"
           << ",\"detections\":" << run.detections
           << ",\"recoveries\":" << run.recoveries
           << ",\"store_comparisons\":" << run.store_comparisons
           << ",\"store_mismatches\":" << run.store_mismatches
           << ",\"fu_pairs\":" << run.fu_pairs
           << ",\"fu_same_unit\":" << run.fu_same_unit
           << ",\"sq_full_stalls\":" << run.sq_full_stalls
           << ",\"lvq_full_stalls\":" << run.lvq_full_stalls
           << ",\"branch_mispredicts\":" << run.branch_mispredicts
           << ",\"line_mispredicts\":" << run.line_mispredicts
           << ",\"avg_leading_store_lifetime\":"
           << num(run.avg_leading_store_lifetime);
        if (r.has_verdict) {
            os << ",\"verdict\":\"" << verdictName(r.verdict) << "\"";
            if (r.detection_latency >= 0) {
                os << ",\"detection_latency\":"
                   << num(r.detection_latency);
            }
        }
        if (r.mean_efficiency >= 0) {
            os << ",\"mean_efficiency\":" << num(r.mean_efficiency)
               << ",\"efficiencies\":[";
            for (std::size_t i = 0; i < r.efficiencies.size(); ++i) {
                if (i)
                    os << ",";
                os << num(r.efficiencies[i]);
            }
            os << "]";
        }
        if (!run.stats_json.empty()) {
            os << ",\"stats\":"
               << (include_timing ? run.stats_json
                                  : stripHostMember(run.stats_json));
        }
    }
    if (!r.extra.empty()) {
        os << ",\"extra\":{";
        for (std::size_t i = 0; i < r.extra.size(); ++i) {
            if (i)
                os << ",";
            os << "\"" << jsonEscape(r.extra[i].first)
               << "\":" << num(r.extra[i].second);
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

JsonlSink::JsonlSink(std::ostream &out, Options options)
    : out(out), opts(options), started(std::chrono::steady_clock::now())
{
}

void
JsonlSink::begin(const Campaign &campaign)
{
    std::lock_guard<std::mutex> lock(mu);
    total = campaign.jobs.size();
    done = 0;
    failed = 0;
    next_id = 0;
    started = std::chrono::steady_clock::now();
}

void
JsonlSink::record(const JobSpec &spec, const JobResult &result)
{
    const std::string line =
        resultJson(spec, result, opts.include_timing);

    std::lock_guard<std::mutex> lock(mu);
    ++done;
    if (!result.ok())
        ++failed;
    if (opts.ordered) {
        pending.emplace(spec.id, line);
        if (flushReady())
            out.flush();
    } else {
        out << line << "\n";
        out.flush();
    }
    if (opts.progress) {
        // Heartbeat: jobs done/total, elapsed wall time, and a naive
        // remaining-time estimate from the mean pace so far.
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();
        char eta[32] = "";
        // Both guards matter: done == 0 would divide by zero, and a
        // first record landing within the clock tick (elapsed == 0)
        // would project a meaningless zero ETA.
        if (done > 0 && done < total && elapsed > 0) {
            std::snprintf(eta, sizeof(eta), " eta %.0fs",
                          elapsed / done * (total - done));
        }
        char count[48];
        if (total) {
            std::snprintf(count, sizeof(count),
                          "[%" PRIu64 "/%" PRIu64 "]", done, total);
        } else {
            // Adaptive campaigns (--stratify) have no fixed job count.
            std::snprintf(count, sizeof(count), "[%" PRIu64 "]", done);
        }
        std::fprintf(stderr, "\r%s %s%s (%.0f ms) %.1fs%s%s", count,
                     result.ok() ? "" : "FAILED ", spec.label.c_str(),
                     result.wall_seconds * 1e3, elapsed, eta,
                     done == total ? "\n" : "");
        std::fflush(stderr);
    }
}

bool
JsonlSink::flushReady()
{
    const std::uint64_t first = next_id;
    for (auto it = pending.begin();
         it != pending.end() && it->first == next_id;
         it = pending.erase(it), ++next_id) {
        out << it->second << "\n";
    }
    return next_id != first;
}

void
JsonlSink::end()
{
    std::lock_guard<std::mutex> lock(mu);
    // Failed-and-skipped ids would wedge the ordered buffer; drain
    // whatever is left in id order.
    for (auto &[id, line] : pending)
        out << line << "\n";
    pending.clear();
    out.flush();

#if defined(__unix__) || defined(__APPLE__)
    if (!opts.fsync_path.empty()) {
        const int fd = ::open(opts.fsync_path.c_str(), O_WRONLY);
        if (fd >= 0) {
            ::fsync(fd);
            ::close(fd);
        }
    }
#endif
}

} // namespace rmt
