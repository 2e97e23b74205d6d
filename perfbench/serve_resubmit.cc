/**
 * @file
 * Workload `serve-resubmit`: rmtsimd -j nproc on a fresh result store
 * and one closed-loop client submitting through
 * serve::runRemoteCampaign.  Each round runs three passes of one plain
 * campaign: cold (every key a miss, so the daemon simulates and
 * appends), warm (the same campaign again, every key a hit), and mixed
 * (half old keys, half new seeds, so store reads and writes
 * interleave).  The daemon is then restarted on the populated store and
 * must serve the campaign again from disk; that pass is a check and its
 * daemon start is set-up, so it stays out of the rows-per-second
 * figures.  This is the only workload that exercises the serve layer
 * and parallel plain-job simulation.
 *
 * Traced: after every round the store the daemon wrote is reopened
 * in-process and its keys replayed through ResultStore, timing each
 * call, beside the same replay timed only as a whole.
 */

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/json.hh"
#include "runner/campaign.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"

namespace rmtbench
{

namespace
{

const std::vector<std::string> kPrograms = {"gcc", "swim", "compress", "go"};
const std::vector<std::string> kStoreQueues = {"32", "48", "64", "96"};
constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kMeasure = 10000;

rmt::Campaign
coldCampaign(std::uint64_t seed)
{
    rmt::SimOptions base;
    base.warmup_insts = kWarmup;
    base.measure_insts = kMeasure;
    std::vector<std::vector<std::string>> mixes;
    for (const std::string &p : kPrograms)
        mixes.push_back({p});
    rmt::CampaignBuilder builder("serve", seed);
    builder.base(base)
        .modes({rmt::SimMode::Base, rmt::SimMode::Srt, rmt::SimMode::Crt})
        .mixes(mixes)
        .sweep("storeq", kStoreQueues);
    return builder.build();
}

/** The cold campaign with every odd job under a new seed: half of the
 *  keys are stored, half are new but simulate the same machine. */
rmt::Campaign
mixedCampaign(const rmt::Campaign &cold)
{
    rmt::Campaign mixed = cold;
    for (rmt::JobSpec &job : mixed.jobs) {
        if (job.id % 2)
            job.seed ^= 0x9e3779b97f4a7c15ULL;
    }
    return mixed;
}

/** @p row with its "seed" field replaced by @p seed. */
std::string
withSeed(const std::string &row, std::uint64_t seed)
{
    const std::string tag = ",\"seed\":";
    const std::size_t at = row.find(tag);
    if (at == std::string::npos)
        return row;
    const std::size_t from = at + tag.size();
    const std::size_t to = row.find(',', from);
    if (to == std::string::npos)
        return row;
    return row.substr(0, from) + std::to_string(seed) + row.substr(to);
}

struct Pass
{
    double seconds = 0;
    rmt::serve::RemoteCampaignResult result;
    std::vector<std::string> rows;
};

Pass
submit(const std::string &sock, const rmt::Campaign &campaign)
{
    Pass p;
    std::ostringstream out;
    const Clock::time_point t0 = Clock::now();
    p.result = rmt::serve::runRemoteCampaign(sock, campaign, false, out);
    p.seconds = secondsSince(t0);
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line))
        p.rows.push_back(line);
    return p;
}

/** A running rmtsimd; ready_s is spawn until it serves its socket. */
struct Daemon
{
    std::unique_ptr<Child> child;
    double ready_s = 0;

    Daemon(const Args &args, const std::string &sock,
           const std::string &store)
    {
        std::filesystem::remove(sock);
        child = std::make_unique<Child>(
            std::vector<std::string>{args.daemon_bin, "--socket", sock,
                                     "--store", store, "-j",
                                     std::to_string(args.jobs)},
            true);
        std::string line;
        while (child->readErrLine(line, 60)) {
            if (line.find("serving on") != std::string::npos) {
                ready_s = secondsSince(child->started());
                return;
            }
        }
        throw std::runtime_error("rmtsimd exited before serving");
    }

    /** Drain and reap; returns the exit code. */
    int stop(const std::string &sock, double &peak_rss_mb)
    {
        rmt::serve::controlRequest(sock, "{\"type\":\"stop\"}");
        // Drain what the daemon still prints so it never blocks on a
        // full stderr pipe while exiting.
        std::string line;
        while (child->readErrLine(line, 60)) {
        }
        return child->wait(peak_rss_mb);
    }
};

/**
 * Check one pass: its row and hit counts, every row carrying its job's
 * seed, and, given the cold rows, every row byte-identical to the cold
 * row of the same job apart from the seed (the mixed pass's new seeds
 * simulate the same machine).  Without cold rows every row must be ok.
 */
void
checkPass(const Pass &p, const std::vector<std::string> *cold,
          const rmt::Campaign &campaign, std::uint64_t hits,
          const std::string &what, Report &report)
{
    const std::uint64_t n = campaign.jobs.size();
    report.attempted += n;
    report.check(p.result.rows == n && p.rows.size() == n &&
                     p.result.hits == hits && p.result.misses == n - hits &&
                     p.result.failed == 0,
                 what + ": " + std::to_string(p.result.rows) + " rows, " +
                     std::to_string(p.result.hits) + " hits, " +
                     std::to_string(p.result.misses) + " misses, " +
                     std::to_string(p.result.failed) + " failed; expected " +
                     std::to_string(n) + " rows and " +
                     std::to_string(hits) + " hits");
    for (std::size_t i = 0; i < std::min<std::size_t>(p.rows.size(), n);
         ++i) {
        const std::string &row = p.rows[i];
        const std::uint64_t seed = campaign.jobs[i].seed;
        const bool same =
            cold ? i < cold->size() &&
                       withSeed(row, seed) == withSeed((*cold)[i], seed)
                 : row.find("\"status\":\"ok\"") != std::string::npos;
        report.check(same &&
                         row.find(",\"seed\":" + std::to_string(seed) +
                                  ",") != std::string::npos,
                     what + ": row " + std::to_string(i) +
                         (cold ? " differs from the cold pass"
                               : " failed or lost its seed"));
    }
}

struct Round
{
    double fresh_ready_s = 0;   ///< daemon on a fresh store
    double restart_ready_s = 0; ///< daemon on the populated store
    double peak_rss_mb = 0;
    Pass cold, warm, mixed, restarted;
};

Round
runRound(const Args &args, const std::string &store,
         const rmt::Campaign &cold, const rmt::Campaign &mixed,
         Report &report)
{
    const std::string sock = args.run_dir + "/rmtsimd.sock";
    std::filesystem::remove_all(store);
    Round c;
    {
        Daemon d(args, sock, store);
        c.fresh_ready_s = d.ready_s;
        c.cold = submit(sock, cold);
        checkPass(c.cold, nullptr, cold, 0, "cold pass", report);
        c.warm = submit(sock, cold);
        checkPass(c.warm, &c.cold.rows, cold, cold.jobs.size(), "warm pass",
                  report);
        c.mixed = submit(sock, mixed);
        checkPass(c.mixed, &c.cold.rows, mixed, (mixed.jobs.size() + 1) / 2,
                  "mixed pass", report);
        report.check(d.stop(sock, c.peak_rss_mb) == 0,
                     "rmtsimd did not drain cleanly");
    }
    {
        Daemon d(args, sock, store);
        c.restart_ready_s = d.ready_s;
        c.restarted = submit(sock, cold);
        checkPass(c.restarted, &c.cold.rows, cold, cold.jobs.size(),
                  "pass after restart", report);
        double rss = 0;
        report.check(d.stop(sock, rss) == 0,
                     "restarted rmtsimd did not drain cleanly");
        c.peak_rss_mb = std::max(c.peak_rss_mb, rss);
    }
    return c;
}

/** Replay timings of the serve layer, per call. */
struct Replay
{
    double open_ms = 0;
    double key_us = 0;
    double claim_us = 0;
    double publish_us = 0;
    double overhead = 0;
};

Replay
replayStore(const std::string &store, const std::string &scratch,
            const rmt::Campaign &cold, Report &report)
{
    Replay r;
    const double n = static_cast<double>(cold.jobs.size());

    // The same keys and claims, timed only as a whole: the untraced
    // cost the per-call timers are compared against.
    double untraced = 0;
    {
        rmt::ResultStore s;
        s.open(store);
        rmt::JobResult out;
        const Clock::time_point t0 = Clock::now();
        for (const rmt::JobSpec &spec : cold.jobs)
            s.tryClaim(rmt::resultKeyU64(spec), out);
        untraced = secondsSince(t0);
    }

    rmt::ResultStore s;
    const Clock::time_point o0 = Clock::now();
    s.open(store);
    r.open_ms = 1e3 * secondsSince(o0);

    std::vector<std::uint64_t> keys;
    std::vector<rmt::JobResult> results(cold.jobs.size());
    double key_s = 0, claim_s = 0;
    for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t key = rmt::resultKeyU64(cold.jobs[i]);
        const Clock::time_point t1 = Clock::now();
        const rmt::ResultStore::Claim claim = s.tryClaim(key, results[i]);
        const Clock::time_point t2 = Clock::now();
        key_s += secondsBetween(t0, t1);
        claim_s += secondsBetween(t1, t2);
        keys.push_back(key);
        ++report.attempted;
        report.check(claim == rmt::ResultStore::Claim::Hit,
                     "replay: stored key " + std::to_string(i) + " missed");
    }
    r.key_us = 1e6 * key_s / n;
    r.claim_us = 1e6 * claim_s / n;
    r.overhead = (key_s + claim_s) / untraced - 1.0;

    // Append every result to a fresh store: publish plus its batched
    // fsyncs, and the final flush.
    std::filesystem::remove_all(scratch);
    {
        rmt::ResultStore p;
        p.open(scratch);
        double publish_s = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            rmt::JobResult ignored;
            if (!report.check(p.tryClaim(keys[i], ignored) ==
                                  rmt::ResultStore::Claim::Owner,
                              "replay: fresh store already had a key"))
                continue;
            const Clock::time_point t0 = Clock::now();
            p.publish(keys[i], rmt::modeName(cold.jobs[i].options.mode),
                      results[i]);
            publish_s += secondsSince(t0);
        }
        const Clock::time_point f0 = Clock::now();
        p.flush();
        publish_s += secondsSince(f0);
        r.publish_us = 1e6 * publish_s / n;
    }
    std::filesystem::remove_all(scratch);
    return r;
}

} // namespace

void
runServeResubmit(const Args &args, Report &report)
{
    const rmt::Campaign cold = coldCampaign(args.seed);
    const rmt::Campaign mixed = mixedCampaign(cold);
    const std::string store = args.run_dir + "/store";

    const Clock::time_point start = Clock::now();
    std::vector<Round> rounds;
    std::vector<Replay> replays;
    do {
        rounds.push_back(runRound(args, store, cold, mixed, report));
        if (rounds.size() > 1)
            report.check(rounds.back().cold.rows == rounds.front().cold.rows,
                         "cold rows differ between repeated rounds");
        if (args.trace)
            replays.push_back(replayStore(store, args.run_dir + "/replay",
                                          cold, report));
    } while (secondsSince(start) < args.seconds);
    std::filesystem::remove_all(store);
    report.repeats = rounds.size();

    const Round &first = rounds.front();
    // Instructions the daemon simulates per round: every cold job, and
    // the mixed pass's new-seed (odd) jobs, which rerun the same machines.
    std::uint64_t sim_cycles = 0, committed = 0, simulated = 0;
    for (std::size_t i = 0; i < first.cold.rows.size(); ++i) {
        rmt::JsonValue v;
        if (!rmt::parseJson(first.cold.rows[i], v))
            continue;
        sim_cycles +=
            static_cast<std::uint64_t>(v.numberOr("total_cycles", 0));
        std::uint64_t row_committed = 0;
        if (const rmt::JsonValue *threads = v.find("threads")) {
            for (const rmt::JsonValue &t : threads->array())
                row_committed +=
                    static_cast<std::uint64_t>(t.numberOr("committed", 0));
        }
        committed += row_committed;
        simulated += row_committed * (mixed.jobs[i].id % 2 ? 2 : 1);
    }
    auto &cn = report.counters;
    cn["serve.rows"] = cold.jobs.size();
    cn["serve.hits.cold"] = first.cold.result.hits;
    cn["serve.hits.warm"] = first.warm.result.hits;
    cn["serve.hits.mixed"] = first.mixed.result.hits;
    cn["serve.hits.restart"] = first.restarted.result.hits;
    cn["sim.cycles"] = sim_cycles;
    cn["sim.committed"] = committed;

    // Best of the run's rounds, pass by pass: every pass of one kind
    // does the same work in every round.
    std::vector<double> fresh, restart, cold_s, warm_s, mixed_s;
    double rss = 0;
    for (const Round &c : rounds) {
        fresh.push_back(c.fresh_ready_s);
        restart.push_back(c.restart_ready_s);
        cold_s.push_back(c.cold.seconds);
        warm_s.push_back(c.warm.seconds);
        mixed_s.push_back(c.mixed.seconds);
        rss = std::max(rss, c.peak_rss_mb);
    }
    const double n = static_cast<double>(cold.jobs.size());
    report.breakdown["cold_rows_per_s"] = n / best(cold_s);
    report.breakdown["warm_rows_per_s"] = n / best(warm_s);
    report.breakdown["mixed_rows_per_s"] = n / best(mixed_s);

    if (!args.trace) {
        report.metrics["setup_s"] = best(fresh) + best(restart);
        report.metrics["units_per_s"] =
            3 * n / (best(cold_s) + best(warm_s) + best(mixed_s));
        report.metrics["sim_kips"] = static_cast<double>(simulated) /
                                     (best(cold_s) + best(mixed_s)) / 1000.0;
        report.metrics["peak_rss_mb"] = rss;
        return;
    }

    auto &pm = report.metrics;
    pm["serve.hit_frac.cold"] = first.cold.result.hits / n;
    pm["serve.hit_frac.warm"] = first.warm.result.hits / n;
    pm["serve.hit_frac.mixed"] = first.mixed.result.hits / n;
    pm["sim.cycles"] = static_cast<double>(sim_cycles);
    pm["sim.committed"] = static_cast<double>(committed);

    auto medianOf = [&replays](double Replay::*field) {
        std::vector<double> v;
        for (const Replay &r : replays)
            v.push_back(r.*field);
        return median(v);
    };
    pm["serve.store_open_ms"] = medianOf(&Replay::open_ms);
    pm["serve.result_key_us"] = medianOf(&Replay::key_us);
    pm["serve.claim_hit_us"] = medianOf(&Replay::claim_us);
    pm["serve.publish_us"] = medianOf(&Replay::publish_us);
    pm["bench.trace_overhead_frac"] = medianOf(&Replay::overhead);
}

} // namespace rmtbench
