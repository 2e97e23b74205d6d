#include "obs/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace rmt
{

namespace
{

/** One batch record reduced to the fields the report needs. */
struct Job
{
    std::string mode;
    std::string mix;
    std::string cell;       ///< mix + instruction budgets (base match)
    bool ok = false;
    double ipc = 0;         ///< summed per-thread IPC
    double efficiency = -1;
};

/** Stratified campaigns append one "avf_summary" object after the
 *  per-trial records; every table skips it rather than misreading it
 *  as a job (job records never carry either key).  Streams written
 *  by older builds may also end in a schema-tagged failures digest,
 *  which the "schema" test skips so they still read. */
bool
isSummaryRecord(const JsonValue &rec)
{
    return rec.find("avf_summary") != nullptr ||
           rec.find("schema") != nullptr;
}

Job
reduceRecord(const JsonValue &rec)
{
    Job job;
    job.ok = rec.strOr("status", "failed") == "ok";

    const JsonValue *options = rec.find("options");
    if (options)
        job.mode = options->strOr("mode", "?");

    if (const JsonValue *workloads = rec.find("workloads");
        workloads && workloads->isArray()) {
        for (const JsonValue &w : workloads->array()) {
            if (!job.mix.empty())
                job.mix += "+";
            job.mix += w.isString() ? w.str() : "?";
        }
    }
    if (job.mix.empty())
        job.mix = "?";

    job.cell = job.mix;
    if (options) {
        job.cell += "@" +
                    jsonNum(options->numberOr("warmup_insts", 0)) + "+" +
                    jsonNum(options->numberOr("measure_insts", 0));
    }

    if (const JsonValue *threads = rec.find("threads");
        threads && threads->isArray()) {
        for (const JsonValue &t : threads->array())
            job.ipc += t.numberOr("ipc", 0);
    }
    job.efficiency = rec.numberOr("mean_efficiency", -1);
    return job;
}

} // namespace

std::vector<JsonValue>
parseJsonlLines(const std::vector<std::string> &lines,
                unsigned &bad_lines)
{
    std::vector<JsonValue> records;
    bad_lines = 0;
    for (const std::string &line : lines) {
        if (line.find_first_not_of(" \t\r\n") == std::string::npos)
            continue;
        JsonValue value;
        if (parseJson(line, value) && value.isObject())
            records.push_back(std::move(value));
        else
            ++bad_lines;
    }
    return records;
}

CampaignReport
buildReport(const std::vector<JsonValue> &records,
            const ReportOptions &options)
{
    CampaignReport report;
    report.base_mode = options.base_mode;

    std::vector<Job> jobs;
    jobs.reserve(records.size());
    for (const JsonValue &rec : records) {
        if (!isSummaryRecord(rec))
            jobs.push_back(reduceRecord(rec));
    }

    // Baseline IPC per cell: mean over ok base-mode jobs.
    std::map<std::string, std::pair<double, unsigned>> base_cells;
    for (const Job &job : jobs) {
        if (job.ok && job.mode == options.base_mode) {
            auto &[sum, n] = base_cells[job.cell];
            sum += job.ipc;
            ++n;
        }
    }
    auto baseIpc = [&](const std::string &cell, double &out) {
        const auto it = base_cells.find(cell);
        if (it == base_cells.end() || it->second.second == 0)
            return false;
        out = it->second.first / it->second.second;
        return true;
    };

    // Per-mode rows, first-seen order.
    struct ModeAcc
    {
        ReportModeRow row;
        double ipc_sum = 0;
        unsigned ipc_n = 0;
        double eff_sum = 0;
        unsigned eff_n = 0;
        double deg_sum = 0;
    };
    std::vector<ModeAcc> mode_accs;
    auto modeAcc = [&](const std::string &mode) -> ModeAcc & {
        for (ModeAcc &acc : mode_accs) {
            if (acc.row.mode == mode)
                return acc;
        }
        mode_accs.emplace_back();
        mode_accs.back().row.mode = mode;
        return mode_accs.back();
    };

    // Per-(mix, mode) cells, mix-major, first-seen order.
    struct MixAcc
    {
        ReportMixRow row;
        double ipc_sum = 0;
        double deg_sum = 0;
        unsigned deg_n = 0;
    };
    std::vector<MixAcc> mix_accs;
    auto mixAcc = [&](const std::string &mix,
                      const std::string &mode) -> MixAcc & {
        for (MixAcc &acc : mix_accs) {
            if (acc.row.mix == mix && acc.row.mode == mode)
                return acc;
        }
        mix_accs.emplace_back();
        mix_accs.back().row.mix = mix;
        mix_accs.back().row.mode = mode;
        return mix_accs.back();
    };

    for (const Job &job : jobs) {
        ++report.total_jobs;
        ModeAcc &macc = modeAcc(job.mode);
        ++macc.row.jobs;
        if (!job.ok) {
            ++macc.row.failed;
            ++report.failed_jobs;
            continue;
        }
        macc.ipc_sum += job.ipc;
        ++macc.ipc_n;
        if (job.efficiency >= 0) {
            macc.eff_sum += job.efficiency;
            ++macc.eff_n;
        }

        MixAcc &xacc = mixAcc(job.mix, job.mode);
        ++xacc.row.jobs;
        xacc.ipc_sum += job.ipc;

        double base = 0;
        if (baseIpc(job.cell, base) && base > 0) {
            const double deg = 1.0 - job.ipc / base;
            macc.deg_sum += deg;
            ++macc.row.with_base;
            xacc.deg_sum += deg;
            ++xacc.deg_n;
        }
    }

    for (ModeAcc &acc : mode_accs) {
        if (acc.ipc_n)
            acc.row.mean_ipc = acc.ipc_sum / acc.ipc_n;
        if (acc.eff_n)
            acc.row.mean_efficiency = acc.eff_sum / acc.eff_n;
        if (acc.row.with_base)
            acc.row.mean_degradation = acc.deg_sum / acc.row.with_base;
        report.modes.push_back(acc.row);
    }
    // Mix-major: group all modes of one mix together, mixes in
    // first-seen order.
    std::vector<std::string> mix_order;
    for (const MixAcc &acc : mix_accs) {
        bool seen = false;
        for (const std::string &m : mix_order)
            seen = seen || m == acc.row.mix;
        if (!seen)
            mix_order.push_back(acc.row.mix);
    }
    for (const std::string &mix : mix_order) {
        for (MixAcc &acc : mix_accs) {
            if (acc.row.mix != mix)
                continue;
            if (acc.row.jobs)
                acc.row.mean_ipc = acc.ipc_sum / acc.row.jobs;
            if (acc.deg_n) {
                acc.row.mean_degradation = acc.deg_sum / acc.deg_n;
                acc.row.has_base = true;
            }
            report.mixes.push_back(acc.row);
        }
    }
    return report;
}

namespace
{

std::string
degradationCell(bool has_base, const std::string &mode,
                const std::string &base_mode, double degradation)
{
    if (mode == base_mode)
        return "base";
    if (!has_base)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", -degradation * 100);
    return buf;
}

} // namespace

std::string
formatReport(const CampaignReport &report, const ReportOptions &options)
{
    std::string out;
    char line[160];

    std::snprintf(line, sizeof(line), "%-10s %5s %5s %9s %8s %9s\n",
                  "mode", "jobs", "fail", "mean-IPC", "vs-base",
                  "mean-eff");
    out += line;
    for (const ReportModeRow &row : report.modes) {
        std::string eff = "-";
        if (row.mean_efficiency >= 0) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f",
                          row.mean_efficiency);
            eff = buf;
        }
        std::snprintf(
            line, sizeof(line), "%-10s %5u %5u %9.3f %8s %9s\n",
            row.mode.c_str(), row.jobs, row.failed, row.mean_ipc,
            degradationCell(row.with_base > 0, row.mode,
                            report.base_mode, row.mean_degradation)
                .c_str(),
            eff.c_str());
        out += line;
    }

    if (options.per_mix && !report.mixes.empty()) {
        out += "\n";
        std::snprintf(line, sizeof(line), "%-24s %-10s %5s %9s %8s\n",
                      "mix", "mode", "jobs", "mean-IPC", "vs-base");
        out += line;
        for (const ReportMixRow &row : report.mixes) {
            std::snprintf(
                line, sizeof(line), "%-24s %-10s %5u %9.3f %8s\n",
                row.mix.c_str(), row.mode.c_str(), row.jobs,
                row.mean_ipc,
                degradationCell(row.has_base, row.mode,
                                report.base_mode,
                                row.mean_degradation)
                    .c_str());
            out += line;
        }
    }

    std::snprintf(line, sizeof(line),
                  "%u jobs (%u failed), degradation vs mode '%s'\n",
                  report.total_jobs, report.failed_jobs,
                  report.base_mode.c_str());
    out += line;
    return out;
}

CoverageReport
buildCoverageReport(const std::vector<JsonValue> &records,
                    double confidence)
{
    CoverageReport report;
    report.confidence = confidence;
    auto kindRow = [&](const std::string &kind) -> CoverageKindRow & {
        for (CoverageKindRow &row : report.kinds) {
            if (row.kind == kind)
                return row;
        }
        report.kinds.emplace_back();
        report.kinds.back().kind = kind;
        return report.kinds.back();
    };
    auto modeKindRow = [&](const std::string &mode,
                           const std::string &kind)
        -> CoverageModeKindRow & {
        for (CoverageModeKindRow &row : report.mode_kinds) {
            if (row.mode == mode && row.kind == kind)
                return row;
        }
        report.mode_kinds.emplace_back();
        report.mode_kinds.back().mode = mode;
        report.mode_kinds.back().kind = kind;
        return report.mode_kinds.back();
    };

    for (const JsonValue &rec : records) {
        if (isSummaryRecord(rec))
            continue;
        ++report.total_jobs;

        std::string kind = "none";
        if (const JsonValue *faults = rec.find("faults");
            faults && faults->isArray() && !faults->array().empty()) {
            kind = faults->array().front().strOr("kind", "?");
        }
        CoverageKindRow &row = kindRow(kind);

        if (rec.strOr("status", "failed") != "ok") {
            ++row.failed;
            continue;
        }
        const std::string verdict = rec.strOr("verdict", "");
        if (verdict.empty()) {
            ++report.unclassified;
            continue;
        }
        ++row.trials;
        if (verdict == "masked")
            ++row.masked;
        else if (verdict == "detected")
            ++row.detected;
        else if (verdict == "sdc")
            ++row.sdc;
        else if (verdict == "hang")
            ++row.hang;

        std::string mode;
        if (const JsonValue *options = rec.find("options"))
            mode = options->strOr("mode", "");
        if (!mode.empty()) {
            CoverageModeKindRow &mk = modeKindRow(mode, kind);
            ++mk.trials;
            if (verdict == "masked")
                ++mk.masked;
            else if (verdict == "sdc")
                ++mk.sdc;
        }

        const double latency = rec.numberOr("detection_latency", -1);
        if (latency >= 0) {
            row.mean_latency =
                (std::max(row.mean_latency, 0.0) * row.latency_n +
                 latency) /
                (row.latency_n + 1);
            ++row.latency_n;
            unsigned bucket = kCoverageHistogramSize - 1;
            for (unsigned i = 0; i < kCoverageHistogramSize - 1; ++i) {
                if (latency < kCoverageLatencyBuckets[i]) {
                    bucket = i;
                    break;
                }
            }
            ++row.histogram[bucket];
        }
    }

    for (CoverageKindRow &row : report.kinds) {
        const unsigned unmasked = row.trials - row.masked;
        if (unmasked)
            row.detection_rate =
                static_cast<double>(row.detected) / unmasked;
        if (row.trials) {
            StratumCounts counts;
            counts.trials = row.trials;
            counts.masked = row.masked;
            counts.sdc = row.sdc;
            row.avf = counts.avf();
            row.avf_ci = counts.avfInterval(confidence);
            row.sdc_rate = counts.sdcRate();
            row.sdc_ci = counts.sdcInterval(confidence);
        }
    }
    for (CoverageModeKindRow &row : report.mode_kinds) {
        StratumCounts counts;
        counts.trials = row.trials;
        counts.masked = row.masked;
        counts.sdc = row.sdc;
        row.avf = counts.avf();
        row.avf_ci = counts.avfInterval(confidence);
        row.sdc_rate = counts.sdcRate();
        row.sdc_ci = counts.sdcInterval(confidence);
    }
    // A kind is "not yet separated" when its AVF interval under one
    // mode still overlaps the same kind's interval under another.
    for (CoverageModeKindRow &a : report.mode_kinds) {
        for (const CoverageModeKindRow &b : report.mode_kinds) {
            if (a.kind == b.kind && a.mode != b.mode &&
                a.avf_ci.overlaps(b.avf_ci)) {
                a.overlaps_other_mode = true;
            }
        }
    }
    // Kind-major presentation: all modes of one kind adjacent.
    std::stable_sort(report.mode_kinds.begin(),
                     report.mode_kinds.end(),
                     [&](const CoverageModeKindRow &a,
                         const CoverageModeKindRow &b) {
                         auto pos = [&](const std::string &kind) {
                             std::size_t i = 0;
                             for (; i < report.kinds.size(); ++i) {
                                 if (report.kinds[i].kind == kind)
                                     break;
                             }
                             return i;
                         };
                         return pos(a.kind) < pos(b.kind);
                     });
    return report;
}

namespace
{

std::string
intervalCell(double point, const Interval &ci, bool valid)
{
    if (!valid)
        return "-";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f [%.3f,%.3f]", point, ci.low,
                  ci.high);
    return buf;
}

} // namespace

std::string
formatCoverageReport(const CoverageReport &report)
{
    std::string out;
    char line[240];

    std::snprintf(line, sizeof(line),
                  "%-6s %6s %5s %7s %9s %5s %5s %8s %9s  %-19s %-19s\n",
                  "kind", "trials", "fail", "masked", "detected", "sdc",
                  "hang", "det-rate", "mean-lat", "AVF [CI]",
                  "SDC [CI]");
    out += line;
    for (const CoverageKindRow &row : report.kinds) {
        std::string rate = "-", lat = "-";
        char buf[32];
        if (row.detection_rate >= 0) {
            std::snprintf(buf, sizeof(buf), "%.0f%%",
                          row.detection_rate * 100);
            rate = buf;
        }
        if (row.latency_n) {
            std::snprintf(buf, sizeof(buf), "%.1f", row.mean_latency);
            lat = buf;
        }
        const bool valid = row.trials > 0;
        std::snprintf(
            line, sizeof(line),
            "%-6s %6u %5u %7u %9u %5u %5u %8s %9s  %-19s %-19s\n",
            row.kind.c_str(), row.trials, row.failed, row.masked,
            row.detected, row.sdc, row.hang, rate.c_str(), lat.c_str(),
            intervalCell(row.avf, row.avf_ci, valid).c_str(),
            intervalCell(row.sdc_rate, row.sdc_ci, valid).c_str());
        out += line;
    }

    // Mode comparison: only worth a table when the stream actually
    // mixes modes.
    bool multi_mode = false;
    for (const CoverageModeKindRow &row : report.mode_kinds) {
        multi_mode = multi_mode ||
                     row.mode != report.mode_kinds.front().mode;
    }
    if (multi_mode) {
        std::snprintf(line, sizeof(line),
                      "\nper-mode AVF at %.0f%% confidence "
                      "('~' = interval overlaps another mode)\n",
                      report.confidence * 100);
        out += line;
        std::snprintf(line, sizeof(line),
                      "%-6s %-10s %6s  %-19s %-19s %s\n", "kind",
                      "mode", "trials", "AVF [CI]", "SDC [CI]",
                      "sep");
        out += line;
        for (const CoverageModeKindRow &row : report.mode_kinds) {
            std::snprintf(
                line, sizeof(line), "%-6s %-10s %6u  %-19s %-19s %s\n",
                row.kind.c_str(), row.mode.c_str(), row.trials,
                intervalCell(row.avf, row.avf_ci, row.trials > 0)
                    .c_str(),
                intervalCell(row.sdc_rate, row.sdc_ci, row.trials > 0)
                    .c_str(),
                row.overlaps_other_mode ? "~" : "yes");
            out += line;
        }
    }

    // Latency histogram, one row per kind that has any latencies.
    bool any_latency = false;
    for (const CoverageKindRow &row : report.kinds)
        any_latency = any_latency || row.latency_n > 0;
    if (any_latency) {
        out += "\ndetection-latency histogram (cycles)\n";
        std::string header = "kind  ";
        unsigned lo = 0;
        for (unsigned i = 0; i < kCoverageHistogramSize; ++i) {
            char buf[32];
            if (i + 1 < kCoverageHistogramSize) {
                std::snprintf(buf, sizeof(buf), " %5u-%-5u", lo,
                              kCoverageLatencyBuckets[i] - 1);
                lo = kCoverageLatencyBuckets[i];
            } else {
                std::snprintf(buf, sizeof(buf), " %5u+     ", lo);
            }
            header += buf;
        }
        out += header + "\n";
        for (const CoverageKindRow &row : report.kinds) {
            if (!row.latency_n)
                continue;
            std::snprintf(line, sizeof(line), "%-6s", row.kind.c_str());
            out += line;
            for (unsigned i = 0; i < kCoverageHistogramSize; ++i) {
                std::snprintf(line, sizeof(line), " %11u",
                              row.histogram[i]);
                out += line;
            }
            out += "\n";
        }
    }

    std::snprintf(line, sizeof(line),
                  "%u jobs (%u without verdict)\n", report.total_jobs,
                  report.unclassified);
    out += line;
    return out;
}

AttributionReport
buildAttributionReport(const std::vector<JsonValue> &records,
                       const ReportOptions &options)
{
    AttributionReport report;
    report.base_mode = options.base_mode;

    struct AttrJob
    {
        std::string mode;
        std::string cell;
        double width = 0;
        double core_cycles = 0;
        std::array<double, numStallCauses> slots{};
    };
    std::vector<AttrJob> jobs;
    for (const JsonValue &rec : records) {
        if (isSummaryRecord(rec))
            continue;
        ++report.total_jobs;
        if (rec.strOr("status", "failed") != "ok")
            continue;
        const JsonValue *stats = rec.find("stats");
        const JsonValue *attr =
            stats ? stats->find("attribution") : nullptr;
        if (!attr || !attr->isObject())
            continue;

        const Job reduced = reduceRecord(rec);
        AttrJob job;
        job.mode = reduced.mode;
        job.cell = reduced.cell;
        job.width = attr->numberOr("width", 0);
        job.core_cycles = attr->numberOr("core_cycles", 0);
        const JsonValue *slots = attr->find("slots");
        double sum = 0;
        for (std::size_t i = 0; i < numStallCauses; ++i) {
            const char *name =
                stallCauseName(static_cast<StallCause>(i));
            job.slots[i] = slots ? slots->numberOr(name, 0) : 0;
            sum += job.slots[i];
        }
        ++report.with_attribution;
        // The conservation invariant: every cycle × commit slot of
        // every core charged to exactly one cause.  Counter values are
        // exact in doubles far past any realistic run length.
        if (sum != job.width * job.core_cycles)
            ++report.conservation_violations;
        jobs.push_back(std::move(job));
    }

    // Baseline per cell: mean core-cycles and slots over ok base jobs.
    struct CellAcc
    {
        double cycles = 0;
        std::array<double, numStallCauses> slots{};
        unsigned n = 0;
    };
    std::map<std::string, CellAcc> base_cells;
    for (const AttrJob &job : jobs) {
        if (job.mode != options.base_mode)
            continue;
        CellAcc &acc = base_cells[job.cell];
        acc.cycles += job.core_cycles;
        for (std::size_t i = 0; i < numStallCauses; ++i)
            acc.slots[i] += job.slots[i];
        ++acc.n;
    }

    struct ModeAcc
    {
        AttributionModeRow row;
        double cyc_sum = 0;
        std::array<double, numStallCauses> slot_sum{};
        double dcyc_sum = 0;
        std::array<double, numStallCauses> dslot_sum{};
    };
    std::vector<ModeAcc> accs;
    auto modeAcc = [&](const std::string &mode) -> ModeAcc & {
        for (ModeAcc &acc : accs) {
            if (acc.row.mode == mode)
                return acc;
        }
        accs.emplace_back();
        accs.back().row.mode = mode;
        return accs.back();
    };
    for (const AttrJob &job : jobs) {
        ModeAcc &acc = modeAcc(job.mode);
        ++acc.row.jobs;
        acc.row.width = static_cast<unsigned>(job.width);
        acc.cyc_sum += job.core_cycles;
        for (std::size_t i = 0; i < numStallCauses; ++i)
            acc.slot_sum[i] += job.slots[i];

        const auto it = base_cells.find(job.cell);
        if (it == base_cells.end() || it->second.n == 0)
            continue;
        const CellAcc &base = it->second;
        ++acc.row.with_base;
        acc.dcyc_sum += job.core_cycles - base.cycles / base.n;
        for (std::size_t i = 0; i < numStallCauses; ++i)
            acc.dslot_sum[i] += job.slots[i] - base.slots[i] / base.n;
    }
    for (ModeAcc &acc : accs) {
        if (acc.row.jobs) {
            acc.row.mean_core_cycles = acc.cyc_sum / acc.row.jobs;
            for (std::size_t i = 0; i < numStallCauses; ++i)
                acc.row.mean_slots[i] = acc.slot_sum[i] / acc.row.jobs;
        }
        if (acc.row.with_base) {
            acc.row.delta_cycles = acc.dcyc_sum / acc.row.with_base;
            for (std::size_t i = 0; i < numStallCauses; ++i) {
                acc.row.delta_slots[i] =
                    acc.dslot_sum[i] / acc.row.with_base;
            }
        }
        report.modes.push_back(acc.row);
    }
    return report;
}

std::string
formatAttributionReport(const AttributionReport &report)
{
    std::string out;
    char line[200];

    std::snprintf(line, sizeof(line), "%-10s %5s %5s %13s %10s %12s\n",
                  "mode", "jobs", "width", "core-cycles", "committed%",
                  "vs-base-cyc");
    out += line;
    for (const AttributionModeRow &row : report.modes) {
        const double total_slots =
            row.mean_core_cycles * row.width;
        char committed[32] = "-";
        if (total_slots > 0) {
            std::snprintf(
                committed, sizeof(committed), "%.1f%%",
                row.mean_slots[static_cast<std::size_t>(
                    StallCause::Committed)] /
                    total_slots * 100);
        }
        char vs_base[32];
        if (row.mode == report.base_mode)
            std::snprintf(vs_base, sizeof(vs_base), "base");
        else if (!row.with_base)
            std::snprintf(vs_base, sizeof(vs_base), "-");
        else
            std::snprintf(vs_base, sizeof(vs_base), "%+.0f",
                          row.delta_cycles);
        std::snprintf(line, sizeof(line),
                      "%-10s %5u %5u %13.0f %10s %12s\n",
                      row.mode.c_str(), row.jobs, row.width,
                      row.mean_core_cycles, committed, vs_base);
        out += line;
    }

    // Degradation decomposition: the extra (or saved) commit slots of
    // each mode vs its matched base cells, by cause.  Exact by
    // construction: the slot deltas sum to width * delta_cycles.
    for (const AttributionModeRow &row : report.modes) {
        if (row.mode == report.base_mode || !row.with_base)
            continue;
        std::snprintf(line, sizeof(line),
                      "\n%s vs %s: %+.0f core-cycles = %+.0f commit "
                      "slots, by cause\n",
                      row.mode.c_str(), report.base_mode.c_str(),
                      row.delta_cycles, row.delta_cycles * row.width);
        out += line;
        std::array<std::size_t, numStallCauses> order;
        for (std::size_t i = 0; i < numStallCauses; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return std::abs(row.delta_slots[a]) >
                                    std::abs(row.delta_slots[b]);
                         });
        const double dslots_total = row.delta_cycles * row.width;
        for (const std::size_t i : order) {
            const double d = row.delta_slots[i];
            if (d == 0)
                continue;
            char share[32] = "";
            if (dslots_total != 0) {
                std::snprintf(share, sizeof(share), "  (%.1f%%)",
                              d / dslots_total * 100);
            }
            std::snprintf(line, sizeof(line),
                          "  %-18s %+12.0f slots  %+9.1f cyc%s\n",
                          stallCauseName(static_cast<StallCause>(i)),
                          d, d / row.width, share);
            out += line;
        }
    }

    std::snprintf(line, sizeof(line),
                  "%u jobs (%u with attribution), conservation %s\n",
                  report.total_jobs, report.with_attribution,
                  report.conservation_violations
                      ? "VIOLATED"
                      : "OK");
    out += line;
    if (report.conservation_violations) {
        std::snprintf(line, sizeof(line),
                      "CONSERVATION VIOLATION: %u record%s where "
                      "sum(slots) != core_cycles * width\n",
                      report.conservation_violations,
                      report.conservation_violations == 1 ? "" : "s");
        out += line;
    }
    return out;
}

SnapshotReport
buildSnapshotReport(const std::vector<JsonValue> &records)
{
    SnapshotReport report;
    double bytes_sum = 0, simulated = 0;
    for (const JsonValue &rec : records) {
        if (isSummaryRecord(rec))
            continue;
        ++report.total_jobs;
        const JsonValue *extra = rec.find("extra");
        if (!extra || !extra->isObject())
            continue;
        const double hit = extra->numberOr("snapshot_hit", -1);
        if (hit < 0)
            continue;
        ++report.fork_eligible;
        double from = 0;
        if (hit > 0.5) {
            ++report.hits;
            from = extra->numberOr("snapshot_cycle", 0);
            bytes_sum += extra->numberOr("snapshot_bytes", 0);
        }
        const double total = rec.numberOr("total_cycles", 0);
        const JsonValue *rejoin = extra->find("rejoin_cycle");
        report.rejoined += rejoin != nullptr;
        report.total_cycles += total;
        report.restored_cycles += from;
        simulated += (rejoin ? rejoin->number() : total) - from;
    }
    if (report.fork_eligible) {
        report.hit_rate = static_cast<double>(report.hits) /
                          report.fork_eligible;
    }
    report.unsimulated_cycles = report.total_cycles - simulated;
    if (report.hits) {
        report.mean_restored_cycles = report.restored_cycles / report.hits;
        report.mean_bytes = bytes_sum / report.hits;
    }
    return report;
}

std::string
formatSnapshotReport(const SnapshotReport &report)
{
    std::string out;
    char line[160];

    if (!report.fork_eligible) {
        std::snprintf(line, sizeof(line),
                      "%u jobs, none fork-eligible (run the campaign "
                      "with --snapshot-every)\n",
                      report.total_jobs);
        out += line;
        return out;
    }
    std::snprintf(line, sizeof(line),
                  "%-10s %8s %9s %9s %14s %11s\n", "eligible", "hits",
                  "hit-rate", "rejoined", "mean-restored", "mean-bytes");
    out += line;
    char rate[32], mean_restored[32], mean_bytes[32];
    std::snprintf(rate, sizeof(rate), "%.0f%%", report.hit_rate * 100);
    if (report.hits) {
        std::snprintf(mean_restored, sizeof(mean_restored), "%.0f",
                      report.mean_restored_cycles);
        std::snprintf(mean_bytes, sizeof(mean_bytes), "%.0f",
                      report.mean_bytes);
    } else {
        std::snprintf(mean_restored, sizeof(mean_restored), "-");
        std::snprintf(mean_bytes, sizeof(mean_bytes), "-");
    }
    std::snprintf(line, sizeof(line),
                  "%-10u %8u %9s %9u %14s %11s\n",
                  report.fork_eligible, report.hits, rate,
                  report.rejoined, mean_restored, mean_bytes);
    out += line;
    std::snprintf(line, sizeof(line),
                  "%.0f of %.0f cycles not simulated (%.0f restored, "
                  "%.0f skipped after a rejoin)\n",
                  report.unsimulated_cycles, report.total_cycles,
                  report.restored_cycles,
                  report.unsimulated_cycles - report.restored_cycles);
    out += line;
    std::snprintf(line, sizeof(line),
                  "%u jobs, %u fork-eligible fault trials\n",
                  report.total_jobs, report.fork_eligible);
    out += line;
    return out;
}

FailuresReport
buildFailuresReport(const std::vector<JsonValue> &records)
{
    FailuresReport report;
    for (const JsonValue &rec : records) {
        if (isSummaryRecord(rec))
            continue;
        ++report.total_jobs;
        if (rec.strOr("status", "failed") == "ok")
            continue;
        FailureRow row;
        row.id = static_cast<std::uint64_t>(rec.numberOr("id", 0));
        row.label = rec.strOr("label", "?");
        row.error = rec.strOr("error", "?");
        row.attempts =
            static_cast<unsigned>(rec.numberOr("attempts", 0));
        ++report.failed;
        report.rows.push_back(std::move(row));
    }
    std::sort(report.rows.begin(), report.rows.end(),
              [](const FailureRow &a, const FailureRow &b) {
                  return a.id < b.id;
              });
    for (const FailureRow &row : report.rows) {
        auto it = std::find_if(
            report.by_error.begin(), report.by_error.end(),
            [&row](const auto &e) { return e.first == row.error; });
        if (it == report.by_error.end())
            report.by_error.emplace_back(row.error, 1);
        else
            ++it->second;
    }
    return report;
}

std::string
formatFailuresReport(const FailuresReport &report)
{
    std::string out;
    char line[256];

    if (!report.failed) {
        std::snprintf(line, sizeof(line),
                      "no failures in %u job%s\n", report.total_jobs,
                      report.total_jobs == 1 ? "" : "s");
        out += line;
        return out;
    }
    std::snprintf(line, sizeof(line), "%u of %u jobs failed\n\n",
                  report.failed, report.total_jobs);
    out += line;

    std::snprintf(line, sizeof(line), "%6s  %s\n", "count", "error");
    out += line;
    for (const auto &[error, count] : report.by_error) {
        std::snprintf(line, sizeof(line), "%6u  %s\n", count,
                      error.c_str());
        out += line;
    }
    out += "\n";

    std::snprintf(line, sizeof(line), "%8s %8s  %s\n", "id", "attempts",
                  "label");
    out += line;
    for (const FailureRow &row : report.rows) {
        std::snprintf(line, sizeof(line), "%8llu %8u  %s\n",
                      static_cast<unsigned long long>(row.id),
                      row.attempts, row.label.c_str());
        out += line;
    }
    return out;
}

} // namespace rmt
