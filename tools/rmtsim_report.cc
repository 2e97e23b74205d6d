/**
 * @file
 * Summarise a rmtsim_batch .jsonl result stream as the paper's
 * headline tables: per-mode throughput and degradation vs the base
 * machine, optionally broken down per workload mix.
 *
 *   rmtsim_batch --modes base,srt,crt --workloads gcc,swim \
 *                --out results.jsonl
 *   rmtsim_report results.jsonl
 *   rmtsim_report --per-mix --base lockstep results.jsonl
 *
 * With --coverage the stream is treated as a fault campaign instead:
 * trials are grouped by fault kind and summarised as verdict tallies,
 * detection rate, and detection-latency statistics.  With --figure it
 * is the job list of rmtsim_batch --figure: the paper's tables, then
 * one "claim ... OK|FAIL" line per shape claim.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/parse.hh"
#include "obs/report.hh"
#include "runner/figures.hh"
#include "serve/client.hh"

using namespace rmt;

namespace
{

void
usage()
{
    std::printf(
        "rmtsim_report — per-mode degradation tables from batch "
        ".jsonl results\n"
        "\n"
        "  rmtsim_report [options] FILE   ('-' = stdin)\n"
        "\n"
        "  --base MODE       degradation reference mode (default "
        "base)\n"
        "  --per-mix         also print the per-workload-mix table\n"
        "  --coverage        fault-campaign mode: per-fault-kind "
        "verdicts,\n"
        "                    detection rate, latency histogram, and "
        "AVF\n"
        "                    with Wilson intervals; mixed-mode streams "
        "also\n"
        "                    get a per-mode table flagging kinds "
        "whose\n"
        "                    intervals still overlap between modes\n"
        "  --confidence C    interval confidence for --coverage "
        "(default\n"
        "                    0.95)\n"
        "  --snapshots       snapshot-forking summary: hit rate, "
        "rejoins,\n"
        "                    cycles not simulated, snapshot image "
        "sizes\n"
        "  --failures        failure digest of a degraded campaign "
        "(batch\n"
        "                    exit 3): per-error tally and the failed "
        "jobs\n"
        "                    in id order\n"
        "  --attribution     commit-slot cycle accounting from "
        "--embed-stats\n"
        "                    records: per-mode slot mix and the "
        "degradation\n"
        "                    vs base decomposed into stall causes; "
        "verifies\n"
        "                    the conservation invariant on every "
        "record and\n"
        "                    exits 1 on violation\n"
        "  --figure F,F,...  tables of rmtsim_batch --figure F,... and a "
        "'claim ... OK|FAIL'\n"
        "                    line per shape claim; exits 1 on a FAIL, 2 "
        "on other jobs\n"
        "  --serve-summary SOCK\n"
        "                    query the rmtsimd at SOCK instead of "
        "reading a\n"
        "                    file: result-store hit/miss/in-flight "
        "counters,\n"
        "                    stored bytes, and per-mode row counts\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ReportOptions opts;
    std::string path;
    std::string serve_sock;
    bool coverage = false;
    bool snapshots = false;
    bool attribution = false;
    bool failures = false;
    double confidence = 0.95;
    std::vector<const Figure *> figures;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for " +
                                                arg);
                return argv[++i];
            };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--base") {
                opts.base_mode = next();
            } else if (arg == "--per-mix") {
                opts.per_mix = true;
            } else if (arg == "--coverage") {
                coverage = true;
            } else if (arg == "--confidence") {
                confidence = parseReal(next(), arg, 0, 1, true, true);
            } else if (arg == "--snapshots") {
                snapshots = true;
            } else if (arg == "--failures") {
                failures = true;
            } else if (arg == "--attribution") {
                attribution = true;
            } else if (arg == "--figure") {
                figures = selectFigures(next());
            } else if (arg == "--serve-summary") {
                serve_sock = next();
            } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
                throw std::invalid_argument("unknown argument '" + arg +
                                            "'");
            } else if (path.empty()) {
                path = arg;
            } else {
                throw std::invalid_argument("more than one input file");
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsim_report: %s\n", e.what());
        return 2;
    }
#if defined(__unix__) || defined(__APPLE__)
    if (!serve_sock.empty()) {
        // Live-daemon summary: ask for status and print the store
        // counters the serving gate (tools/check.sh) asserts on.
        try {
            const std::string reply = serve::controlRequest(
                serve_sock, "{\"type\":\"status\"}");
            JsonValue status;
            std::string perr;
            if (!parseJson(reply, status, perr)) {
                std::fprintf(stderr,
                             "rmtsim_report: bad status reply: %s\n",
                             perr.c_str());
                return 1;
            }
            const JsonValue *store = status.find("store");
            if (!store) {
                std::fprintf(stderr, "rmtsim_report: status reply has "
                             "no store section\n");
                return 1;
            }
            const JsonValue *draining = status.find("draining");
            std::printf("rmtsimd %s\n", serve_sock.c_str());
            std::printf("  draining           %s\n",
                        draining && draining->isBool() &&
                                draining->boolean()
                            ? "yes"
                            : "no");
            std::printf("  active campaigns   %.0f\n",
                        status.numberOr("active_campaigns", 0));
            std::printf("  campaigns done     %.0f\n",
                        status.numberOr("campaigns_done", 0));
            std::printf("  workers            %.0f\n",
                        status.numberOr("workers", 0));
            std::printf("store\n");
            std::printf("  hits               %.0f\n",
                        store->numberOr("hits", 0));
            std::printf("  misses             %.0f\n",
                        store->numberOr("misses", 0));
            std::printf("  in-flight waits    %.0f\n",
                        store->numberOr("inflight_waits", 0));
            std::printf("  rows               %.0f\n",
                        store->numberOr("rows", 0));
            std::printf("  rows from disk     %.0f\n",
                        store->numberOr("disk_rows", 0));
            std::printf("  stored bytes       %.0f\n",
                        store->numberOr("stored_bytes", 0));
            if (const JsonValue *modes = store->find("modes")) {
                for (const auto &[mode, rows] : modes->members()) {
                    std::printf("  rows[%s]%*s %.0f\n", mode.c_str(),
                                static_cast<int>(
                                    mode.size() < 12
                                        ? 12 - mode.size()
                                        : 1),
                                "", rows.number());
                }
            }
            return 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rmtsim_report: %s\n", e.what());
            return 1;
        }
    }
#endif
    if (path.empty()) {
        std::fprintf(stderr, "rmtsim_report: no input file (see --help)\n");
        return 2;
    }

    std::ifstream file;
    if (path != "-") {
        file.open(path);
        if (!file) {
            std::fprintf(stderr, "rmtsim_report: cannot open '%s'\n",
                         path.c_str());
            return 2;
        }
    }
    std::istream &in = path == "-" ? std::cin : file;

    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);

    unsigned bad_lines = 0;
    const std::vector<JsonValue> records =
        parseJsonlLines(lines, bad_lines);
    if (bad_lines) {
        std::fprintf(stderr, "rmtsim_report: skipped %u malformed "
                     "line%s\n", bad_lines, bad_lines == 1 ? "" : "s");
    }
    if (records.empty()) {
        std::fprintf(stderr, "rmtsim_report: no records in '%s'\n",
                     path.c_str());
        return 1;
    }

    if (!figures.empty()) {
        try {
            const FigureReport report = reportFigures(figures, records);
            std::fputs(report.text.c_str(), stdout);
            if (report.failed) {
                std::fprintf(stderr,
                             "rmtsim_report: %u of %u claims failed\n",
                             report.failed, report.claims);
                return 1;
            }
            return 0;
        } catch (const FigureStreamError &e) {
            std::fprintf(stderr, "rmtsim_report: %s\n", e.what());
            return 2;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rmtsim_report: %s\n", e.what());
            return 1;
        }
    }
    if (failures) {
        const FailuresReport report = buildFailuresReport(records);
        std::fputs(formatFailuresReport(report).c_str(), stdout);
        if (coverage || snapshots || attribution)
            std::fputs("\n", stdout);
        else
            return 0;
    }
    if (snapshots) {
        const SnapshotReport report = buildSnapshotReport(records);
        std::fputs(formatSnapshotReport(report).c_str(), stdout);
        if (coverage)
            std::fputs("\n", stdout);
        else
            return 0;
    }
    if (attribution) {
        const AttributionReport report =
            buildAttributionReport(records, opts);
        std::fputs(formatAttributionReport(report).c_str(), stdout);
        if (report.conservation_violations) {
            std::fprintf(stderr,
                         "rmtsim_report: conservation invariant "
                         "violated in %u record%s\n",
                         report.conservation_violations,
                         report.conservation_violations == 1 ? ""
                                                             : "s");
            return 1;
        }
        if (coverage)
            std::fputs("\n", stdout);
        else
            return 0;
    }
    if (coverage) {
        const CoverageReport report =
            buildCoverageReport(records, confidence);
        std::fputs(formatCoverageReport(report).c_str(), stdout);
        return 0;
    }
    const CampaignReport report = buildReport(records, opts);
    std::fputs(formatReport(report, opts).c_str(), stdout);
    return 0;
}
