#include "runner/figures.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <sstream>

#include "common/random.hh"
#include "runner/result_sink.hh"
#include "workloads/workloads.hh"

namespace rmt
{

namespace
{

using Metric = FigureMetric;
constexpr std::size_t npos = std::string::npos;

std::vector<std::vector<std::string>>
singles(const std::vector<std::string> &names)
{
    std::vector<std::vector<std::string>> rows;
    for (const std::string &n : names)
        rows.push_back({n});
    return rows;
}

FigureColumn
col(const std::string &header, const std::string &config,
    Metric metric = Metric::Efficiency, char op = 0,
    const std::string &other = "")
{
    return {header, metric, config, op, other};
}

/** The per-trial folds of a fault cell, and their column-id suffix. */
struct VerdictColumn
{
    const char *header;
    const char *key;
    Metric metric;
};
constexpr VerdictColumn kVerdicts[] = {
    {"detected", "det", Metric::Detected},
    {"masked", "masked", Metric::Masked},
    {"sdc", "sdc", Metric::Sdc},
    {"hang", "hang", Metric::Hang},
    {"cap", "cap", Metric::CapExceeded},
    {"latency", "lat", Metric::Latency},
};

/** @p v of fault config @p config, id "<config> <v.key>". */
FigureColumn
verdictCol(const std::string &header, const std::string &config,
           const VerdictColumn &v)
{
    FigureColumn c = col(header, config, v.metric);
    c.key = config + " " + v.key;
    return c;
}

/** A fault figure on @p rows, one table of every verdict fold per
 *  config, titled "<title>: <config>". */
Figure
faultFigure(const std::string &name, const std::vector<std::string> &rows,
            const std::vector<FigureConfig> &configs, const std::string &title,
            unsigned trials, FaultPlan plan)
{
    Figure fig{.name = name,
               .rows = singles(rows),
               .configs = configs,
               .mean_row = false,
               .decimals = 0,
               .trials = trials,
               .fault = std::move(plan)};
    for (const FigureConfig &c : configs) {
        FigureTable &table = fig.tables.emplace_back(title + ": " + c.name);
        for (const VerdictColumn &v : kVerdicts)
            table.columns.push_back(verdictCol(v.header, c.name, v));
    }
    return fig;
}

/** Trial @p i of the whole-sphere figure: a strike of @p kind. */
FaultRecord
sphereStrike(FaultRecord::Kind kind, unsigned i)
{
    FaultRecord f;
    f.kind = kind;
    f.when = 1200 + 713 * i;
    // Low bits keep a corrupted PC inside the program image so the
    // strike exercises detection rather than only the hang watchdog.
    const unsigned bits[] = {2, 5, 9, 13};
    f.bit = bits[i % 4];
    // Register and decode strikes alternate the victim copy.
    if (kind == FaultRecord::Kind::TransientReg ||
        kind == FaultRecord::Kind::TransientDecode)
        f.tid = static_cast<ThreadId>(i % 2);
    if (kind == FaultRecord::Kind::TransientReg)
        f.reg = static_cast<RegIndex>(4 + i);
    if (kind == FaultRecord::Kind::PermanentFu) {
        f.fuIndex = i % 8;
        f.mask = std::uint64_t{1} << (i % 16);
    }
    return f;
}

/** The fault-coverage experiments of Sections 2.1 and 4.5. */
void
addFaultFigures(std::vector<Figure> &figs)
{
    const std::string srt12k =
        "mode=srt,warmup_insts=0,measure_insts=12000";

    // Transient register strikes over the whole architectural file
    // (most land in dead state) and over the kernels' live r1-r13.
    figs.push_back(faultFigure(
        "faults_reg", {"compress", "gcc"}, {{"all", srt12k}, {"live", srt12k}},
        "Transient register strikes (SRT, 12k instructions, 40 trials), "
        "registers",
        40, [](const FigureConfig &c, const SimOptions &o, unsigned t) {
            const unsigned max_reg = c.name == "live" ? 14 : numArchRegs;
            return transientRegStrike(0xFA117 + max_reg, t, o, max_reg);
        }));
    figs.back().claims = {"rows: all sdc <= 0", "rows: live sdc <= 0",
                          "rows: all det < all masked",
                          "rows: live det > all det"};

    figs.push_back(faultFigure(
        "faults_lvq", {"gcc"},
        {{"ECC", srt12k + ",lvq_ecc=1"}, {"noECC", srt12k + ",lvq_ecc=0"}},
        "LVQ strikes (10 trials)", 10,
        [](const FigureConfig &, const SimOptions &, unsigned t) {
            FaultRecord f;
            f.kind = FaultRecord::Kind::TransientLvq;
            f.when = 1500 + 700 * t;
            return f;
        }));
    figs.back().claims = {"gcc: ECC det <= 0", "gcc: ECC sdc <= 0",
                          "gcc: noECC masked <= 0", "gcc: noECC sdc <= 0",
                          "gcc: ECC det < noECC det"};

    figs.push_back(faultFigure(
        "faults_fu", {"applu"},
        {{"PSR", srt12k + ",psr=1"}, {"noPSR", srt12k + ",psr=0"}},
        "Permanent functional-unit faults (20 trials)", 20,
        [](const FigureConfig &, const SimOptions &, unsigned t) {
            // One seeded sequence: trial t strikes its draw's integer
            // (even t, ids 0-7) or logic (odd t, ids 16-23) unit.
            Random rng(0xFE11);
            FaultRecord f;
            f.kind = FaultRecord::Kind::PermanentFu;
            f.when = 500;
            for (unsigned i = 0; i <= t; ++i) {
                f.fuIndex = static_cast<unsigned>(
                    i % 2 ? 16 + rng.range(8) : rng.range(8));
                f.mask = std::uint64_t{1} << rng.range(16);
            }
            return f;
        }));
    figs.back().claims = {"applu: PSR sdc <= 0", "applu: noPSR sdc <= 0",
                          "applu: PSR det > 0", "applu: noPSR det > 0",
                          "applu: PSR lat < noPSR lat"};

    // Every fault kind against SRT with checkpoint recovery, one table
    // per verdict fold; the merge buffer is outside the sphere and
    // must be ECC-corrected.
    std::vector<FigureConfig> kinds;
    for (auto k = FaultRecord::Kind::TransientReg;
         k <= FaultRecord::Kind::TransientMergeBuffer;
         k = static_cast<FaultRecord::Kind>(static_cast<unsigned>(k) + 1)) {
        const bool boq = k == FaultRecord::Kind::TransientBoq;
        kinds.push_back({faultKindName(k),
                         std::string("mode=srt,recovery=1,warmup_insts=0,"
                                     "measure_insts=10000") +
                             (boq ? ",frontend=boq" : "")});
    }
    Figure sphere{.name = "faults_sphere",
                  .rows = singles({"gcc"}),
                  .configs = kinds,
                  .mean_row = false,
                  .decimals = 0,
                  .trials = 4,
                  .fault = [](const FigureConfig &c, const SimOptions &,
                              unsigned t) {
                      return sphereStrike(parseFaultKind(c.name), t);
                  }};
    for (const VerdictColumn &v : kVerdicts) {
        FigureTable &table = sphere.tables.emplace_back(
            std::string("Whole-sphere strikes (SRT + recovery, 10k "
                        "instructions, 4 trials per kind): ") +
            v.header);
        for (const FigureConfig &c : kinds)
            table.columns.push_back(verdictCol(c.name, c.name, v));
    }
    for (const FigureConfig &c : kinds) {
        sphere.claims.push_back("gcc: " + c.name + " sdc <= 0");
        sphere.claims.push_back("gcc: " + c.name + " cap <= 0");
    }
    figs.push_back(sphere);
}

std::vector<Figure>
buildFigures()
{
    const auto spec95 = singles(spec95Names());
    const std::vector<FigureConfig> lock_vs_crt = {
        {"Lock0", "mode=lockstep,checker_penalty=0"},
        {"Lock8", "mode=lockstep,checker_penalty=8"},
        {"CRT", "mode=crt"}};
    std::vector<Figure> figs;

    figs.push_back({.name = "fig6",
                    .rows = spec95,
                    .configs = {{"Base2", "mode=base2"},
                                {"SRT", "mode=srt"},
                                {"SRT+ptsq", "mode=srt,ptsq=1"},
                                {"SRT+nosc", "mode=srt,store_comparison=0"}},
                    .tables = {{"Figure 6: SMT-Efficiency, one logical "
                                "thread (1.0 = single-thread base)"}},
                    .claims = {"mean: SRT > Base2", "mean: SRT+ptsq >= SRT",
                               "mean: SRT+nosc >= SRT"}});
    figs.push_back(
        {.name = "fig7",
         .rows = spec95,
         .configs = {{"noPSR", "mode=srt,psr=0"}, {"PSR", "mode=srt,psr=1"}},
         .tables = {{"Figure 7: same-functional-unit instruction pairs "
                     "(SRT)",
                     {col("noPSR %", "noPSR", Metric::FuSamePct),
                      col("PSR %", "PSR", Metric::FuSamePct),
                      col("PSR ipc/noPSR", "PSR", Metric::Ipc, '/',
                          "noPSR")}}},
         .claims = {"rows: PSR % < noPSR %", "mean: PSR ipc/noPSR >= 1"}});
    figs.push_back(
        {.name = "fig8",
         .rows = spec95,
         .configs = {{"base", "mode=base"},
                     {"SRT", "mode=srt"},
                     {"ptsq", "mode=srt,ptsq=1"}},
         .tables = {{"Store-queue pressure: leading-store SQ lifetime "
                     "(cycles) and SQ-full dispatch stalls",
                     {col("base life", "base", Metric::StoreLifetime),
                      col("SRT life", "SRT", Metric::StoreLifetime),
                      col("delta", "SRT", Metric::StoreLifetime, '-',
                          "base"),
                      col("SRT stalls", "SRT", Metric::SqStalls),
                      col("ptsq stalls", "ptsq", Metric::SqStalls)}}},
         .mean_row = false,
         .decimals = 1,
         .claims = {"mean: delta > 0", "rows: ptsq stalls <= SRT stalls"}});
    figs.push_back({.name = "fig9",
                    .rows = twoProgramMixes(),
                    .configs = {{"Base(2thr)", "mode=base"},
                                {"SRT", "mode=srt"},
                                {"SRT+ptsq", "mode=srt,ptsq=1"}},
                    .tables = {{"SRT, two logical threads (four hardware "
                                "contexts); SMT-Efficiency vs single-thread "
                                "base"}},
                    .claims = {"mean: SRT < fig6:SRT"}});
    figs.push_back({.name = "fig10",
                    .rows = spec95,
                    .configs = lock_vs_crt,
                    .tables = {{"Lockstep vs CRT, one logical thread "
                                "(SMT-Efficiency)"}},
                    .claims = {"mean: Lock0 >= Lock8"}});
    for (const bool four : {false, true}) {
        FigureColumn ratio = col("CRT/Lock8", "CRT", Metric::Efficiency,
                                 '/', "Lock8");
        // Figure 11 reports the ratio of the means, Figure 12 the mean
        // per-mix gain (the paper's "13% on average").
        ratio.ratio_of_means = !four;
        figs.push_back(
            {.name = four ? "fig12" : "fig11",
             .rows = four ? fourProgramMixes() : twoProgramMixes(),
             .configs = lock_vs_crt,
             .tables = {{std::string("Lockstep vs CRT, ") +
                             (four ? "four" : "two") +
                             " logical threads (SMT-Efficiency)",
                         {col("Lock0", "Lock0"), col("Lock8", "Lock8"),
                          col("CRT", "CRT"), ratio}}},
             .claims = {"rows: CRT > Lock8"}});
    }
    figs.back().claims.push_back("mean: fig10:CRT / fig10:Lock8 < "
                                 "fig11:CRT / fig11:Lock8 < "
                                 "fig12:CRT / fig12:Lock8");
    figs.push_back(
        {.name = "abl_frontend",
         .rows = spec95,
         .configs = {{"LPQ", "mode=srt,frontend=lpq"},
                     {"BOQ", "mode=srt,frontend=boq,slack=64"},
                     {"SharedLP", "mode=srt,frontend=sharedlp,slack=64"}},
         .tables = {{"Trailing front-end ablation (SRT SMT-Efficiency, "
                     "one logical thread)"}},
         .claims = {"mean: LPQ >= BOQ", "mean: LPQ >= SharedLP"}});

    Figure slack{.name = "abl_slack",
                 .rows = singles({"gcc", "compress", "swim", "mgrid",
                                  "vortex"}),
                 .tables = {{"Slack-fetch sweep, BOQ front end (SRT "
                             "SMT-Efficiency)"},
                            {"Slack-fetch sweep, LPQ front end (slack "
                             "subsumed)"}},
                 .mean_row = false,
                 .claims = {"mean: lpq-slack0 >= lpq-slack16 >= "
                            "lpq-slack64 >= lpq-slack128 >= lpq-slack256",
                            "mean: boq-slack16 > boq-slack0",
                            "rows: boq-slack256 < boq-slack16"}};
    for (FigureTable &table : slack.tables) {
        const std::string front = &table == &slack.tables[0] ? "boq" : "lpq";
        for (const std::string s : {"0", "16", "64", "128", "256"}) {
            const std::string name = front + "-slack" + s;
            slack.configs.push_back(
                {name, "mode=srt,frontend=" + front + ",slack=" + s});
            table.columns.push_back(col("slack" + s, name));
            table.columns.back().key = name;
        }
    }
    figs.push_back(slack);

    Figure storeq{
        .name = "abl_storeq",
        .rows = singles({"vortex", "compress", "m88ksim", "applu", "swim"}),
        .tables = {{"Store-queue size sweep (SRT SMT-Efficiency, one "
                    "logical thread)"}},
        .mean_row = false,
        // m88ksim never fills more than 32 entries, so per row the
        // climb is strict only from 16 to 32.
        .claims = {"rows: shared16 < shared32 <= shared64 <= ptsq64",
                   "mean: shared16 < shared32 < shared64"}};
    for (const std::string size : {"16", "32", "64", "128"})
        storeq.configs.push_back({"shared" + size, "mode=srt,storeq=" + size});
    storeq.configs.push_back({"ptsq64", "mode=srt,ptsq=1"});
    figs.push_back(storeq);

    Figure checker{.name = "abl_checker",
                   .rows = twoProgramMixes(),
                   .tables = {{"Checker-latency sweep, two-program mixes "
                               "(SMT-Efficiency)"}},
                   .claims = {"mean: Lock0 >= Lock2 >= Lock4 >= Lock8 >= "
                              "Lock16",
                              "mean: CRT > Lock0"}};
    for (const std::string p : {"0", "2", "4", "8", "16"})
        checker.configs.push_back(
            {"Lock" + p, "mode=lockstep,checker_penalty=" + p});
    checker.configs.push_back({"CRT", "mode=crt"});
    figs.push_back(checker);

    Figure window{.name = "abl_window",
                  .rows = singles({"compress", "applu", "swim", "gcc",
                                   "vortex"}),
                  .tables = {{"In-flight window sweep: base IPC and SRT "
                              "SMT-Efficiency per window size"}},
                  .mean_row = false,
                  .claims = {"rows: base64 <= base128 <= base256",
                             "mean: base64 < base256",
                             "vortex: srt256 < srt64"}};
    for (const unsigned w : {64u, 128u, 256u, 384u}) {
        // Physical registers scale with the window, so it is never
        // register-bound.
        const std::string n = std::to_string(w);
        const std::string machine =
            ",rob=" + n + ",physregs=" + std::to_string(256 + 2 * w);
        window.configs.push_back({"base" + n, "mode=base" + machine});
        window.configs.push_back({"srt" + n, "mode=srt" + machine});
        window.tables[0].columns.push_back(
            col("base" + n, "base" + n, Metric::Ipc));
        window.tables[0].columns.push_back(
            col("srt" + n, "srt" + n, Metric::Ipc, '/', "base" + n));
    }
    figs.push_back(window);

    figs.push_back(
        {.name = "abl_partition",
         .rows = fourProgramMixes(),
         .configs = {{"Lock8-stat",
                      "mode=lockstep,checker_penalty=8,dynlsq=0"},
                     {"Lock8-dyn",
                      "mode=lockstep,checker_penalty=8,dynlsq=1"},
                     {"CRT-stat", "mode=crt,dynlsq=0"},
                     {"CRT-dyn", "mode=crt,dynlsq=1"}},
         .tables = {{"LQ/SQ partitioning, four-program mixes "
                     "(SMT-Efficiency)"}},
         .claims = {"mean: Lock8-stat > Lock8-dyn"}});
    addFaultFigures(figs);
    return figs;
}

std::string
format(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

std::string
joined(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (const std::string &p : parts)
        out += (out.empty() ? "" : sep) + p;
    return out;
}

/** Row label: the workload, or the mix's 4-letter names. */
std::string
rowName(const std::vector<std::string> &mix)
{
    if (mix.size() == 1)
        return mix[0];
    std::vector<std::string> shorts;
    for (const std::string &w : mix)
        shorts.push_back(w.substr(0, 4));
    return joined(shorts, "+");
}

double
mean(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

/** A table's columns; none listed means every config's efficiency. */
std::vector<FigureColumn>
columnsOf(const Figure &fig, const FigureTable &table)
{
    if (!table.columns.empty())
        return table.columns;
    std::vector<FigureColumn> cols;
    for (const FigureConfig &c : fig.configs)
        cols.push_back(col(c.name, c.name));
    return cols;
}

double
metricOf(const JsonValue &rec, Metric metric)
{
    const JsonValue *threads = rec.find("threads");
    const auto missing = [&](const char *key) {
        return FigureStreamError("record " + jsonNum(rec.numberOr("id", -1)) +
                                 " has no " + key);
    };
    const auto get = [&](const char *key) {
        const JsonValue *v =
            metric != Metric::Ipc ? rec.find(key)
            : threads && threads->isArray() && !threads->array().empty()
                ? threads->array()[0].find(key)
                : nullptr;
        if (!v || !v->isNumber())
            throw missing(key);
        return v->number();
    };
    const auto is = [&](const char *key, const char *want) {
        const JsonValue *v = rec.find(key);
        if (!v || !v->isString())
            throw missing(key);
        return v->str() == want ? 1.0 : 0.0;
    };
    switch (metric) {
      case Metric::Efficiency:
        return get("mean_efficiency");
      case Metric::FuSamePct: {
        const double pairs = get("fu_pairs");
        return 100 * (pairs ? get("fu_same_unit") / pairs : 0);
      }
      case Metric::Ipc:
        return get("ipc");
      case Metric::SqStalls:
        return get("sq_full_stalls");
      case Metric::StoreLifetime:
        return get("avg_leading_store_lifetime");
      case Metric::Masked:
        return is("verdict", verdictName(FaultVerdict::Masked));
      case Metric::Detected:
        return is("verdict", verdictName(FaultVerdict::Detected));
      case Metric::Sdc:
        return is("verdict", verdictName(FaultVerdict::Sdc));
      case Metric::Hang:
        return is("verdict", verdictName(FaultVerdict::Hang));
      case Metric::CapExceeded:
        return is("outcome", outcomeName(Outcome::CapExceeded));
      case Metric::Latency:
        return get("detection_latency");
    }
    return 0;
}

/** A cell: @p metric folded over the @p n trial records at @p recs.
 *  Verdict and outcome counts sum; latency averages the trials that
 *  have one; any other metric averages every trial. */
double
cellOf(const JsonValue *const *recs, std::size_t n, Metric metric)
{
    double sum = 0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (metric == Metric::Latency && !recs[i]->find("detection_latency"))
            continue;
        sum += metricOf(*recs[i], metric);
        ++used;
    }
    const bool count =
        metric >= Metric::Masked && metric <= Metric::CapExceeded;
    return count ? sum : used ? sum / static_cast<double>(used) : 0;
}

/** Jobs per (row, config) cell of @p fig. */
std::size_t
cellJobs(const Figure &fig)
{
    return std::max(1u, fig.trials);
}

/** One reduced column: a cell per row and its MEAN cell. */
struct ColumnData
{
    std::vector<double> cells;
    double mean = 0;
};

/** A reduced figure's columns, by column id. */
using FigureData = std::map<std::string, ColumnData>;

/** The tables of @p fig, whose records start at recs[@p first]. */
std::string
reduceFigure(const Figure &fig, const std::vector<const JsonValue *> &recs,
             std::size_t first, FigureData &data)
{
    const auto at = [&](std::size_t row, const std::string &config,
                        Metric metric) {
        const auto c = std::find_if(
            fig.configs.begin(), fig.configs.end(),
            [&](const FigureConfig &k) { return k.name == config; });
        if (c == fig.configs.end())
            throw std::logic_error(fig.name + ": no config " + config);
        const std::size_t cell =
            row * fig.configs.size() + (c - fig.configs.begin());
        return cellOf(&recs[first + cell * cellJobs(fig)], cellJobs(fig),
                      metric);
    };

    std::string out;
    for (const FigureTable &table : fig.tables) {
        const std::vector<FigureColumn> cols = columnsOf(fig, table);
        out += (out.empty() ? "" : "\n") + table.title + "\n" +
               format("%-12s", "benchmark");
        for (const FigureColumn &c : cols)
            out += format(" %12s", c.header.c_str());
        out += "\n";
        for (const FigureColumn &c : cols) {
            ColumnData &d = data[c.id()];
            std::vector<double> nums, dens;
            for (std::size_t r = 0; r < fig.rows.size(); ++r) {
                const double a = at(r, c.config, c.metric);
                const double b = c.op ? at(r, c.other, c.metric) : 0;
                nums.push_back(a);
                dens.push_back(b);
                d.cells.push_back(c.op == '/'   ? (b > 0 ? a / b : 0)
                                  : c.op == '-' ? a - b
                                                : a);
            }
            d.mean = !c.ratio_of_means ? mean(d.cells)
                     : mean(dens) > 0  ? mean(nums) / mean(dens)
                                       : 0;
        }
        const auto line = [&](const std::string &name, std::size_t row) {
            out += format("%-12s", name.c_str());
            for (const FigureColumn &c : cols) {
                const ColumnData &d = data[c.id()];
                out += format(" %12.*f", fig.decimals,
                              row == npos ? d.mean : d.cells[row]);
            }
            out += "\n";
        };
        for (std::size_t r = 0; r < fig.rows.size(); ++r)
            line(rowName(fig.rows[r]), r);
        if (fig.mean_row)
            line("MEAN", npos);
    }
    return out;
}

bool
holds(const std::string &op, double a, double b)
{
    return op == "<" ? a < b : op == "<=" ? a <= b : op == ">" ? a > b
                                                               : a >= b;
}

/** The report line of one claim of @p fig; sets @p failed on FAIL. */
std::string
checkClaim(const Figure &fig, const std::string &claim,
           const std::map<std::string, FigureData> &data, bool &failed)
{
    const std::string head = "claim " + fig.name + " " + claim + "  ";
    const std::size_t colon = claim.find(": ");
    const std::string scope = claim.substr(0, colon);
    // Each operand is one term or "<term> / <term>".
    std::vector<std::vector<std::string>> operands{{""}};
    std::vector<std::string> ops;
    std::istringstream words(claim.substr(colon + 2));
    for (std::string w; words >> w;) {
        const std::size_t sep = w.find(':');
        if (sep != npos && !data.count(w.substr(0, sep)))
            return head + "SKIP (needs " + w.substr(0, sep) + ")\n";
        std::string &cur = operands.back().back();
        if (w == "<" || w == "<=" || w == ">" || w == ">=") {
            ops.push_back(w);
            operands.push_back({""});
        } else if (w == "/") {
            operands.back().emplace_back();
        } else {
            cur += (cur.empty() ? "" : " ") + w;
        }
    }

    // A term's cell on @p row (npos: its MEAN cell).
    const auto term = [&](const std::string &t, std::size_t row) {
        char *end = nullptr;
        const double v = std::strtod(t.c_str(), &end);
        if (*end == '\0')
            return v;
        const std::size_t sep = t.find(':');
        const ColumnData &c =
            sep == npos ? data.at(fig.name).at(t)
                        : data.at(t.substr(0, sep)).at(t.substr(sep + 1));
        return row == npos ? c.mean : c.cells.at(row);
    };
    const auto value = [&](const std::vector<std::string> &terms,
                           std::size_t row) {
        const double den = terms.size() > 1 ? term(terms[1], row) : 1;
        return den ? term(terms[0], row) / den : 0;
    };

    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < fig.rows.size(); ++r) {
        if (scope == "rows" || scope == rowName(fig.rows[r]))
            rows.push_back(r);
    }
    if (scope == "mean")
        rows = {npos};
    if (rows.empty())
        throw std::logic_error("claim '" + claim + "': no row " + scope);

    std::string detail, fails;
    std::size_t held = 0;
    for (const std::size_t r : rows) {
        bool ok = true;
        detail.clear();
        double prev = 0;
        for (std::size_t i = 0; i < operands.size(); ++i) {
            const double v = value(operands[i], r);
            detail += (i ? " " + ops[i - 1] + " " : "") +
                      format("%.*f", fig.decimals, v);
            ok = ok && (i == 0 || holds(ops[i - 1], prev, v));
            prev = v;
        }
        held += ok;
        if (!ok && rows.size() > 1)
            fails += (fails.empty() ? "; fails on " : ", ") +
                     rowName(fig.rows[r]);
    }
    if (rows.size() > 1)
        detail = format("%zu/%zu rows", held, rows.size()) + fails;
    failed = held != rows.size();
    return head + "[" + detail + "]  " + (failed ? "FAIL" : "OK") + "\n";
}

const std::vector<Figure> &
paperFigures()
{
    static const std::vector<Figure> figs = buildFigures();
    return figs;
}

} // namespace

std::vector<const Figure *>
selectFigures(const std::string &list)
{
    std::string known;
    for (const Figure &f : paperFigures())
        known += (known.empty() ? "" : ",") + f.name;
    std::vector<const Figure *> out;
    std::istringstream names(list == "all" ? known : list);
    for (std::string name; std::getline(names, name, ',');) {
        const Figure *fig = nullptr;
        for (const Figure &f : paperFigures())
            fig = f.name == name ? &f : fig;
        if (!fig || std::count(out.begin(), out.end(), fig))
            throw std::invalid_argument("bad figure '" + name +
                                        "' (unknown or repeated; known: "
                                        "all," + known + ")");
        out.push_back(fig);
    }
    if (out.empty())
        throw std::invalid_argument("no figure named");
    return out;
}

SimOptions
figureOptions()
{
    // The paper warms 1M and measures 15M instructions; both are scaled
    // down ~375x, which the workloads reach steady state within.
    SimOptions o;
    o.warmup_insts = 20000;
    o.measure_insts = 40000;
    return o;
}

Campaign
figureCampaign(const std::vector<const Figure *> &figures)
{
    Campaign campaign;
    campaign.name = "figures";
    for (const Figure *f : figures) {
        for (const auto &mix : f->rows) {
            for (const FigureConfig &config : f->configs) {
                SimOptions options = figureOptions();
                std::istringstream settings(config.settings);
                for (std::string s; std::getline(settings, s, ',');) {
                    const std::size_t eq = s.find('=');
                    applySetting(options, s.substr(0, eq), s.substr(eq + 1));
                }
                for (unsigned t = 0; t < cellJobs(*f); ++t) {
                    JobSpec spec;
                    spec.id = campaign.jobs.size();
                    spec.label = config.name + ":" + joined(mix, "+");
                    spec.workloads = mix;
                    spec.options = options;
                    if (f->trials) {
                        spec.label += " trial=" + std::to_string(t);
                        spec.faults.push_back(f->fault(config, options, t));
                    }
                    campaign.jobs.push_back(std::move(spec));
                }
            }
        }
    }
    return campaign;
}

FigureReport
reportFigures(const std::vector<const Figure *> &figures,
              const std::vector<JsonValue> &records)
{
    const Campaign campaign = figureCampaign(figures);
    std::vector<const JsonValue *> recs;
    for (const JsonValue &r : records) {
        if (r.find("id"))
            recs.push_back(&r);
    }
    if (recs.size() != campaign.jobs.size())
        throw FigureStreamError(
            "stream has " + std::to_string(recs.size()) +
            " job records; the figures have " +
            std::to_string(campaign.jobs.size()) + " jobs");
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const JsonValue &r = *recs[i];
        const JobSpec &job = campaign.jobs[i];
        if (r.numberOr("id", -1) != static_cast<double>(job.id) ||
            r.strOr("label", "") != job.label ||
            r.strOr("fingerprint", "") != optionsFingerprint(job.options))
            throw FigureStreamError(
                "record " + std::to_string(i) + " is not figure job " +
                std::to_string(job.id) + " '" + job.label + "'");
        if (r.strOr("status", "") != "ok")
            throw std::runtime_error("job " + std::to_string(job.id) +
                                     " '" + job.label + "' failed: " +
                                     r.strOr("error", "?"));
    }

    FigureReport report;
    std::map<std::string, FigureData> data;
    std::vector<std::string> tables;
    std::size_t first = 0;
    for (const Figure *f : figures) {
        tables.push_back(reduceFigure(*f, recs, first, data[f->name]));
        first += f->rows.size() * f->configs.size() * cellJobs(*f);
    }
    for (std::size_t i = 0; i < figures.size(); ++i) {
        report.text += (i ? "\n" : "") + tables[i];
        for (const std::string &claim : figures[i]->claims) {
            bool failed = false;
            report.text += checkClaim(*figures[i], claim, data, failed);
            ++report.claims;
            report.failed += failed;
        }
    }
    return report;
}

} // namespace rmt
