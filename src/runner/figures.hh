/**
 * @file
 * The paper's evaluation as campaigns: Figures 6-12, the six ablations
 * and the four fault-coverage experiments.  This is the only place
 * that knows what a figure is.
 *
 *   rmtsim_batch --figure all -j 8 --out paper.jsonl
 *   rmtsim_report --figure all paper.jsonl
 *
 * A figure runs each of its configurations (sweep settings, mode
 * included: "mode=srt,ptsq=1") on each of its rows (workloads or
 * mixes), prints tables whose columns read one metric of one
 * configuration or a ratio or delta of two (no columns: every
 * configuration's SMT-efficiency), optionally ends them in a MEAN row,
 * and checks the shape claims EXPERIMENTS.md records.  A fault figure
 * runs each (row, configuration) cell as that many single-fault
 * trials, each strike drawn by the figure's fault plan, and its cells
 * fold the trials' oracle verdicts.
 *
 * A claim is "<scope>: <operand> <op> <operand> [<op> <operand> ...]",
 * op one of < <= > >=.  The scope is "mean" (operands are MEAN cells),
 * "rows" (the chain must hold on every row) or one row's name.  An
 * operand is a column id, "<figure>:<column id>" (mean scope only), a
 * number, or "<a> / <b>".
 */

#ifndef RMTSIM_RUNNER_FIGURES_HH
#define RMTSIM_RUNNER_FIGURES_HH

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/campaign.hh"

namespace rmt
{

/** What a cell reads from a job's record. */
enum class FigureMetric
{
    Efficiency,     ///< mean_efficiency
    FuSamePct,      ///< 100 * fu_same_unit / fu_pairs
    Ipc,            ///< threads[0].ipc
    SqStalls,       ///< sq_full_stalls
    StoreLifetime,  ///< avg_leading_store_lifetime
    // The fault-trial counts, Masked to CapExceeded, stay contiguous.
    Masked,         ///< trials whose verdict is masked
    Detected,       ///< ... detected
    Sdc,            ///< ... sdc
    Hang,           ///< ... hang
    CapExceeded,    ///< trials whose outcome is cap_exceeded
    Latency,        ///< mean detection_latency of the trials with one
};

struct FigureConfig
{
    std::string name;       ///< label prefix, "SRT+ptsq"
    std::string settings;   ///< "mode=srt,ptsq=1"
};

/** A column: metric of config, or of config op other. */
struct FigureColumn
{
    std::string header{};
    FigureMetric metric = FigureMetric::Efficiency;
    std::string config{};
    char op = 0;            ///< 0, '/' (0 when other is 0) or '-'
    std::string other{};
    bool ratio_of_means = false;    ///< MEAN cell of a '/' column
    std::string key{};      ///< id claims use; default: the header

    const std::string &id() const { return key.empty() ? header : key; }
};

struct FigureTable
{
    std::string title{};
    std::vector<FigureColumn> columns{};
};

/** The one strike of fault trial @p trial of @p config, whose jobs run
 *  under @p options. */
using FaultPlan = std::function<FaultRecord(
    const FigureConfig &config, const SimOptions &options, unsigned trial)>;

struct Figure
{
    std::string name{};
    std::vector<std::vector<std::string>> rows{};
    std::vector<FigureConfig> configs{};
    std::vector<FigureTable> tables{};
    bool mean_row = true;
    int decimals = 3;
    std::vector<std::string> claims{};
    /** Fault trials per (row, config) cell, each a job with the one
     *  strike @ref fault plans; 0: one faultless job per cell.  A cell
     *  sums the count metrics over its trials and averages the rest. */
    unsigned trials = 0;
    FaultPlan fault{};
};

/** "fig6,abl_slack" or "all" (every figure, in report order); throws
 *  std::invalid_argument on an unknown or repeated name. */
std::vector<const Figure *> selectFigures(const std::string &list);

/** The figures' budgets: 20k warm-up + 40k measured instructions.
 *  Figure jobs run with SMT-efficiency against baselines under these
 *  options, so any selection of figures shares one result store. */
SimOptions figureOptions();

/** The figures' jobs, row-major per figure, dense ids, labelled
 *  "<config>:<workload>[+<workload>...]"; a fault figure's cell is its
 *  trials in order, labelled "<config>:<mix> trial=<t>". */
Campaign figureCampaign(const std::vector<const Figure *> &figures);

/** A result stream that is not the figures' job list. */
class FigureStreamError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

struct FigureReport
{
    std::string text;       ///< each figure's tables, then its claims
    unsigned claims = 0;
    unsigned failed = 0;
};

/**
 * Reduce a .jsonl stream (records without "id" are skipped) to the
 * figures' tables and claim lines.  Throws FigureStreamError when its
 * ids, labels or fingerprints are not figureCampaign(@p figures) or a
 * metric is missing, and std::runtime_error when a job failed.
 */
FigureReport reportFigures(const std::vector<const Figure *> &figures,
                           const std::vector<JsonValue> &records);

} // namespace rmt

#endif // RMTSIM_RUNNER_FIGURES_HH
