/**
 * @file
 * SMT-Efficiency (paper Section 6.4): per-thread IPC in the evaluated
 * mode divided by the thread's single-thread IPC on the same machine,
 * averaged arithmetically across threads (Snavely & Tullsen's weighted
 * speedup).
 */

#ifndef RMTSIM_SIM_METRICS_HH
#define RMTSIM_SIM_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace rmt
{

class ResultStore;

/** SMT-Efficiency of one logical thread. */
double smtEfficiency(double mode_ipc, double single_thread_ipc);

/** Arithmetic mean of per-thread efficiencies (weighted speedup). */
double meanEfficiency(const std::vector<double> &efficiencies);

/**
 * Cache of single-thread IPCs so sweeps do not re-simulate the
 * baseline for every configuration.
 *
 * A workload's baseline is one row of a ResultStore: the result of its
 * base-mode, single-thread JobSpec under the cache's options.  The
 * store's claim protocol gives single-flight semantics — when N
 * campaign workers ask for the same baseline at once, exactly one
 * simulates it while the others wait for the published row — and a
 * persistent store (rmtsim_batch --store) carries baselines across
 * campaigns.  Without a store the cache keeps a memory-only one.
 */
class BaselineCache
{
  public:
    explicit BaselineCache(const SimOptions &options,
                           ResultStore *store = nullptr);
    ~BaselineCache();

    BaselineCache(const BaselineCache &) = delete;
    BaselineCache &operator=(const BaselineCache &) = delete;

    /** The options every baseline runs under (mode forced to base). */
    const SimOptions &options() const { return opts; }

    /** Single-thread IPC of @p workload (simulated once, then cached). */
    double ipc(const std::string &workload);

    /** Mean SMT-Efficiency of @p result against the cached baselines. */
    double efficiency(const RunResult &result);

    /** Per-thread efficiencies of @p result. */
    std::vector<double> efficiencies(const RunResult &result);

    /** Number of baseline simulations actually executed (the
     *  single-flight invariant: one per distinct workload). */
    std::uint64_t simulations() const { return sims.load(); }

  private:
    SimOptions opts;
    std::unique_ptr<ResultStore> own;   ///< used when none was given
    ResultStore *store;
    std::atomic<std::uint64_t> sims{0};
};

} // namespace rmt

#endif // RMTSIM_SIM_METRICS_HH
