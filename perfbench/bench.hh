/**
 * @file
 * Shared pieces of the rmtsim benchmark program: the per-run report,
 * wall-clock helpers, order statistics, the heap-allocation counter,
 * and a child-process handle for the tools the benchmark spawns.
 */

#ifndef RMTBENCH_BENCH_HH
#define RMTBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

namespace rmt
{
class Simulation;
}

namespace rmtbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Best of a run's repeats: the shortest time of an operation the run
 * repeated.  On a shared host interference only ever adds time, so the
 * minimum over repeats of the same operation tracks the program and
 * follows the neighbours' load far less than a median does.  The
 * end-to-end metrics are built from these.
 */
inline double
best(const std::vector<double> &times)
{
    return quantile(times, 0);
}

/** What one benchmark invocation measured and checked. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 1;          ///< worker threads (nproc)
    std::string batch_bin;      ///< rmtsim_batch
    std::string daemon_bin;     ///< rmtsimd
    std::string run_dir;        ///< scratch space for stores and sockets
};

struct Report
{
    std::uint64_t attempted = 0;    ///< operations run (runs/trials/rows)
    std::uint64_t failed = 0;       ///< operations that failed a check
    std::vector<std::string> errors;    ///< first few failure messages

    /** Metrics by name; trace 0 = end-to-end, trace 1 = per-layer. */
    std::map<std::string, double> metrics;
    /** The per-mode and per-pass throughputs behind the end-to-end
     *  figures (reported by every run). */
    std::map<std::string, double> breakdown;
    /** Deterministic work counters: exact across repeats and runs. */
    std::map<std::string, std::uint64_t> counters;
    /** Repetitions of the workload inside the measured window. */
    std::uint64_t repeats = 0;

    /** Record one failed operation with its reason. */
    void fail(const std::string &why);

    /** Check @p ok for one operation; record @p why when it fails. */
    bool check(bool ok, const std::string &why);

    std::string json() const;
};

/** Heap allocations and bytes requested by this thread so far
 *  (counted by the operator new replacement in alloc_count.cc). */
std::uint64_t threadAllocs();
std::uint64_t threadAllocBytes();

/**
 * A spawned tool with its stdout on a pipe.  Lines are read with the
 * host time they arrived, so the benchmark can time a streamed result.
 * The destructor kills and reaps a child that is still running.
 */
class Child
{
  public:
    /** Spawn @p argv; with @p pipe_stderr its stderr is readable via
     *  readErrLine(), otherwise it is inherited. */
    Child(const std::vector<std::string> &argv, bool pipe_stderr);
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** Next stdout line; false on EOF.  Throws on timeout. */
    bool readLine(std::string &line, Clock::time_point &arrived,
                  double timeout_s);
    /** Next stderr line (pipe_stderr only); false on EOF. */
    bool readErrLine(std::string &line, double timeout_s);

    /** Reap the child: exit code (or 128 + signal), and its peak
     *  resident set in MiB through wait4() rusage. */
    int wait(double &peak_rss_mb);

    Clock::time_point started() const { return start; }

  private:
    bool readFrom(int fd, std::string &buf, std::string &line,
                  Clock::time_point &arrived, double timeout_s);

    pid_t pid = -1;
    int out_fd = -1;
    int err_fd = -1;
    std::string out_buf;
    std::string err_buf;
    Clock::time_point start;
};

/** One workload: run for args.seconds, check, and fill @p report. */
void runSimSweep(const Args &args, Report &report);
void runFaultCampaign(const Args &args, Report &report);
void runServeResubmit(const Args &args, Report &report);

/** Peak resident set of this process in MiB. */
double selfPeakRssMb();

/** Instructions @p sim's logical threads (their leading copies) have
 *  committed so far, as RunResult::threads counts them. */
std::uint64_t logicalCommitted(rmt::Simulation &sim);

} // namespace rmtbench

#endif // RMTBENCH_BENCH_HH
