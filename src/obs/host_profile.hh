/**
 * @file
 * Host-side profiling: wall-clock time of a run's build / restore /
 * warmup / measure / oracle phases plus the achieved simulation rate,
 * attached to every RunResult so campaigns can report where host time
 * goes.
 */

#ifndef RMTSIM_OBS_HOST_PROFILE_HH
#define RMTSIM_OBS_HOST_PROFILE_HH

#include <chrono>
#include <string>

namespace rmt
{

/** Wall-clock phase breakdown of one simulation run. */
struct HostTiming
{
    double build_seconds = 0;       ///< Simulation construction
    double warmup_seconds = 0;      ///< cycles until warm-up boundary
    double measure_seconds = 0;     ///< remaining cycles + drain
    double sim_kips = 0;            ///< committed kilo-insts / wall sec
    double restore_seconds = 0;     ///< snapshot restore (0 if none)
    double oracle_seconds = 0;      ///< fault-oracle verdict (0 if none)

    double
    totalSeconds() const
    {
        return build_seconds + restore_seconds + warmup_seconds +
               measure_seconds + oracle_seconds;
    }

    /** `{"build_ms":...,"warmup_ms":...,"measure_ms":...,"kips":...,
     *  "restore_ms":...,"oracle_ms":...}` (one flat object). */
    std::string json() const;
};

/** Monotonic stopwatch with lap support. */
class WallTimer
{
  public:
    WallTimer() : start(Clock::now()), lastLap(start) {}

    /** Seconds since construction. */
    double
    elapsed() const
    {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    }

    /** Seconds since the previous lap() (or construction). */
    double
    lap()
    {
        const auto now = Clock::now();
        const double s =
            std::chrono::duration<double>(now - lastLap).count();
        lastLap = now;
        return s;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
    Clock::time_point lastLap;
};

} // namespace rmt

#endif // RMTSIM_OBS_HOST_PROFILE_HH
