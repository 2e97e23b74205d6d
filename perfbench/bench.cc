/**
 * @file
 * rmtbench entry point and shared helpers.
 *
 *   rmtbench --workload sim-sweep|fault-campaign|serve-resubmit
 *            --seed N --seconds S --trace 0|1 --run-dir DIR
 *
 * Workers (rmtsim_batch -j, rmtsimd -j) number the CPUs this process
 * may run on.  Prints one JSON object on stdout: the operations
 * attempted and failed, the metrics (end-to-end with --trace 0,
 * per-layer with --trace 1), the per-mode/per-pass breakdown, the
 * deterministic work counters, the worker count and the build
 * fingerprint.  perfbench/run.py builds this binary and turns that
 * object into the benchmark's result line.
 */

#include "bench.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/simulator.hh"

extern char **environ;

namespace rmtbench
{

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
Report::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 20)
        errors.push_back(why);
}

bool
Report::check(bool ok, const std::string &why)
{
    if (!ok)
        fail(why);
    return ok;
}

namespace
{

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

template <typename Map>
void
jsonMap(std::ostringstream &os, const Map &m)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ",") << "\"" << rmt::jsonEscape(k)
           << "\":" << num(static_cast<double>(v));
        first = false;
    }
    os << "}";
}

} // namespace

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"repeats\":" << repeats << ",\"errors\":[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        os << (i ? "," : "") << "\"" << rmt::jsonEscape(errors[i]) << "\"";
    os << "],\"metrics\":";
    jsonMap(os, metrics);
    os << ",\"breakdown\":";
    jsonMap(os, breakdown);
    os << ",\"counters\":{";
    bool first = true;
    for (const auto &[k, v] : counters) {
        os << (first ? "" : ",") << "\"" << rmt::jsonEscape(k)
           << "\":" << v;
        first = false;
    }
    os << "}}";
    return os.str();
}

double
selfPeakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t
logicalCommitted(rmt::Simulation &sim)
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < sim.numLogical(); ++i) {
        const auto &pl = sim.placement(i);
        n += sim.chip().cpu(pl.lead_core).committed(pl.lead_tid);
    }
    return n;
}

// ------------------------------------------------------------- Child

Child::Child(const std::vector<std::string> &argv, bool pipe_stderr)
{
    int outp[2];
    int errp[2] = {-1, -1};
    if (::pipe2(outp, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    if (pipe_stderr && ::pipe2(errp, O_CLOEXEC) != 0) {
        ::close(outp[0]);
        ::close(outp[1]);
        throw std::runtime_error("pipe: " + std::string(strerror(errno)));
    }

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, outp[1], STDOUT_FILENO);
    if (pipe_stderr)
        posix_spawn_file_actions_adddup2(&fa, errp[1], STDERR_FILENO);

    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    start = Clock::now();
    const int rc = ::posix_spawn(&pid, cargv[0], &fa, nullptr,
                                 cargv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(outp[1]);
    if (pipe_stderr)
        ::close(errp[1]);
    if (rc != 0) {
        ::close(outp[0]);
        if (pipe_stderr)
            ::close(errp[0]);
        throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                                 strerror(rc));
    }
    out_fd = outp[0];
    err_fd = errp[0];
}

Child::~Child()
{
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    if (out_fd >= 0)
        ::close(out_fd);
    if (err_fd >= 0)
        ::close(err_fd);
}

bool
Child::readFrom(int fd, std::string &buf, std::string &line,
                Clock::time_point &arrived, double timeout_s)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    for (;;) {
        const std::size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            return true;
        }
        if (fd < 0)
            return false;
        const double left = secondsBetween(Clock::now(), deadline);
        if (left <= 0)
            throw std::runtime_error("timed out waiting for child output");
        pollfd p{fd, POLLIN, 0};
        const int pr = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr == 0)
            continue;
        char tmp[65536];
        const ssize_t n = ::read(fd, tmp, sizeof(tmp));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            if (buf.empty())
                return false;
            line.swap(buf);
            buf.clear();
            return true;
        }
        arrived = Clock::now();
        buf.append(tmp, static_cast<std::size_t>(n));
    }
}

bool
Child::readLine(std::string &line, Clock::time_point &arrived,
                double timeout_s)
{
    return readFrom(out_fd, out_buf, line, arrived, timeout_s);
}

bool
Child::readErrLine(std::string &line, double timeout_s)
{
    Clock::time_point ignored;
    return readFrom(err_fd, err_buf, line, ignored, timeout_s);
}

int
Child::wait(double &peak_rss_mb)
{
    int status = 0;
    rusage ru{};
    // Bounded: a child that does not exit within a minute is killed,
    // so the benchmark itself always terminates.
    const Clock::time_point t0 = Clock::now();
    for (;;) {
        const pid_t r = ::wait4(pid, &status, WNOHANG, &ru);
        if (r == pid)
            break;
        if (r < 0 && errno != EINTR)
            throw std::runtime_error("wait4: " +
                                     std::string(strerror(errno)));
        if (secondsSince(t0) > 60)
            ::kill(pid, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid = -1;
    peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + WTERMSIG(status);
}

} // namespace rmtbench

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: rmtbench --workload sim-sweep|fault-campaign|"
                 "serve-resubmit --seed N --seconds S --trace 0|1 "
                 "--run-dir DIR\n");
}

/** CPUs this process may run on (nproc). */
unsigned
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rmtbench;
    rmt::setInformEnabled(false);
    // Pin glibc's mmap threshold at its default.  Left dynamic, it rises
    // after the first large free, and then whether a simulation's data
    // images come from fresh pages or reused heap (set-up time, peak
    // RSS) depends on the order of earlier runs in this process.
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    Args args;
    args.jobs = allowedCpus();
    args.batch_bin = RMTBENCH_BATCH_BIN;
    args.daemon_bin = RMTBENCH_DAEMON_BIN;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--workload")
                args.workload = next();
            else if (arg == "--seed")
                args.seed = std::stoull(next());
            else if (arg == "--seconds")
                args.seconds = std::stod(next());
            else if (arg == "--trace")
                args.trace = std::stoi(next()) != 0;
            else if (arg == "--run-dir")
                args.run_dir = next();
            else
                throw std::invalid_argument("unknown argument " + arg);
        }
        if (args.run_dir.empty() || args.seconds <= 0)
            throw std::invalid_argument("--run-dir and --seconds > 0 are "
                                        "required");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtbench: %s\n", e.what());
        usage();
        return 2;
    }
    std::filesystem::create_directories(args.run_dir);

    Report report;
    try {
        if (args.workload == "sim-sweep") {
            runSimSweep(args, report);
        } else if (args.workload == "fault-campaign") {
            runFaultCampaign(args, report);
        } else if (args.workload == "serve-resubmit") {
            runServeResubmit(args, report);
        } else {
            std::fprintf(stderr, "rmtbench: unknown workload '%s'\n",
                         args.workload.c_str());
            usage();
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtbench: %s: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }

    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                "\"jobs\":%u,\"build\":{\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"native\":\"%s\",\"lto\":\"%s\"},"
                "\"report\":%s}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, args.jobs, RMTBENCH_COMPILER,
                RMTBENCH_BUILD_TYPE, RMTBENCH_NATIVE, RMTBENCH_LTO,
                report.json().c_str());
    return 0;
}
