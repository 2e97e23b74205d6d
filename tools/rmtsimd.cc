/**
 * @file
 * rmtsimd — the campaign daemon (src/serve/).
 *
 *   rmtsimd --socket /tmp/rmt.sock --store /var/tmp/rmt-store -j 8
 *
 * serves campaigns submitted by `rmtsim_batch --server /tmp/rmt.sock`
 * until SIGTERM/SIGINT (drain: in-flight jobs finish and are stored)
 * or a `stop` verb.  Every computed JobResult lands in the
 * content-addressed store under --store, so resubmitting a campaign —
 * same process or a later one — streams byte-identical rows straight
 * from disk.
 *
 * Control verbs (run against a live daemon):
 *
 *   rmtsimd status --socket SOCK     one JSON status object
 *   rmtsimd flush  --socket SOCK     fsync the store now
 *   rmtsimd stop   --socket SOCK     begin the drain
 *   rmtsimd cancel --socket SOCK [--campaign FP]
 *                                    cancel one campaign (16-hex
 *                                    fingerprint) or, with no
 *                                    --campaign, every live one
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"

using namespace rmt;

#if defined(__unix__) || defined(__APPLE__)

namespace
{

serve::Daemon *g_daemon = nullptr;

extern "C" void
handleStopSignal(int)
{
    if (g_daemon)
        g_daemon->requestStop();
}

void
usage()
{
    std::printf(
        "rmtsimd — campaign daemon with a content-addressed result "
        "store\n"
        "\n"
        "  rmtsimd [serve] --socket SOCK --store DIR [options]\n"
        "  rmtsimd status|flush|stop|cancel --socket SOCK\n"
        "\n"
        "serve options:\n"
        "  --socket SOCK     Unix socket path to listen on "
        "(required)\n"
        "  --store DIR       result store directory (required; "
        "created if missing)\n"
        "  -j, --jobs N      simulation worker threads (default 0 = "
        "all cores)\n"
        "  --max-insts N     refuse a submit in which any job, or the "
        "efficiency\n"
        "                    baseline, runs more than N warmup+measure "
        "instructions\n"
        "                    per thread (an error reply naming it; "
        "nothing runs)\n"
        "  --store-sync N    fsync the store every N rows (default "
        "16; 1 = every row)\n"
        "  --pid-file FILE   write the daemon pid to FILE (removed on "
        "exit)\n"
        "\n"
        "control options:\n"
        "  --campaign FP     16-hex campaign fingerprint for cancel\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);

    std::string verb = "serve";
    std::string campaign_fp;
    std::string pid_file;
    serve::DaemonConfig cfg;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument("missing value for " +
                                                arg);
                return argv[++i];
            };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--socket") {
                cfg.socket_path = next();
            } else if (arg == "--store") {
                cfg.store_dir = next();
            } else if (arg == "-j" || arg == "--jobs") {
                cfg.jobs = parseUnsigned32(next(), arg);
            } else if (arg == "--max-insts") {
                cfg.max_insts = parseUnsigned(next(), arg);
            } else if (arg == "--store-sync") {
                cfg.store_sync_every = parseUnsigned32(next(), arg);
            } else if (arg == "--pid-file") {
                pid_file = next();
            } else if (arg == "--campaign") {
                campaign_fp = next();
            } else if (!arg.empty() && arg[0] != '-') {
                verb = arg;
            } else {
                throw std::invalid_argument("unknown argument '" + arg +
                                            "'");
            }
        }
        if (cfg.socket_path.empty())
            throw std::invalid_argument("--socket is required");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsimd: %s\n", e.what());
        return 2;
    }

    if (verb != "serve") {
        // Control verbs: one request, print the JSON reply, exit.
        std::string request;
        if (verb == "status" || verb == "flush" || verb == "stop") {
            request = "{\"type\":\"" + verb + "\"}";
        } else if (verb == "cancel") {
            request = "{\"type\":\"cancel\",\"campaign\":\"" +
                      jsonEscape(campaign_fp) + "\"}";
        } else {
            std::fprintf(stderr, "rmtsimd: unknown verb '%s'\n",
                         verb.c_str());
            return 2;
        }
        try {
            const std::string reply =
                serve::controlRequest(cfg.socket_path, request);
            std::printf("%s\n", reply.c_str());
            return 0;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rmtsimd: %s\n", e.what());
            return 1;
        }
    }

    if (cfg.store_dir.empty()) {
        std::fprintf(stderr, "rmtsimd: --store is required\n");
        return 2;
    }

    serve::Daemon daemon(cfg);
    try {
        daemon.open();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rmtsimd: %s\n", e.what());
        return 1;
    }

    if (!pid_file.empty()) {
        std::FILE *f = std::fopen(pid_file.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "rmtsimd: cannot write pid file "
                         "'%s'\n",
                         pid_file.c_str());
            return 1;
        }
        std::fprintf(f, "%ld\n", static_cast<long>(::getpid()));
        std::fclose(f);
    }

    g_daemon = &daemon;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::fprintf(stderr, "rmtsimd: serving on %s (store %s)\n",
                 cfg.socket_path.c_str(), cfg.store_dir.c_str());
    daemon.run();
    g_daemon = nullptr;

    if (!pid_file.empty())
        std::remove(pid_file.c_str());
    std::fprintf(stderr, "rmtsimd: drained, store flushed\n");
    return 0;
}

#else // !POSIX

int
main()
{
    std::fprintf(stderr,
                 "rmtsimd needs Unix-domain sockets (POSIX only)\n");
    return 2;
}

#endif
