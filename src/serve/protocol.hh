/**
 * @file
 * Wire protocol between rmtsimd and its clients: length-prefixed
 * frames over a local Unix-domain stream socket.
 *
 * Framing reuses the runner's frame format (runner/wire.hh): each
 * frame is `magic | u32 length | payload`, read EINTR-safely through
 * wire::readSome/writeAll and parsed with wire::FrameDecoder, so the
 * daemon inherits its truncation/garbage/oversize detection.  The
 * first payload byte is a tag:
 *
 *   'C'  control message — a JSON object with a "type" member
 *   'R'  result row — one raw JSONL line (no trailing newline),
 *        exactly the bytes rmtsim_batch would have written locally
 *
 * Control types client -> server:
 *   {"type":"submit","name":...,"seed":N,"timing":bool,"jobs":[...]}
 *   {"type":"status"} | {"type":"flush"} | {"type":"stop"}
 *   {"type":"cancel","campaign":"<16-hex fingerprint>"}
 *
 * Control types server -> client:
 *   {"type":"accepted","campaign":"<hex>","jobs":N}
 *   {"type":"done","rows":N,"hits":N,"misses":N,"failed":N,
 *    "draining":bool}
 *   {"type":"status",...}  {"type":"ok",...}  {"type":"error",...}
 *
 * The campaign codec serialises the existing JobSpec/Campaign structs:
 * per job id, label, seed, workloads, the canonical-options pre-image
 * (sim/optionsCanonicalJson — parsed back field-for-field and verified
 * to re-canonicalise to the same string, so option drift is an error,
 * not a silent mis-simulation), the stats-embed flag, and the
 * scheduled fault records.  post_run hooks do not travel: the daemon
 * reattaches fault oracles itself from the fault records.
 */

#ifndef RMTSIM_SERVE_PROTOCOL_HH
#define RMTSIM_SERVE_PROTOCOL_HH

#include <string>

#include "common/json.hh"
#include "runner/campaign.hh"
#include "runner/wire.hh"

namespace rmt
{
namespace serve
{

/** Frame payload tags. */
constexpr char tagControl = 'C';
constexpr char tagRow = 'R';

/** Default socket filename for examples/docs. */
constexpr const char *defaultSocketName = "rmtsimd.sock";

// --------------------------------------------------------- campaign codec

/** One job as a JSON object (the "jobs" array element). */
std::string jobJson(const JobSpec &spec);

/** The submit control message for @p campaign. */
std::string submitJson(const Campaign &campaign, bool include_timing);

/**
 * Parse the canonical-options object (the optionsCanonicalJson shape)
 * back into a SimOptions.  Throws std::invalid_argument on unknown
 * mode/frontend names or missing members.
 */
SimOptions parseCanonicalOptions(const JsonValue &obj);

/**
 * Parse a submit message into a Campaign (+ the timing flag).  Every
 * job's options are re-canonicalised and compared against the sent
 * pre-image: a mismatch (a client built with different option
 * semantics) throws std::invalid_argument rather than silently
 * simulating something else.
 */
Campaign parseSubmit(const JsonValue &msg, bool &include_timing);

// ------------------------------------------------------------ socket I/O

#if defined(__unix__) || defined(__APPLE__)

/**
 * Send one tagged frame (EINTR-safe, whole-frame-or-error).
 * False on a write failure (errno left set) — for the daemon that
 * usually means the client hung up mid-stream.
 */
bool sendFrame(int fd, char tag, const std::string &body);

/**
 * Incremental framed reader over a descriptor.  next() blocks until a
 * whole frame arrives; returns false on clean EOF.  Throws
 * wire::WireError on garbage, an oversized length, or EOF cutting a
 * frame in half.
 */
class FrameReader
{
  public:
    explicit FrameReader(int fd) : fd(fd) {}

    /** Next payload (tag byte included).  False on clean EOF. */
    bool next(std::string &payload);

  private:
    int fd;
    wire::FrameDecoder dec;
};

/** Connect to a Unix socket; -1 on failure (error describes why). */
int connectUnix(const std::string &path, std::string &error);

/** Bind + listen on a Unix socket; -1 on failure.  An existing socket
 *  file that nothing answers on (a stale daemon) is unlinked first; a
 *  live one is an error ("already serving"). */
int listenUnix(const std::string &path, std::string &error);

#endif // POSIX

} // namespace serve
} // namespace rmt

#endif // RMTSIM_SERVE_PROTOCOL_HH
