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
 *   'R'  result row — one wire::encodeJobResult payload, the same
 *        JobResult codec the result store persists.  The client
 *        decodes it and renders the row through its own JsonlSink, so
 *        --no-timing is applied in one place, and the codec's version
 *        byte makes a client/daemon build mismatch fail loudly.
 *
 * Control types client -> server (several submits may share one
 * connection; the rounds of a stratified campaign do):
 *   {"type":"submit","name":...,"seed":"N",
 *    ["efficiency":{canonical options},] "jobs":[...]}
 *   {"type":"status"} | {"type":"flush"} | {"type":"stop"}
 *   {"type":"cancel","campaign":"<16-hex fingerprint>"}
 *
 * Control types server -> client:
 *   {"type":"accepted","campaign":"<hex>","jobs":N}
 *   {"type":"done","rows":N,"hits":N,"awaited":N,"simulated":N,
 *    "failed":N,"skipped":N,"goldens":N,"rejoined":N,"draining":bool}
 *   {"type":"status",...}  {"type":"ok",...}  {"type":"error",...}
 *
 * "done" carries the daemon engine's EngineTally; rows counts the 'R'
 * frames sent, and skipped jobs (a drain or a cancel) send none — a
 * submit to a draining daemon gets a "done" with every job skipped.
 *
 * The campaign codec serialises the existing JobSpec/Campaign structs:
 * per job id, label, seed, workloads, the canonical-options pre-image
 * (sim/optionsCanonicalJson — parsed back through applySetting and
 * verified to re-canonicalise to the same string, so option drift is
 * an error, not a silent mis-simulation), the stats-embed flag, and the
 * scheduled fault records.  post_run hooks do not travel: the daemon
 * reattaches fault oracles itself from the fault records.  The
 * optional "efficiency" member carries the base options of the
 * SMT-efficiency baselines in the same checked codec; the daemon then
 * computes efficiencies against a BaselineCache over its own store.
 */

#ifndef RMTSIM_SERVE_PROTOCOL_HH
#define RMTSIM_SERVE_PROTOCOL_HH

#include <functional>
#include <optional>
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

// --------------------------------------------------------- campaign codec

/** The submit control message for @p campaign; @p efficiency, when
 *  given, is the base options of the SMT-efficiency baselines. */
std::string submitJson(const Campaign &campaign,
                       const SimOptions *efficiency = nullptr);

/**
 * Parse the canonical-options object (the optionsCanonicalJson shape)
 * back into a SimOptions, one applySetting per member.  Throws
 * std::invalid_argument on a member applySetting refuses, or an object
 * that does not re-canonicalise to itself (option-schema drift).
 */
SimOptions parseCanonicalOptions(const JsonValue &obj);

/**
 * Parse a submit message into a Campaign, setting @p efficiency from
 * its optional "efficiency" member.  Throws std::invalid_argument on a
 * malformed job or options object (see parseCanonicalOptions).
 */
Campaign parseSubmit(const JsonValue &msg,
                     std::optional<SimOptions> &efficiency);

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

    /** Next payload (tag byte included).  False on clean EOF.  With
     *  @p stop, waits in poll() on a 100 ms tick and also returns false
     *  once stop() reads true. */
    bool next(std::string &payload,
              const std::function<bool()> &stop = nullptr);

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
