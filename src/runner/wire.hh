/**
 * @file
 * Length-prefixed frames and the JobResult codec, shared by the result
 * journal (runner/journal.hh) and the rmtsimd socket protocol
 * (serve/protocol.hh).
 *
 * A frame is magic + payload length + payload.  Length prefixing means
 * a writer killed mid-record is detected as a truncated frame rather
 * than silently yielding a short record; the magic word catches garbage
 * ahead of a record; the payload cap bounds the reader's buffering
 * against a corrupt length.
 *
 * The JobResult payload is a versioned little-endian serialisation of
 * every field (including the embedded RunResult, host timings and
 * stats_json), so a decoded record renders byte-identically to the
 * original.
 */

#ifndef RMTSIM_RUNNER_WIRE_HH
#define RMTSIM_RUNNER_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "runner/job.hh"

namespace rmt
{
namespace wire
{

/** Any framing/codec violation (bad magic, truncation, bad version). */
struct WireError : std::runtime_error
{
    explicit WireError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Frame header magic ("RMTW", little-endian). */
constexpr std::uint32_t frameMagic = 0x57544D52u;

/** Hard cap on one frame's payload (a JobResult with a full stats doc
 *  is ~10 KiB; anything near this cap is corruption). */
constexpr std::uint32_t maxPayloadBytes = 64u << 20;

/** Codec version carried in every payload.
 *  v2: JobResult::quarantined (retry-exhausted trials). */
constexpr std::uint8_t codecVersion = 2;

/** Serialise a JobResult into a codec payload (no frame header). */
std::string encodeJobResult(const JobResult &result);

/** Inverse of encodeJobResult; throws WireError on malformed input. */
JobResult decodeJobResult(const std::string &payload);

/** Wrap a payload in a frame: magic + u32 length + bytes. */
std::string frame(const std::string &payload);

/**
 * Incremental frame parser for a socket read loop.  feed() bytes
 * as they arrive; next() yields complete payloads.  Throws WireError
 * as soon as the stream is provably corrupt (wrong magic, payload
 * above the cap).  After EOF, truncated() tells a cleanly-closed
 * stream from one cut mid-frame.
 */
class FrameDecoder
{
  public:
    void feed(const char *data, std::size_t len)
    {
        buf.append(data, len);
    }

    /** Extract the next complete payload into @p payload. */
    bool next(std::string &payload);

    /** Bytes of an incomplete frame still buffered? */
    bool truncated() const { return !buf.empty(); }

  private:
    std::string buf;
};

#if defined(__unix__) || defined(__APPLE__)

/**
 * EINTR-safe descriptor I/O, shared by the result journal and the
 * rmtsimd socket.  Signal delivery mid-frame (the SIGTERM drain) must
 * never tear a frame: both helpers retry interrupted system calls
 * until the transfer completes or genuinely fails.
 */

/** write() all @p len bytes, retrying EINTR and short writes; false on
 *  a real error (errno is left set). */
bool writeAll(int fd, const void *data, std::size_t len);

/** read() up to @p len bytes, retrying EINTR; returns the byte count
 *  (0 = EOF) or -1 on a real error (errno is left set). */
long readSome(int fd, void *buf, std::size_t len);

#endif // POSIX

} // namespace wire
} // namespace rmt

#endif // RMTSIM_RUNNER_WIRE_HH
