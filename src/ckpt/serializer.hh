/**
 * @file
 * Versioned, tagged-chunk binary snapshot format (checkpoint/restore).
 *
 * A snapshot image is
 *
 *     header:   magic "RMTSNAP\0" | u32 format version |
 *               u64 SimOptions fingerprint | u32 section count
 *     sections: u32 name length | name bytes |
 *               u64 payload length | payload bytes | u32 CRC32(payload)
 *
 * All integers are little-endian regardless of host byte order, so an
 * image written on one machine restores on any other.  Every section
 * carries its own CRC.  The Deserializer constructor walks the whole
 * image once -- header, every section frame and name, every CRC, exact
 * end of image -- and throws SnapshotError on the first disagreement,
 * so a truncated, corrupted, or mismatched image is rejected before a
 * single value is read and can never restore into a half-written
 * machine.  Reads then only check section order and exact payload
 * consumption.
 *
 * The header fingerprint pins the image to one simulator configuration:
 * restoring under different SimOptions (which would change the barrier
 * schedule and the machine shape) is rejected up front.
 *
 * A Serializer in compare mode writes the same sections against an
 * existing image instead of building one: it answers "would this
 * machine's image equal that one?" section by section, in place,
 * without materialising the second image.
 */

#ifndef RMTSIM_CKPT_SERIALIZER_HH
#define RMTSIM_CKPT_SERIALIZER_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bits.hh"

namespace rmt
{

/** Any structural failure while reading or writing a snapshot image:
 *  bad magic, version or fingerprint mismatch, CRC failure, truncated
 *  or trailing data, or machine-shape disagreement at load. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** CRC32 (IEEE 802.3 polynomial, reflected, as zlib) of @p data. */
std::uint32_t crc32(const void *data, std::size_t size);

/** Builds a snapshot image section by section, or compares one. */
class Serializer
{
  public:
    /** v2: per-thread fetch-stall reason added to the core section
     *  (commit-slot attribution).
     *  v3: line-predictor sections store only valid entries and
     *  branch-predictor sections only counters off their reset value.
     *  v4: indirect-predictor sections store only nonzero targets. */
    static constexpr std::uint32_t formatVersion = 4;

    /** Build mode: sealed sections accumulate for finish(). */
    Serializer() = default;

    /**
     * Compare mode: nothing is built.  Every value is checked as it is
     * written against the section at the same position of
     * @p reference, a finished image taken under @p fingerprint (read
     * in place, so it must outlive this).  The first difference -- a
     * name, a byte, a payload length, the header -- ends the compare:
     * matches() reads false and every later write is a no-op, so the
     * caller can skip the sections still to come.  Nothing is
     * allocated per write, and finish() throws.
     */
    Serializer(std::string_view reference, std::uint64_t fingerprint);

    /** Open a new tagged section; primitives go to it until end(). */
    void beginSection(const std::string &name);
    /** Seal the open section (appends the payload CRC; in compare
     *  mode, a payload shorter than the reference's differs). */
    void endSection();

    void u8(std::uint8_t v) { le(v); }
    void u16(std::uint16_t v) { le(v); }
    void u32(std::uint32_t v) { le(v); }
    void u64(std::uint64_t v) { le(v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s);
    /** Raw byte blob, length-prefixed. */
    void blob(const void *data, std::size_t size);

    /** Complete image: header (with @p fingerprint) + all sections.
     *  Must be called with no section open. */
    std::string finish(std::uint64_t fingerprint) const;

    /** Compare mode: no written byte has differed from the reference
     *  so far (always true in build mode). */
    bool matches() const { return !differs; }

    /** Compare mode, once the last section is sealed: every section of
     *  the reference was written, and none differed. */
    bool matchedWhole() const;

  private:
    template <typename T>
    void le(T v)
    {
        char b[sizeof(T)];
        storeLe(b, v);
        bytes(b, sizeof(T));
    }

    /** Append @p size bytes to the open section, or compare them. */
    void bytes(const char *data, std::size_t size)
    {
        if (!comparing)
            section().append(data, size);
        else
            compare(data, size);
    }

    /** The open section's payload; throws outside a section. */
    std::string &section();
    void compare(const char *data, std::size_t size);

    std::string body;           ///< sealed sections
    std::string cur;            ///< open section payload
    std::string curName;
    bool inSection = false;
    std::uint32_t sections = 0;

    // Compare mode: the reference image and a cursor into it.
    bool comparing = false;
    bool differs = false;
    std::string_view ref;
    std::size_t refAt = 0;      ///< next byte of the open payload
    std::size_t refEnd = 0;     ///< one past the open payload
    std::size_t refNext = 0;    ///< offset of the next section frame
};

/** Reads a snapshot image produced by Serializer in place.  The
 *  image is validated whole by the constructor; sections must then be
 *  consumed in write order. */
class Deserializer
{
  public:
    /**
     * Validate all of @p image before anything is read: the header
     * (magic, version, @p expect_fingerprint), then one walk over the
     * section frames, in which each frame must fit in the image, carry
     * the next name of @p sections and match its payload CRC, and the
     * last frame must end the image.  Throws SnapshotError naming the
     * damaged section and its byte offset, so a truncated download or
     * a torn write is diagnosable from the message alone.  @p image is
     * not copied and must outlive the Deserializer.
     */
    Deserializer(std::string_view image, std::uint64_t expect_fingerprint,
                 std::span<const std::string_view> sections);

    /** Enter the next section; throws unless its name is @p name. */
    void beginSection(std::string_view name);
    /** Leave the section; throws unless the payload was consumed
     *  exactly. */
    void endSection();

    std::uint8_t u8() { return le<std::uint8_t>(); }
    std::uint16_t u16() { return le<std::uint16_t>(); }
    std::uint32_t u32() { return le<std::uint32_t>(); }
    std::uint64_t u64() { return le<std::uint64_t>(); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    bool boolean() { return u8() != 0; }
    /** A str() value, viewed in the image. */
    std::string_view str();
    /** A blob() value, viewed in the image. */
    std::span<const std::uint8_t> blob();

    /** Fingerprint carried in the image header. */
    std::uint64_t fingerprint() const { return fp; }

  private:
    void need(std::size_t n) const;
    [[noreturn]] void fail(const std::string &why) const;

    template <typename T>
    T le()
    {
        need(sizeof(T));
        pos += sizeof(T);
        return getLe<T>(data, pos - sizeof(T));
    }

    std::string_view data;
    std::size_t pos = 0;        ///< cursor within the current payload
    std::size_t payloadEnd = 0; ///< one past the current payload
    std::size_t nextSection = 0;///< offset of the next section header
    std::uint32_t sectionsLeft = 0;
    bool inSection = false;
    std::string_view curName;
    std::uint64_t fp = 0;
};

} // namespace rmt

#endif // RMTSIM_CKPT_SERIALIZER_HH
