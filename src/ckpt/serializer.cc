#include "ckpt/serializer.hh"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace rmt
{

namespace
{

constexpr char kMagic[8] = {'R', 'M', 'T', 'S', 'N', 'A', 'P', '\0'};

/** Slice-by-8 tables: t[0] is the bytewise table of the reflected IEEE
 *  polynomial, and t[k][i] is the CRC of byte i followed by k zero
 *  bytes, so eight table lookups fold eight input bytes at once. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr CrcTables kCrc = makeCrcTables();

/** The little-endian u32 at @p p (any alignment, any host order). */
inline std::uint32_t
le32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = le32(p) ^ c;
        const std::uint32_t hi = le32(p + 4);
        c = kCrc[7][lo & 0xffu] ^ kCrc[6][(lo >> 8) & 0xffu] ^
            kCrc[5][(lo >> 16) & 0xffu] ^ kCrc[4][lo >> 24] ^
            kCrc[3][hi & 0xffu] ^ kCrc[2][(hi >> 8) & 0xffu] ^
            kCrc[1][(hi >> 16) & 0xffu] ^ kCrc[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = kCrc[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

Serializer::Serializer(std::string_view reference,
                       std::uint64_t fingerprint)
    : comparing(true), ref(reference), refNext(24)
{
    differs = ref.size() < 24 ||
              std::memcmp(ref.data(), kMagic, sizeof(kMagic)) != 0 ||
              getLe<std::uint32_t>(ref, 8) != formatVersion ||
              getLe<std::uint64_t>(ref, 12) != fingerprint;
}

std::string &
Serializer::section()
{
    if (!inSection)
        throw SnapshotError("serializer: write outside a section");
    return cur;
}

void
Serializer::compare(const char *data, std::size_t size)
{
    if (!inSection)
        throw SnapshotError("serializer: write outside a section");
    if (differs)
        return;
    if (size > refEnd - refAt ||
        std::memcmp(ref.data() + refAt, data, size) != 0) {
        differs = true;
        return;
    }
    refAt += size;
}

void
Serializer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Serializer::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

void
Serializer::blob(const void *data, std::size_t size)
{
    u64(size);
    bytes(static_cast<const char *>(data), size);
}

void
Serializer::beginSection(const std::string &name)
{
    if (inSection)
        throw SnapshotError("serializer: section '" + curName +
                            "' still open");
    inSection = true;
    curName = name;
    cur.clear();
    if (!comparing || differs)
        return;
    // The reference's next frame: name length, name, payload length
    // (payload and CRC follow).  Bounds are checked here, since the
    // reference is never validated as a whole.
    std::size_t at = refNext;
    if (ref.size() - at < 4 ||
        ref.size() - at - 4 < getLe<std::uint32_t>(ref, at)) {
        differs = true;
        return;
    }
    const std::uint32_t name_len = getLe<std::uint32_t>(ref, at);
    at += 4;
    if (ref.substr(at, name_len) != name || ref.size() - at - name_len < 8) {
        differs = true;
        return;
    }
    at += name_len;
    const auto payload_len = getLe<std::uint64_t>(ref, at);
    at += 8;
    if (payload_len > ref.size() - at || ref.size() - at - payload_len < 4) {
        differs = true;
        return;
    }
    refAt = at;
    refEnd = at + static_cast<std::size_t>(payload_len);
}

void
Serializer::endSection()
{
    if (!inSection)
        throw SnapshotError("serializer: no section open");
    inSection = false;
    ++sections;
    if (comparing) {
        // A payload that stopped short of the reference's differs too.
        differs = differs || refAt != refEnd;
        refNext = refEnd + 4;
        return;
    }
    putLe(body, static_cast<std::uint32_t>(curName.size()));
    body += curName;
    putLe<std::uint64_t>(body, cur.size());
    body += cur;
    putLe(body, crc32(cur.data(), cur.size()));
    cur.clear();
}

bool
Serializer::matchedWhole() const
{
    return comparing && !differs && !inSection &&
           refNext == ref.size() &&
           getLe<std::uint32_t>(ref, 20) == sections;
}

std::string
Serializer::finish(std::uint64_t fingerprint) const
{
    if (comparing)
        throw SnapshotError("serializer: finish() in compare mode");
    if (inSection)
        throw SnapshotError("serializer: section '" + curName +
                            "' still open at finish");
    std::string out;
    out.reserve(8 + 4 + 8 + 4 + body.size());
    out.append(kMagic, sizeof(kMagic));
    putLe(out, formatVersion);
    putLe(out, fingerprint);
    putLe(out, sections);
    out += body;
    return out;
}

Deserializer::Deserializer(std::string_view image,
                           std::uint64_t expect_fingerprint,
                           std::span<const std::string_view> sections)
    : data(image)
{
    if (data.size() < 8 + 4 + 8 + 4)
        throw SnapshotError("snapshot: image truncated (no header)");
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        throw SnapshotError("snapshot: bad magic (not a snapshot file)");
    const auto version = getLe<std::uint32_t>(data, 8);
    if (version != Serializer::formatVersion) {
        throw SnapshotError(
            "snapshot: format version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(Serializer::formatVersion) + ")");
    }
    fp = getLe<std::uint64_t>(data, 12);
    if (fp != expect_fingerprint) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "%016llx, expected %016llx",
                      static_cast<unsigned long long>(fp),
                      static_cast<unsigned long long>(expect_fingerprint));
        throw SnapshotError(
            std::string("snapshot: options fingerprint mismatch: "
                        "image was taken under ") + buf +
            " (run with the same configuration it was saved with)");
    }
    sectionsLeft = getLe<std::uint32_t>(data, 20);
    nextSection = 24;
    if (sectionsLeft != sections.size()) {
        throw SnapshotError(
            "snapshot: header counts " + std::to_string(sectionsLeft) +
            " sections, expected " + std::to_string(sections.size()));
    }

    // The one validation walk: every frame, name and CRC, before any
    // value is read.  beginSection() relies on it and re-reads frames
    // without bounds checks.
    std::size_t at = nextSection;
    for (std::size_t i = 0; i < sections.size(); ++i) {
        const std::size_t section_start = at;
        auto truncated = [&](const std::string &what) {
            throw SnapshotError(
                "snapshot: image truncated in " + what + " of section " +
                std::to_string(i) + " at byte offset " +
                std::to_string(section_start) + " (image is " +
                std::to_string(data.size()) + " bytes)");
        };
        if (data.size() - at < 4)
            truncated("the name length");
        const auto name_len = getLe<std::uint32_t>(data, at);
        at += 4;
        if (data.size() - at < name_len)
            truncated("the name");
        const std::string_view name = data.substr(at, name_len);
        at += name_len;
        if (name != sections[i]) {
            throw SnapshotError(
                "snapshot: section " + std::to_string(i) + " (offset " +
                std::to_string(section_start) + ") is named '" +
                std::string(name) + "', expected '" +
                std::string(sections[i]) + "'");
        }
        if (data.size() - at < 8)
            truncated("the payload length");
        const auto payload_len = getLe<std::uint64_t>(data, at);
        at += 8;
        // Two-step compare: a corrupt payload_len near 2^64 must not
        // overflow the arithmetic into a passing check.
        if (payload_len > data.size() - at ||
            data.size() - at - payload_len < 4)
            truncated("the payload of '" + std::string(name) + "'");
        const auto stored = getLe<std::uint32_t>(data, at + payload_len);
        if (stored != crc32(data.data() + at,
                            static_cast<std::size_t>(payload_len))) {
            throw SnapshotError(
                "snapshot: section '" + std::string(name) +
                "' (offset " + std::to_string(section_start) +
                ") failed its CRC check");
        }
        at += payload_len + 4;
    }
    if (at != data.size()) {
        throw SnapshotError(
            "snapshot: " + std::to_string(data.size() - at) +
            " trailing bytes after the last section (offset " +
            std::to_string(at) + ")");
    }
}

void
Deserializer::fail(const std::string &why) const
{
    throw SnapshotError("snapshot: " + why);
}

void
Deserializer::need(std::size_t n) const
{
    if (n > payloadEnd - pos) {
        fail("section '" + std::string(curName) + "' truncated (needs " +
             std::to_string(n) + " more bytes)");
    }
}

void
Deserializer::beginSection(std::string_view name)
{
    if (inSection)
        fail("section '" + std::string(curName) + "' still open");
    if (sectionsLeft == 0) {
        fail("expected section '" + std::string(name) +
             "' but image is exhausted");
    }
    // The constructor's walk has bounds- and CRC-checked this frame.
    std::size_t at = nextSection;
    const auto name_len = getLe<std::uint32_t>(data, at);
    at += 4;
    curName = data.substr(at, name_len);
    at += name_len;
    const auto payload_len = getLe<std::uint64_t>(data, at);
    at += 8;
    if (curName != name) {
        fail("expected section '" + std::string(name) + "' but found '" +
             std::string(curName) + "'");
    }
    pos = at;
    payloadEnd = at + static_cast<std::size_t>(payload_len);
    nextSection = payloadEnd + 4;
    inSection = true;
    --sectionsLeft;
}

void
Deserializer::endSection()
{
    if (!inSection)
        fail("no section open");
    if (pos != payloadEnd) {
        fail("section '" + std::string(curName) + "' has " +
             std::to_string(payloadEnd - pos) + " unconsumed bytes");
    }
    inSection = false;
}

double
Deserializer::f64()
{
    return std::bit_cast<double>(u64());
}

std::string_view
Deserializer::str()
{
    const std::uint32_t n = u32();
    need(n);
    pos += n;
    return data.substr(pos - n, n);
}

std::span<const std::uint8_t>
Deserializer::blob()
{
    const std::uint64_t n = u64();
    need(static_cast<std::size_t>(n));
    const auto *p = reinterpret_cast<const std::uint8_t *>(data.data());
    pos += static_cast<std::size_t>(n);
    return {p + pos - n, static_cast<std::size_t>(n)};
}

} // namespace rmt
