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

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::string &
Serializer::section()
{
    if (!inSection)
        throw SnapshotError("serializer: write outside a section");
    return cur;
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
    section() += s;
}

void
Serializer::blob(const void *data, std::size_t size)
{
    u64(size);
    section().append(static_cast<const char *>(data), size);
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
}

void
Serializer::endSection()
{
    if (!inSection)
        throw SnapshotError("serializer: no section open");
    putLe(body, static_cast<std::uint32_t>(curName.size()));
    body += curName;
    putLe<std::uint64_t>(body, cur.size());
    body += cur;
    putLe(body, crc32(cur.data(), cur.size()));
    cur.clear();
    inSection = false;
    ++sections;
}

std::string
Serializer::finish(std::uint64_t fingerprint) const
{
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

void
validateSnapshotImage(const std::string &image,
                      std::uint64_t expect_fingerprint)
{
    // Header checks (magic/version/fingerprint) are shared with the
    // Deserializer constructor; the section walk below is what it
    // cannot do up front, because apply-time consumption is lazy.
    Deserializer header(image, expect_fingerprint);
    (void)header;

    const auto sections = getLe<std::uint32_t>(image, 20);
    std::size_t at = 24;
    for (std::uint32_t i = 0; i < sections; ++i) {
        const std::size_t section_start = at;
        auto truncated = [&](const char *what) {
            throw SnapshotError(
                "snapshot: image truncated in " + std::string(what) +
                " of section " + std::to_string(i) + " at byte offset " +
                std::to_string(section_start) + " (image is " +
                std::to_string(image.size()) + " bytes)");
        };
        if (image.size() - at < 4)
            truncated("the name length");
        const auto name_len = getLe<std::uint32_t>(image, at);
        at += 4;
        if (image.size() - at < name_len)
            truncated("the name");
        const std::string name(image, at, name_len);
        at += name_len;
        if (image.size() - at < 8)
            truncated("the payload length");
        const auto payload_len = getLe<std::uint64_t>(image, at);
        at += 8;
        // Two-step compare: a corrupt payload_len near 2^64 must not
        // overflow the arithmetic into a passing check.
        if (payload_len > image.size() - at ||
            image.size() - at - payload_len < 4)
            truncated(("the payload of '" + name + "'").c_str());
        const auto stored = getLe<std::uint32_t>(image, at + payload_len);
        const std::uint32_t actual =
            crc32(image.data() + at, static_cast<std::size_t>(payload_len));
        if (stored != actual) {
            throw SnapshotError(
                "snapshot: section '" + name + "' (offset " +
                std::to_string(section_start) +
                ") failed its CRC check");
        }
        at += payload_len + 4;
    }
    if (at != image.size()) {
        throw SnapshotError(
            "snapshot: " + std::to_string(image.size() - at) +
            " trailing bytes after the last section (offset " +
            std::to_string(at) + ")");
    }
}

Deserializer::Deserializer(std::string image,
                           std::uint64_t expect_fingerprint)
    : data(std::move(image))
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
}

void
Deserializer::fail(const std::string &why) const
{
    throw SnapshotError("snapshot: " + why);
}

void
Deserializer::need(std::size_t n) const
{
    if (pos + n > payloadEnd) {
        fail("section '" + curName + "' truncated (needs " +
             std::to_string(n) + " more bytes)");
    }
}

void
Deserializer::beginSection(const std::string &name)
{
    if (inSection)
        fail("section '" + curName + "' still open");
    if (sectionsLeft == 0)
        fail("expected section '" + name + "' but image is exhausted");
    std::size_t at = nextSection;
    auto avail = [&](std::size_t n) {
        if (at + n > data.size())
            fail("image truncated in section header");
    };
    avail(4);
    const auto name_len = getLe<std::uint32_t>(data, at);
    at += 4;
    avail(name_len);
    curName.assign(data, at, name_len);
    at += name_len;
    avail(8);
    const auto payload_len = getLe<std::uint64_t>(data, at);
    at += 8;
    // Two-step compare: a corrupt payload_len near 2^64 must not
    // overflow the arithmetic into a passing check.
    if (payload_len > data.size() - at ||
        data.size() - at - payload_len < 4)
        fail("section '" + curName + "' truncated mid-payload");
    if (curName != name) {
        fail("expected section '" + name + "' but found '" + curName +
             "'");
    }
    const auto stored_crc = getLe<std::uint32_t>(data, at + payload_len);
    const std::uint32_t actual =
        crc32(data.data() + at, static_cast<std::size_t>(payload_len));
    if (stored_crc != actual)
        fail("section '" + curName + "' failed its CRC check");
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
        fail("section '" + curName + "' has " +
             std::to_string(payloadEnd - pos) + " unconsumed bytes");
    }
    inSection = false;
}

double
Deserializer::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
Deserializer::str()
{
    const std::uint32_t n = u32();
    need(n);
    std::string s(data, pos, n);
    pos += n;
    return s;
}

std::vector<std::uint8_t>
Deserializer::blob()
{
    const std::uint64_t n = u64();
    need(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> out(
        data.begin() + static_cast<std::ptrdiff_t>(pos),
        data.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += static_cast<std::size_t>(n);
    return out;
}

} // namespace rmt
