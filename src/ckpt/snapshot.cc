#include "ckpt/snapshot.hh"

#include <cstring>
#include <vector>

#include "cmp/chip.hh"
#include "common/stats.hh"

namespace rmt
{

/**
 * One "stats" section holds every group the chip walk reaches, in walk
 * order.  Groups are tagged by walk path and stats by name+kind, so a
 * restore into a machine built from different options (different group
 * list, different registration order) fails loudly instead of writing
 * a counter into the wrong slot.
 */
void
saveChipStats(Serializer &s, Chip &chip)
{
    s.beginSection("stats");
    std::vector<std::pair<std::string, StatGroup *>> groups;
    chip.forEachStatGroup(
        [&groups](const std::string &path, StatGroup &g) {
            groups.emplace_back(path, &g);
        });
    s.u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto &[path, group] : groups) {
        s.str(path);
        const auto &stats = group->statList();
        s.u32(static_cast<std::uint32_t>(stats.size()));
        for (const StatBase *stat : stats) {
            s.str(stat->name());
            s.str(stat->kind());
            if (const auto *c = dynamic_cast<const Counter *>(stat)) {
                s.u64(c->value());
            } else if (const auto *a =
                           dynamic_cast<const Average *>(stat)) {
                s.f64(a->sum());
                s.u64(a->samples());
            } else if (const auto *h =
                           dynamic_cast<const Histogram *>(stat)) {
                s.u32(h->numBuckets());
                for (unsigned i = 0; i < h->numBuckets(); ++i)
                    s.u64(h->bucketCount(i));
                s.u64(h->overflowCount());
                s.u64(h->samples());
                s.f64(h->total());
            } else {
                throw SnapshotError("stats: unknown stat kind '" +
                                    std::string(stat->kind()) + "'");
            }
        }
    }
    s.endSection();
}

void
loadChipStats(Deserializer &d, Chip &chip)
{
    d.beginSection("stats");
    std::vector<std::pair<std::string, StatGroup *>> groups;
    chip.forEachStatGroup(
        [&groups](const std::string &path, StatGroup &g) {
            groups.emplace_back(path, &g);
        });
    const std::uint32_t n = d.u32();
    if (n != groups.size()) {
        throw SnapshotError(
            "stats: image has " + std::to_string(n) +
            " stat groups, this machine has " +
            std::to_string(groups.size()));
    }
    for (auto &[path, group] : groups) {
        const std::string_view img_path = d.str();
        if (img_path != path) {
            throw SnapshotError("stats: group path '" +
                                std::string(img_path) +
                                "' where '" + path + "' expected");
        }
        const auto &stats = group->statList();
        const std::uint32_t nstats = d.u32();
        if (nstats != stats.size()) {
            throw SnapshotError(
                "stats: group '" + path + "' has " +
                std::to_string(nstats) + " stats in the image, " +
                std::to_string(stats.size()) + " in this machine");
        }
        for (StatBase *stat : stats) {
            const std::string_view name = d.str();
            const std::string_view kind = d.str();
            if (name != stat->name() || kind != stat->kind()) {
                throw SnapshotError(
                    "stats: '" + path + "." + std::string(name) +
                    "' (" + std::string(kind) +
                    ") where '" + path + "." + stat->name() + "' (" +
                    stat->kind() + ") expected");
            }
            if (auto *c = dynamic_cast<Counter *>(stat)) {
                c->set(d.u64());
            } else if (auto *a = dynamic_cast<Average *>(stat)) {
                const double sum = d.f64();
                const std::uint64_t count = d.u64();
                a->restore(sum, count);
            } else if (auto *h = dynamic_cast<Histogram *>(stat)) {
                const std::uint32_t buckets = d.u32();
                if (buckets != h->numBuckets()) {
                    throw SnapshotError("stats: histogram '" + path +
                                        "." + std::string(name) +
                                        "' bucket layout mismatch");
                }
                std::vector<std::uint64_t> counts(buckets);
                for (std::uint32_t i = 0; i < buckets; ++i)
                    counts[i] = d.u64();
                const std::uint64_t overflow = d.u64();
                const std::uint64_t samples = d.u64();
                const double total = d.f64();
                h->restore(counts, overflow, samples, total);
            } else {
                throw SnapshotError("stats: unknown stat kind '" +
                                    std::string(stat->kind()) + "'");
            }
        }
    }
    d.endSection();
}

} // namespace rmt
