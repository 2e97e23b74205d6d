/**
 * @file
 * Snapshottable: the interface a component implements to participate
 * in whole-machine checkpoint/restore (src/ckpt/serializer.hh), the
 * stat-tree walker shared by Chip save and load, and the periodic
 * snapshot set one fault-free run collects for trials to fork from.
 *
 * The contract is positional and symmetric: loadState() must read
 * exactly the primitives saveState() wrote, in the same order, and a
 * component is only asked to save or load at a drained quiesce point
 * (Chip::quiescedForSnapshot()), so transient queue contents never
 * appear in an image.  Each component owns one tagged section (or a
 * documented set of them) so a format disagreement fails by section
 * name rather than by silent misalignment.
 */

#ifndef RMTSIM_CKPT_SNAPSHOT_HH
#define RMTSIM_CKPT_SNAPSHOT_HH

#include <memory>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/types.hh"

namespace rmt
{

class Chip;

/** Implemented by every component with architectural or timing state
 *  that survives a drained pipeline. */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;

    /** Append this component's state to @p s (machine quiesced). */
    virtual void saveState(Serializer &s) const = 0;

    /** Restore state written by saveState() from @p d into a freshly
     *  constructed component of identical shape. */
    virtual void loadState(Deserializer &d) = 0;
};

/** One periodic snapshot: the barrier cycle and the serialized image
 *  (shared so trials on many workers alias one copy). */
struct CachedSnapshot
{
    Cycle cycle = 0;
    std::shared_ptr<const std::string> image;
};

/** All snapshots of one fault-free run, sorted by ascending cycle. */
using SnapshotSet = std::vector<CachedSnapshot>;

/** Serialize every stat (counter/average/histogram) reachable from the
 *  chip's stat-group walk, path- and name-tagged. */
void saveChipStats(Serializer &s, Chip &chip);

/** Restore the stat tree written by saveChipStats() into @p chip;
 *  throws SnapshotError if paths, names or kinds disagree. */
void loadChipStats(Deserializer &d, Chip &chip);

} // namespace rmt

#endif // RMTSIM_CKPT_SNAPSHOT_HH
