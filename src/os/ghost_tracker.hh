/**
 * @file
 * Horizon-LRU ghost bookkeeping, factored out of MosaicVm so each
 * shard of the sharded engine (DESIGN.md §17) reuses the exact same
 * recency-log / ghost-count / ghost-bitmap machinery.
 *
 * Invariants: every used frame has exactly one live entry in the
 * recency log (the entry of its last map or touch) unless a reap has
 * passed it; the log's live entries run in ascending lastAccess order.
 * A reap passes exactly the live entries below the horizon, so the
 * used frames at or above the horizon are the log's live entries, and
 * the used frames strictly below it are counted in ghostCount() and
 * have their bit set in bits(), which is exactly isGhostFrame() and
 * drives the bitmap placement path. Ghost status is a function of
 * the timestamps alone (paper §2.4); the log only makes a reap cost
 * O(entries it passes).
 */

#ifndef MOSAIC_OS_GHOST_TRACKER_HH_
#define MOSAIC_OS_GHOST_TRACKER_HH_

#include <cstddef>

#include "mem/frame_table.hh"
#include "os/recency_log.hh"
#include "util/bitvec.hh"
#include "util/types.hh"

namespace mosaic
{

/** Recency log + ghost accounting for one Horizon LRU clock. */
class GhostTracker
{
  public:
    explicit GhostTracker(std::size_t num_frames)
        : log_(num_frames), ghostBits_(num_frames)
    {
    }

    /**
     * Move frames that fell below @p horizon into the ghost count.
     * The log is in ascending tick order, so every newly ghosted
     * frame's live entry sits at its front; each entry is passed
     * once, amortized O(1) per touch.
     */
    void
    reap(const FrameTable &frames, Tick horizon)
    {
        log_.popOlderThan(frames, horizon, [this](Pfn pfn) {
            ghostBits_.set(pfn);
            ++ghostCount_;
        });
    }

    /** Bookkeeping for a frame about to be unmapped; a live frame's
     *  log entry goes stale with the unmap. */
    void
    noteFreed(Pfn pfn, bool was_ghost)
    {
        if (was_ghost) {
            ghostBits_.clear(pfn);
            --ghostCount_;
        }
    }

    /** A resident ghost was referenced again; record() then puts it
     *  back in the order as most recently used. */
    void
    rescue(Pfn pfn)
    {
        ghostBits_.clear(pfn);
        --ghostCount_;
    }

    /** A frame was mapped or touched and @p frames already holds its
     *  new tick: log it as most recently used. */
    void record(const FrameTable &frames, Pfn pfn) { log_.append(frames, pfn); }

    /** Remove and return the least recently used live frame, or
     *  invalidPfn when there is none; the caller evicts it. With the
     *  horizon at 0 (every policy but HorizonLru) that is the global
     *  LRU page. */
    Pfn popOldest(const FrameTable &frames) { return log_.popOldest(frames); }

    /** Resident pages that are ghosts. O(1). */
    std::size_t ghostCount() const { return ghostCount_; }

    /** PFN-indexed ghost bits, exactly isGhostFrame() per frame. */
    const BitVec &bits() const { return ghostBits_; }

  private:
    /** Used frames at or above the horizon, as their live entries. */
    RecencyLog log_;

    /** Used frames strictly below the horizon. */
    std::size_t ghostCount_ = 0;

    /** Set iff the frame is used and its lastAccess is below the
     *  horizon; maintained incrementally at the ghost transitions
     *  (reap, rescue, free). */
    BitVec ghostBits_;
};

} // namespace mosaic

#endif // MOSAIC_OS_GHOST_TRACKER_HH_
