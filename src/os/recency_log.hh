/**
 * @file
 * The recency order of used frames, kept as an append-only touch log
 * (DESIGN.md §12.1).
 *
 * Every map or touch of a frame appends (tick, pfn). An entry is live
 * iff its frame is used and the frame's lastAccess equals the entry's
 * tick. A VM touches one frame per tick, so each used frame has
 * exactly one live entry, its latest; every older entry of the frame
 * is stale. Entries are appended in tick order, so the live entries,
 * front to back, are the used frames from least to most recently
 * used: the order an intrusive LRU list keeps, without the list's
 * per-touch unlink through two random neighbours.
 *
 * The log holds 2 x frames entries of 12 bytes (a tick and a 32-bit
 * PFN, in two arrays): the 24 B/frame of a doubly linked list node.
 * When the tail reaches the end, the log compacts in place: the live
 * entries (at most one per frame) slide to the front in order and
 * the stale ones are dropped, so at least half the log is free again
 * and an append costs amortized O(1).
 */

#ifndef MOSAIC_OS_RECENCY_LOG_HH_
#define MOSAIC_OS_RECENCY_LOG_HH_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "mem/frame_table.hh"
#include "util/log.hh"
#include "util/types.hh"

namespace mosaic
{

/** Used frames in least-recently-used order, as a touch log. */
class RecencyLog
{
  public:
    explicit RecencyLog(std::size_t num_frames)
        : capacity_(std::max<std::size_t>(2 * num_frames, 2)),
          ticks_(std::make_unique_for_overwrite<Tick[]>(capacity_)),
          pfns_(std::make_unique_for_overwrite<std::uint32_t[]>(capacity_))
    {
        ensure(num_frames <= std::size_t{1} << 32,
               "recency_log: frame numbers must fit 32 bits");
    }

    /** Entries held, live or stale. */
    std::size_t size() const { return tail_ - head_; }

    /** Entries the log can hold before it compacts. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Record that @p pfn was just mapped or touched: @p frames must
     * already hold its new lastAccess, which becomes the entry's
     * tick. The frame's previous entry goes stale.
     */
    void
    append(const FrameTable &frames, Pfn pfn)
    {
        if (tail_ == capacity_)
            compact(frames);
        ticks_[tail_] = frames.lastAccessOf(pfn);
        pfns_[tail_] = static_cast<std::uint32_t>(pfn);
        ++tail_;
    }

    /**
     * Drop every entry older than @p horizon, calling @p fn(pfn) for
     * each live one, least recently used first. Those are exactly the
     * used frames whose lastAccess is below @p horizon and that an
     * earlier call has not already passed.
     */
    template <typename Fn>
    void
    popOlderThan(const FrameTable &frames, Tick horizon, Fn &&fn)
    {
        for (; head_ < tail_ && ticks_[head_] < horizon; ++head_) {
            prefetchAhead(frames, head_);
            if (live(frames, head_))
                fn(Pfn{pfns_[head_]});
        }
    }

    /**
     * Remove and return the least recently used frame, or invalidPfn
     * when no frame is used. The caller frees the frame: until then
     * it is used but has no live entry.
     */
    Pfn
    popOldest(const FrameTable &frames)
    {
        for (; head_ < tail_; ++head_) {
            prefetchAhead(frames, head_);
            if (live(frames, head_))
                return pfns_[head_++];
        }
        return invalidPfn;
    }

  private:
    /** Entries whose frames' ticks are prefetched ahead of a scan. */
    static constexpr std::size_t scanAhead = 16;

    bool
    live(const FrameTable &frames, std::size_t i) const
    {
        const Pfn pfn = pfns_[i];
        return frames.lastAccessOf(pfn) == ticks_[i] && frames.isUsed(pfn);
    }

    void
    prefetchAhead(const FrameTable &frames, std::size_t i) const
    {
        if (i + scanAhead < tail_)
            frames.prefetchTick(pfns_[i + scanAhead]);
    }

    /** Slide the live entries to the front, in order. */
    void
    compact(const FrameTable &frames)
    {
        std::size_t kept = 0;
        for (std::size_t i = head_; i < tail_; ++i) {
            prefetchAhead(frames, i);
            if (live(frames, i)) {
                ticks_[kept] = ticks_[i];
                pfns_[kept] = pfns_[i];
                ++kept;
            }
        }
        head_ = 0;
        tail_ = kept;
        ensure(tail_ < capacity_, "recency_log: more live entries than frames");
    }

    std::size_t capacity_;
    std::unique_ptr<Tick[]> ticks_;
    std::unique_ptr<std::uint32_t[]> pfns_;

    /** Entries [head_, tail_) are held; head_ is the oldest. */
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_OS_RECENCY_LOG_HH_
