/**
 * @file
 * A generic set-associative cache array with true-LRU replacement,
 * shared by the vanilla and mosaic TLB models.
 *
 * The paper stresses that mosaic's mapping restrictions are
 * orthogonal to the TLB's own cache organization (§3.1): a mosaic TLB
 * can be direct-mapped through fully associative, exactly like a
 * conventional one. This array implements that whole range: ways ==
 * entries gives a fully associative table, ways == 1 direct-mapped.
 *
 * Lookup and replacement cost: for small associativities the way
 * scan is a handful of comparisons, and victim choice scans each
 * way's last-use stamp. Fully associative configurations (the
 * 1024-way Fig 6 column, the walk cache, fuzzer geometries) would
 * scan every entry per probe and per fill, so arrays with more than
 * 8 ways switch to an indexed mode where every operation is O(1):
 *  - a TagIndex from tag to the *lowest-way valid* matching entry
 *    makes find/peek O(1) while preserving the scan's first-match
 *    semantics, even for duplicate tags (fillConventional can
 *    legitimately create them). The index relies on every tag
 *    embedding its index key (true for all in-tree tag schemes), so
 *    a tag determines its set;
 *  - a per-set intrusive recency list of the valid ways (32-bit
 *    links beside the array, MRU at the head) replaces the stamps:
 *    a hit or a fill moves the way to the head, invalidation unlinks
 *    it, and the LRU victim is the tail;
 *  - a per-set bitmask of invalid ways yields the lowest invalid way
 *    in O(ways/64) word tests, skipped outright when the set is full;
 *  - a count of duplicate entries per tag (normally empty) tells an
 *    eviction or invalidation whether a surviving duplicate must be
 *    searched for; only then is the set rescanned.
 * Both modes pick exactly the same victims: the lowest invalid way,
 * else the least recently used one (unique, since the stamps come
 * from a strictly increasing clock and the list is a total order).
 */

#ifndef MOSAIC_TLB_SET_ASSOC_HH_
#define MOSAIC_TLB_SET_ASSOC_HH_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/fastmod.hh"
#include "util/flat_map.hh"
#include "util/log.hh"
#include "util/types.hh"

namespace mosaic
{

/** Cache organization of a TLB. */
struct TlbGeometry
{
    /** Total entries (paper: 1024). */
    unsigned entries = 1024;

    /** Associativity; entries for fully associative, 1 for direct. */
    unsigned ways = 4;

    unsigned sets() const { return entries / ways; }

    void
    check() const
    {
        ensure(entries > 0 && ways > 0, "tlb: empty geometry");
        ensure(ways <= entries, "tlb: more ways than entries");
        ensure(entries % ways == 0, "tlb: entries must divide into sets");
    }
};

/**
 * Tag -> entry index map for SetAssocArray's indexed mode: linear
 * probing over a power-of-two table kept at most half full, with
 * backward-shift deletion. A full array evicts on every fill, one
 * erase and one insert; a tombstone map (FlatMap) degrades to long
 * probe chains and periodic rehashes under that churn, this one
 * keeps every probe short.
 */
class TagIndex
{
  public:
    /** Size for up to n keys (n below 2^32 - 1). The table never
     *  grows: callers hold at most n keys, so it stays half empty. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = 16;
        while (cap < 2 * n)
            cap *= 2;
        mask_ = cap - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
        slots_.assign(cap, Slot{});
    }

    /** The mapped entry, or nullptr when the tag is absent. */
    std::uint32_t *
    find(std::uint64_t tag)
    {
        for (std::size_t p = home(tag);; p = (p + 1) & mask_) {
            if (slots_[p].entry == empty)
                return nullptr;
            if (slots_[p].tag == tag)
                return &slots_[p].entry;
        }
    }

    const std::uint32_t *
    find(std::uint64_t tag) const
    {
        return const_cast<TagIndex *>(this)->find(tag);
    }

    /** The tag's value and whether it was absent; a new tag's value
     *  is for the caller to set. Valid until the next mutation. */
    std::pair<std::uint32_t &, bool>
    emplace(std::uint64_t tag)
    {
        std::size_t p = home(tag);
        for (; slots_[p].entry != empty; p = (p + 1) & mask_) {
            if (slots_[p].tag == tag)
                return {slots_[p].entry, false};
        }
        slots_[p].tag = tag;
        return {slots_[p].entry, true};
    }

    /** Remove a tag, shifting its probe chain back over the hole. */
    void
    erase(std::uint64_t tag)
    {
        std::size_t hole = home(tag);
        while (slots_[hole].entry != empty && slots_[hole].tag != tag)
            hole = (hole + 1) & mask_;
        if (slots_[hole].entry == empty)
            return;
        for (std::size_t q = (hole + 1) & mask_; slots_[q].entry != empty;
             q = (q + 1) & mask_) {
            // q may fill the hole if its home is not in (hole, q].
            if (((q - home(slots_[q].tag)) & mask_) >= ((q - hole) & mask_)) {
                slots_[hole] = slots_[q];
                hole = q;
            }
        }
        slots_[hole] = Slot{};
    }

    void clear() { std::fill(slots_.begin(), slots_.end(), Slot{}); }

  private:
    static constexpr std::uint32_t empty = ~std::uint32_t{0};

    struct Slot
    {
        std::uint64_t tag = 0;
        std::uint32_t entry = empty;
    };

    /** Fibonacci hashing: the top bits of tag * 2^64/phi. */
    std::size_t
    home(std::uint64_t tag) const
    {
        return static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ull) >>
                                        shift_);
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

/**
 * The tag/data array. Replacement is true LRU within a set: a
 * monotonic use stamp per entry in scan mode, a recency list in
 * indexed mode.
 */
template <typename Payload>
class SetAssocArray
{
  public:
    struct Entry
    {
        std::uint64_t tag = 0;
        /** Scan mode's recency stamp; unused in indexed mode. */
        Tick lastUse = 0;
        bool valid = false;
        Payload payload{};
    };

    explicit SetAssocArray(const TlbGeometry &geometry)
        : geometry_(geometry), entries_(geometry.entries)
    {
        geometry_.check();
        sets_ = geometry_.sets();
        if (std::has_single_bit(sets_))
            setMask_ = sets_ - 1;
        if (geometry_.ways > indexThresholdWays) {
            ix_ = std::make_unique<Indexed>();
            ix_->tags.reserve(geometry_.entries);
            ix_->waysDiv = FastMod32(geometry_.ways);
            ix_->wordsPerSet = (geometry_.ways + 63) / 64;
            ix_->order.resize(geometry_.entries + sets_);
            ix_->invalidWays.resize(std::size_t{ix_->wordsPerSet} *
                                    sets_);
            ix_->freeWays.resize(sets_);
            resetReplacement();
        }
    }

    const TlbGeometry &geometry() const { return geometry_; }

    /** Set index for an index key (e.g. a VPN or MVPN). A mask when
     *  the set count is a power of two (every Fig 6 geometry), which
     *  spares the lookup path two divisions. */
    std::uint64_t
    setOf(std::uint64_t index_key) const
    {
        return setMask_ ? index_key & *setMask_ : index_key % sets_;
    }

    /** Find a valid entry with this tag; updates recency on hit.
     *  Forced inline: it is the TLB lookups' whole hot path. */
    [[gnu::always_inline]] Entry *
    find(std::uint64_t index_key, std::uint64_t tag)
    {
        if (ix_) {
            const std::uint32_t *idx = ix_->tags.find(tag);
            if (!idx)
                return nullptr;
            const std::uint32_t i = *idx;
            touch(i);
            return &entries_[i];
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (e.valid && e.tag == tag) {
                e.lastUse = ++useClock_;
                return &e;
            }
        }
        return nullptr;
    }

    /**
     * Prefetch the tag/data lines of the set an index key maps to —
     * a pure performance hint the batched translation pipeline
     * issues one stage before the lookups that consume them. Indexed
     * (high-associativity) arrays resolve through the tag hash
     * instead of a set scan, so there is nothing useful to warm.
     */
    void
    prefetchSet(std::uint64_t index_key) const
    {
        if (ix_)
            return;
        const Entry *base = &entries_[setOf(index_key) * geometry_.ways];
        for (unsigned w = 0; w < geometry_.ways; w += 2)
            __builtin_prefetch(base + w);
    }

    /** Find without updating recency (for inspection). */
    const Entry *
    peek(std::uint64_t index_key, std::uint64_t tag) const
    {
        if (ix_) {
            const std::uint32_t *idx = ix_->tags.find(tag);
            return idx ? &entries_[*idx] : nullptr;
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            const Entry &e = at(set, w);
            if (e.valid && e.tag == tag)
                return &e;
        }
        return nullptr;
    }

    /**
     * Claim an entry for this tag: an invalid way if one exists,
     * otherwise the LRU way (setting *evicted). The returned entry is
     * marked valid and most recently used; the caller sets the
     * payload.
     */
    Entry &
    allocate(std::uint64_t index_key, std::uint64_t tag, bool *evicted)
    {
        const std::uint64_t set = setOf(index_key);
        if (ix_)
            return allocateIndexed(set, tag, evicted);
        Entry *victim = nullptr;
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
        *evicted = victim->valid;
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = ++useClock_;
        victim->payload = Payload{};
        return *victim;
    }

    /** Invalidate a specific tag; true when something was dropped. */
    bool
    invalidate(std::uint64_t index_key, std::uint64_t tag)
    {
        if (ix_) {
            const std::uint32_t *idx = ix_->tags.find(tag);
            if (!idx)
                return false;
            const std::uint32_t i = *idx;
            release(i);
            unindex(tag, i);
            return true;
        }
        const std::uint64_t set = setOf(index_key);
        for (unsigned w = 0; w < geometry_.ways; ++w) {
            Entry &e = at(set, w);
            if (e.valid && e.tag == tag) {
                e.valid = false;
                return true;
            }
        }
        return false;
    }

    /** Invalidate every entry matching a predicate on (tag, payload);
     *  returns how many were dropped. */
    template <typename Pred>
    unsigned
    invalidateIf(Pred &&pred)
    {
        unsigned dropped = 0;
        for (std::uint32_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (e.valid && pred(e.tag, e.payload)) {
                if (ix_)
                    release(i);
                else
                    e.valid = false;
                ++dropped;
            }
        }
        if (ix_ && dropped > 0)
            rebuildIndex();
        return dropped;
    }

    /** Drop everything. */
    void
    flush()
    {
        for (Entry &e : entries_)
            e.valid = false;
        if (ix_) {
            ix_->tags.clear();
            ix_->dupes.clear();
            resetReplacement();
        }
    }

    /** Number of currently valid entries. */
    unsigned
    validEntries() const
    {
        unsigned n = 0;
        for (const Entry &e : entries_)
            n += e.valid ? 1 : 0;
        return n;
    }

    /** The way an entry occupies within its set. */
    unsigned
    wayOf(const Entry &e) const
    {
        return static_cast<unsigned>((&e - entries_.data()) %
                                     geometry_.ways);
    }

    /** Visit every valid entry as fn(tag, payload); no recency
     *  effects. Used to total translation reach across an array. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Entry &e : entries_) {
            if (e.valid)
                fn(e.tag, e.payload);
        }
    }

  private:
    // Below this associativity the way scan beats a hash lookup.
    static constexpr unsigned indexThresholdWays = 8;

    Entry &
    at(std::uint64_t set, unsigned way)
    {
        return entries_[set * geometry_.ways + way];
    }

    const Entry &
    at(std::uint64_t set, unsigned way) const
    {
        return entries_[set * geometry_.ways + way];
    }

    /** Doubly linked recency-list node; sets() sentinels follow the
     *  entries (sentinel.next is the MRU way, sentinel.prev the LRU). */
    struct Link
    {
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    std::uint32_t
    sentinelOf(std::uint64_t set) const
    {
        return static_cast<std::uint32_t>(geometry_.entries + set);
    }

    std::uint64_t
    setOfEntry(std::uint32_t i) const
    {
        return ix_->waysDiv.div(i);
    }

    void
    unlink(std::uint32_t i)
    {
        // Field by field: an 8-byte load of a link whose halves were
        // just stored separately would defeat store forwarding.
        std::vector<Link> &order = ix_->order;
        const std::uint32_t prev = order[i].prev;
        const std::uint32_t next = order[i].next;
        order[prev].next = next;
        order[next].prev = prev;
    }

    void
    pushFront(std::uint32_t i, std::uint64_t set)
    {
        const std::uint32_t head = sentinelOf(set);
        std::vector<Link> &order = ix_->order;
        const std::uint32_t first = order[head].next;
        order[i] = Link{head, first};
        order[first].prev = i;
        order[head].next = i;
    }

    /** Make entry i the most recently used way of its set. */
    void
    touch(std::uint32_t i)
    {
        const std::uint64_t set = setOfEntry(i);
        if (ix_->order[i].prev == sentinelOf(set))
            return; // already at the head
        unlink(i);
        pushFront(i, set);
    }

    /** Every way invalid, every recency list empty. */
    void
    resetReplacement()
    {
        const unsigned ways = geometry_.ways;
        const unsigned per_set = ix_->wordsPerSet;
        for (std::uint64_t set = 0; set < sets_; ++set) {
            const std::uint32_t head = sentinelOf(set);
            ix_->order[head] = Link{head, head};
            ix_->freeWays[set] = ways;
            std::uint64_t *words = &ix_->invalidWays[set * per_set];
            for (unsigned w = 0; w < per_set; ++w) {
                const unsigned left = ways - w * 64;
                words[w] = left >= 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << left) - 1;
            }
        }
    }

    /** Invalidate a valid entry: unlink it and free its way. The tag
     *  index is the caller's to update. */
    void
    release(std::uint32_t i)
    {
        entries_[i].valid = false;
        unlink(i);
        const std::uint64_t set = setOfEntry(i);
        const unsigned way = static_cast<unsigned>(
            i - set * geometry_.ways);
        ix_->invalidWays[set * ix_->wordsPerSet + way / 64] |=
            std::uint64_t{1} << (way % 64);
        ++ix_->freeWays[set];
    }

    Entry &
    allocateIndexed(std::uint64_t set, std::uint64_t tag, bool *evicted)
    {
        std::uint32_t i;
        if (ix_->freeWays[set] > 0) {
            // The lowest invalid way, exactly as the scan finds it.
            std::uint64_t *words =
                &ix_->invalidWays[set * ix_->wordsPerSet];
            unsigned w = 0;
            while (words[w] == 0)
                ++w;
            const unsigned bit =
                static_cast<unsigned>(std::countr_zero(words[w]));
            words[w] &= words[w] - 1;
            --ix_->freeWays[set];
            i = static_cast<std::uint32_t>(set * geometry_.ways +
                                           w * 64 + bit);
            *evicted = false;
        } else {
            // Full set: the list tail is the least recently used way.
            i = ix_->order[sentinelOf(set)].prev;
            *evicted = true;
            unlink(i);
            unindex(entries_[i].tag, i);
        }
        Entry &e = entries_[i];
        e.valid = true;
        e.tag = tag;
        e.payload = Payload{};
        pushFront(i, set);
        indexInsert(tag, i);
        return e;
    }

    /** Point the index at this entry unless a lower way already
     *  holds the same tag (first-match semantics for duplicates). */
    void
    indexInsert(std::uint64_t tag, std::uint32_t i)
    {
        auto [slot, inserted] = ix_->tags.emplace(tag);
        if (inserted) {
            slot = i;
            return;
        }
        if (i < slot)
            slot = i;
        auto [extra, first_dupe] = ix_->dupes.emplace(tag);
        extra = first_dupe ? 1 : extra + 1;
    }

    /**
     * Entry i, which carried this tag, went away (evicted or
     * invalidated). Without a duplicate the tag leaves the index;
     * with one, the index must name the lowest-way survivor, which
     * takes a rescan of the set only if i was the entry it named.
     */
    void
    unindex(std::uint64_t tag, std::uint32_t i)
    {
        std::uint32_t *extra =
            ix_->dupes.empty() ? nullptr : ix_->dupes.find(tag);
        if (!extra) {
            ix_->tags.erase(tag);
            return;
        }
        if (--*extra == 0)
            ix_->dupes.erase(tag);
        std::uint32_t *slot = ix_->tags.find(tag);
        if (*slot != i)
            return;
        const auto base =
            static_cast<std::uint32_t>(setOfEntry(i) * geometry_.ways);
        for (std::uint32_t j = base; j < base + geometry_.ways; ++j) {
            if (j != i && entries_[j].valid && entries_[j].tag == tag) {
                *slot = j;
                return;
            }
        }
        panic("tlb: duplicate count without a surviving duplicate");
    }

    void
    rebuildIndex()
    {
        ix_->tags.clear();
        ix_->dupes.clear();
        for (std::uint32_t i = 0; i < entries_.size(); ++i) {
            // Ascending order keeps the lowest-way invariant.
            if (entries_[i].valid)
                indexInsert(entries_[i].tag, i);
        }
    }

    /** Indexed mode's bookkeeping (see the file comment). Scan-mode
     *  arrays leave it unallocated and stay as small as the scan
     *  needs. */
    struct Indexed
    {
        TagIndex tags;
        FlatMap<std::uint64_t, std::uint32_t> dupes; // tag -> extra copies
        FastMod32 waysDiv;
        unsigned wordsPerSet = 0;
        std::vector<Link> order;
        std::vector<std::uint64_t> invalidWays;
        std::vector<std::uint32_t> freeWays;
    };

    TlbGeometry geometry_;
    std::uint64_t sets_ = 1;
    std::optional<std::uint64_t> setMask_;
    std::vector<Entry> entries_;
    Tick useClock_ = 0;
    std::unique_ptr<Indexed> ix_; // set when ways > indexThresholdWays
};

} // namespace mosaic

#endif // MOSAIC_TLB_SET_ASSOC_HH_
