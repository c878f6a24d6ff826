/**
 * @file
 * Reference models for every registered translation design (DESIGN.md
 * §14): the same access/fill/prefetch/invalidate contract as
 * TranslationDesign, one model per registry kind, built on a
 * deliberately naive set-associative array instead of the packed
 * SetAssocArray the real designs use.
 *
 * OracleSetAssoc keeps each set as a std::list ordered by recency
 * (front = most recently used), so true-LRU replacement is structural
 * rather than clock- or link-driven. The leaf models (vanilla,
 * mosaic, coalesced, perforated) sit directly on it; their tag forms,
 * probe order, sub-entry fills, coalescing rules and hole handling
 * are transcribed from the documented behaviour of the real TLBs,
 * including the subtle points:
 *  - a probe that matches a tag refreshes recency even when the
 *    caller then reports a miss (absent sub-entry, cleared mask bit,
 *    perforation hole);
 *  - fills allocate the lowest invalid way when one exists,
 *    otherwise the true-LRU way.
 *
 * The fill policies (the coalescer's 7 neighbour probes, the
 * perforated 511-probe hole bitmap) and the wrapper policies (stride
 * trigger conditions, PWC discounting, contiguity mining) are
 * transcribed op for op from the real designs — the differential
 * value is in the underlying cache structures, whose LRU order,
 * eviction choices and counter accounting are derived independently.
 * Walk payloads come through the shared TranslationWalker interface,
 * so both sides are always fed identical page-table answers.
 */

#ifndef MOSAIC_ORACLE_ORACLE_DESIGNS_HH_
#define MOSAIC_ORACLE_ORACLE_DESIGNS_HH_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <vector>

#include "tlb/design_registry.hh"
#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
#include "tlb/translation_design.hh"
#include "util/types.hh"

namespace mosaic
{

/**
 * The naive reference array: per-set recency lists. Each entry also
 * records the way it occupies, so the reference fixes the same slots
 * as the real array: a fill takes the lowest free way, else the LRU
 * entry's way, and a tag held by several entries resolves to the one
 * in the lowest way.
 *
 * @tparam Payload the per-entry payload, as in SetAssocArray.
 */
template <typename Payload>
class OracleSetAssoc
{
  public:
    struct Entry
    {
        std::uint64_t tag = 0;
        unsigned way = 0;
        Payload payload{};
    };

    explicit OracleSetAssoc(const TlbGeometry &geometry)
        : ways_(geometry.ways), sets_(geometry.sets())
    {
        geometry.check();
    }

    std::uint64_t setOf(std::uint64_t index_key) const
    {
        return index_key % sets_.size();
    }

    /** Find an entry; refreshes recency on a tag match. */
    Payload *
    find(std::uint64_t index_key, std::uint64_t tag)
    {
        auto &set = sets_[setOf(index_key)];
        const auto it = lowestMatch(set, tag);
        if (it == set.end())
            return nullptr;
        set.splice(set.begin(), set, it);
        return &set.front().payload;
    }

    /** Claim an entry for the tag; sets *evicted when a valid entry
     *  was displaced, and *way (when given) to the way claimed. */
    Payload &
    allocate(std::uint64_t index_key, std::uint64_t tag, bool *evicted,
             unsigned *way = nullptr)
    {
        auto &set = sets_[setOf(index_key)];
        *evicted = set.size() >= ways_;
        unsigned claimed = 0;
        if (*evicted) {
            claimed = set.back().way; // the least recently used entry
            set.pop_back();
        } else {
            std::vector<bool> used(ways_, false);
            for (const auto &entry : set)
                used[entry.way] = true;
            while (used[claimed])
                ++claimed;
        }
        if (way)
            *way = claimed;
        set.push_front(Entry{tag, claimed, Payload{}});
        return set.front().payload;
    }

    /** Find without refreshing recency (for inspection only). */
    const Payload *
    peek(std::uint64_t index_key, std::uint64_t tag) const
    {
        const auto &set = sets_[setOf(index_key)];
        const auto it = lowestMatch(set, tag);
        return it == set.end() ? nullptr : &it->payload;
    }

    bool
    invalidate(std::uint64_t index_key, std::uint64_t tag)
    {
        auto &set = sets_[setOf(index_key)];
        const auto it = lowestMatch(set, tag);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    template <typename Pred>
    unsigned
    invalidateIf(Pred &&pred)
    {
        unsigned dropped = 0;
        for (auto &set : sets_) {
            for (auto it = set.begin(); it != set.end();) {
                if (pred(it->tag, it->payload)) {
                    it = set.erase(it);
                    ++dropped;
                } else {
                    ++it;
                }
            }
        }
        return dropped;
    }

    unsigned
    validEntries() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return static_cast<unsigned>(n);
    }

    /** Visit every entry as fn(tag, payload); no recency effects. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &set : sets_) {
            for (const auto &entry : set)
                fn(entry.tag, entry.payload);
        }
    }

  private:
    /** The entry holding the tag in the lowest way, or end(). */
    template <typename S>
    static auto
    lowestMatch(S &set, std::uint64_t tag) -> decltype(set.begin())
    {
        auto best = set.end();
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == tag && (best == set.end() || it->way < best->way))
                best = it;
        }
        return best;
    }

    unsigned ways_;
    std::vector<std::list<Entry>> sets_;
};

/** Reference-side mirror of the TranslationDesign contract. */
class OracleDesign
{
  public:
    virtual ~OracleDesign() = default;

    virtual bool access(Asid asid, Vpn vpn, TranslationWalker &walker) = 0;

    /** Only the kinds with a huge-page policy (vanilla, mosaic)
     *  override this; the rest panic. */
    virtual bool accessHuge(Asid asid, Vpn vpn, Pfn pfn);

    virtual std::optional<Pfn> contains(Asid asid, Vpn vpn) const = 0;
    virtual bool prefetchFill(Asid asid, Vpn vpn,
                              TranslationWalker &walker) = 0;
    virtual void invalidatePage(Asid asid, Vpn vpn) = 0;
    virtual void flushAsid(Asid asid) = 0;
    virtual const TlbStats &stats() const = 0;
    virtual DesignCounters counters() const { return counters_; }
    virtual std::uint64_t reachPages() const = 0;
    virtual std::uint64_t regionPages() const { return 0; }
    virtual unsigned validEntries() const = 0;

  protected:
    DesignCounters counters_;
};

/** Build the reference model of a parsed registry spec; every
 *  translationDesignKinds() kind has one. */
std::unique_ptr<OracleDesign> makeOracleDesign(const DesignSpec &spec);

} // namespace mosaic

#endif // MOSAIC_ORACLE_ORACLE_DESIGNS_HH_
