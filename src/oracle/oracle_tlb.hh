/**
 * @file
 * Reference models for every TLB variant, built on a deliberately
 * naive set-associative array: each set is a std::list ordered by
 * recency (front = most recently used), so true-LRU replacement is
 * structural rather than timestamp-driven. The real TLBs implement
 * the same contract with a packed array and a monotonic use clock
 * (`SetAssocArray`); running both in lockstep over the same operation
 * sequence cross-checks lookup results, every stats counter, and the
 * number of valid entries after each step.
 *
 * The variant semantics (tag forms, probe order, sub-entry fills,
 * coalescing rules, hole handling) are transcribed from the
 * documented behaviour of vanilla_tlb/mosaic_tlb/coalesced_tlb/
 * perforated_tlb headers — including the subtle points:
 *  - a probe that matches a tag refreshes recency even when the
 *    caller then reports a miss (absent sub-entry, cleared mask bit,
 *    perforation hole);
 *  - fills allocate the first invalid way when one exists, otherwise
 *    the true-LRU way.
 */

#ifndef MOSAIC_ORACLE_ORACLE_TLB_HH_
#define MOSAIC_ORACLE_ORACLE_TLB_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <span>
#include <vector>

#include "mem/geometry.hh"
#include "tlb/mosaic_tlb.hh"
#include "tlb/perforated_tlb.hh"
#include "tlb/set_assoc.hh"
#include "tlb/tlb_stats.hh"
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

/** Reference model of VanillaTlb. */
class OracleVanillaTlb
{
  public:
    explicit OracleVanillaTlb(const TlbGeometry &geometry)
        : array_(geometry)
    {
    }

    std::optional<Pfn> lookup(Asid asid, Vpn vpn);
    void fill(Asid asid, Vpn vpn, Pfn pfn);
    void fillHuge(Asid asid, Vpn vpn, Pfn base_pfn);
    void invalidate(Asid asid, Vpn vpn);
    void flushAsid(Asid asid);
    bool contains(Asid asid, Vpn vpn) const;
    std::uint64_t reachPages() const;

    const TlbStats &stats() const { return stats_; }
    unsigned validEntries() const { return array_.validEntries(); }

  private:
    struct Payload
    {
        Pfn pfn = invalidPfn;
    };

    OracleSetAssoc<Payload> array_;
    TlbStats stats_;
};

/** Reference model of MosaicTlb. */
class OracleMosaicTlb
{
  public:
    OracleMosaicTlb(const TlbGeometry &geometry, unsigned arity)
        : array_(geometry), arity_(arity),
          log2Arity_(ceilLog2(arity))
    {
    }

    std::optional<Cpfn> lookup(Asid asid, Vpn vpn);
    void fill(Asid asid, Vpn vpn, std::span<const Cpfn> toc,
              Cpfn unmapped_code);
    std::optional<Pfn> lookupConventional(Asid asid, Vpn vpn);
    void fillConventional(Asid asid, Vpn vpn, Pfn pfn);
    void invalidateSub(Asid asid, Vpn vpn);
    void invalidateEntry(Asid asid, Vpn vpn);
    void flushAsid(Asid asid);
    bool contains(Asid asid, Vpn vpn) const;
    std::uint64_t reachPages() const;

    const TlbStats &stats() const { return stats_; }
    unsigned validEntries() const { return array_.validEntries(); }

  private:
    struct Payload
    {
        Payload() { cpfns.fill(MosaicTlb::absentCpfn); }
        std::array<Cpfn, maxArity> cpfns;
        Pfn conventionalPfn = invalidPfn;
        bool conventional = false;
    };

    Mvpn mvpnOf(Vpn vpn) const { return vpn >> log2Arity_; }
    unsigned offsetOf(Vpn vpn) const { return vpn & (arity_ - 1); }

    OracleSetAssoc<Payload> array_;
    TlbStats stats_;
    unsigned arity_;
    unsigned log2Arity_;
};

/** Reference model of CoalescedTlb. */
class OracleCoalescedTlb
{
  public:
    explicit OracleCoalescedTlb(const TlbGeometry &geometry)
        : array_(geometry)
    {
    }

    std::optional<Pfn> lookup(Asid asid, Vpn vpn);
    void fill(Asid asid, Vpn vpn, Pfn pfn,
              const std::function<std::optional<Pfn>(Vpn)> &pfn_of);
    void invalidate(Asid asid, Vpn vpn);
    void flushAsid(Asid asid);
    bool contains(Asid asid, Vpn vpn) const;
    std::uint64_t reachPages() const;

    const TlbStats &stats() const { return stats_; }
    std::uint64_t pagesCoveredByFills() const { return covered_; }
    std::uint64_t coalescedFills() const { return coalescedFills_; }
    unsigned validEntries() const { return array_.validEntries(); }

  private:
    struct Payload
    {
        Pfn basePfn = invalidPfn;
        std::uint8_t mask = 0;
    };

    OracleSetAssoc<Payload> array_;
    TlbStats stats_;
    std::uint64_t covered_ = 0;
    std::uint64_t coalescedFills_ = 0;
};

/** Reference model of PerforatedTlb. */
class OraclePerforatedTlb
{
  public:
    explicit OraclePerforatedTlb(const TlbGeometry &geometry)
        : array_(geometry)
    {
    }

    std::optional<Pfn> lookup(Asid asid, Vpn vpn);
    void fillPerforated(Asid asid, Vpn vpn, Pfn base_pfn,
                        const HoleBitmap &holes);
    void fill4k(Asid asid, Vpn vpn, Pfn pfn);
    void invalidate(Asid asid, Vpn vpn);
    void flushAsid(Asid asid);
    bool contains(Asid asid, Vpn vpn) const;
    std::uint64_t reachPages() const;

    /** True when the 2 MiB entry of the region is cached. Does not
     *  refresh recency: the fuzz driver uses it to decide between
     *  fillPerforated and fill4k without perturbing either model. */
    bool hasPerforatedEntry(Asid asid, Vpn vpn) const;

    const TlbStats &stats() const { return stats_; }
    std::uint64_t holeLookups() const { return holeLookups_; }
    unsigned validEntries() const { return array_.validEntries(); }

  private:
    struct Payload
    {
        Pfn basePfn = invalidPfn;
        HoleBitmap holes{};
        bool huge = false;
    };

    OracleSetAssoc<Payload> array_;
    TlbStats stats_;
    std::uint64_t holeLookups_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_ORACLE_ORACLE_TLB_HH_
