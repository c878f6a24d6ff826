/**
 * @file
 * A radix (multi-level) page-table tree with 9-bit fanout per level,
 * i.e. 512-entry nodes that would each occupy one 4 KiB page in a
 * real page table.
 *
 * Both the vanilla x86-style page table and the mosaic page table
 * (whose leaves hold tables of contents, paper Figure 5) are built on
 * this structure; each key owns `width` contiguous leaves (one PTE,
 * or one ToC of `arity` CPFNs). Lookups report how many node visits
 * ("memory references") the walk took so the simulator can account
 * for walk traffic. The count is the modeled walk: a lookup that the
 * host skips through a remembered leaf node reports it unchanged.
 */

#ifndef MOSAIC_PT_RADIX_TREE_HH_
#define MOSAIC_PT_RADIX_TREE_HH_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/log.hh"

namespace mosaic
{

/**
 * @tparam Leaf payload stored per key slot; starts as the fill value.
 *
 * Interior nodes hold 512 child pointers; a leaf node is only its
 * `512 * width` leaves. Nodes are never freed, so a pointer into the
 * tree stays valid for the tree's lifetime. The tree remembers up to
 * memoSlots leaf nodes it resolved, one per slot of a direct-mapped
 * memo indexed by the key's 9-bit-aligned prefix (key >> 9) modulo
 * memoSlots: a lookup whose prefix is in its slot skips the interior
 * levels and still adds levels() to its reference count, which is
 * exactly what the descent would report, since the whole path
 * exists. The const lookups update that memo too, so a tree must not
 * be read from two threads at once; every page table has one owning
 * thread (DESIGN.md §8).
 */
template <typename Leaf>
class RadixTree
{
  public:
    static constexpr unsigned fanoutBits = 9;
    static constexpr unsigned fanout = 1u << fanoutBits;

    /** Leaf nodes the lookup memo remembers (a power of two). */
    static constexpr unsigned memoSlots = 16;

    /**
     * @param key_bits significant key width; determines the number
     *        of levels (ceil(key_bits / 9), minimum 1).
     * @param leaf_width contiguous leaves per key (>= 1).
     * @param fill value of every leaf of a freshly created leaf node.
     */
    explicit RadixTree(unsigned key_bits, unsigned leaf_width = 1,
                       Leaf fill = Leaf{})
        : levels_(std::max(1u, (key_bits + fanoutBits - 1) / fanoutBits)),
          width_(leaf_width), fill_(fill)
    {
        root_ = levels_ == 1 ? static_cast<void *>(makeLeafNode())
                             : static_cast<void *>(makeInterior());
    }

    /** Number of radix levels. */
    unsigned levels() const { return levels_; }

    /**
     * Find the first of a key's leaves, creating intermediate nodes
     * as needed. @p refs, when non-null, accumulates the walk length.
     */
    Leaf &
    getOrCreate(std::uint64_t key, unsigned *refs = nullptr)
    {
        return *lookup<true>(key, refs);
    }

    /**
     * Find the first of a key's leaves without creating anything;
     * nullptr when no leaf node exists on the path.
     */
    Leaf *
    find(std::uint64_t key, unsigned *refs = nullptr)
    {
        return lookup<false>(key, refs);
    }

    const Leaf *
    find(std::uint64_t key, unsigned *refs = nullptr) const
    {
        return const_cast<RadixTree *>(this)->lookup<false>(key, refs);
    }

    /** Visit every instantiated key as (key, span of its leaves). */
    template <typename Visitor>
    void
    forEach(Visitor &&visit)
    {
        forEachImpl(root_, levels_ - 1, 0, visit);
    }

  private:
    /** An interior node. Children at level 1 are leaf nodes (arrays
     *  of fanout * width_ leaves); above it, further interior nodes. */
    struct Interior
    {
        std::array<void *, fanout> children{};
    };

    static unsigned
    indexAt(std::uint64_t key, unsigned level)
    {
        return static_cast<unsigned>(
            (key >> (level * fanoutBits)) & (fanout - 1));
    }

    Interior *
    makeInterior()
    {
        return interiors_.emplace_back(std::make_unique<Interior>()).get();
    }

    Leaf *
    makeLeafNode()
    {
        const std::size_t n = std::size_t{fanout} * width_;
        auto leaves = std::make_unique_for_overwrite<Leaf[]>(n);
        std::fill_n(leaves.get(), n, fill_);
        return leafNodes_.emplace_back(std::move(leaves)).get();
    }

    /** Offset of a key's run within its leaf node. */
    std::size_t
    runOffset(std::uint64_t key) const
    {
        return std::size_t{indexAt(key, 0)} * width_;
    }

    /** The shared walk of find() and getOrCreate(). */
    template <bool Create>
    Leaf *
    lookup(std::uint64_t key, unsigned *refs)
    {
        const std::uint64_t prefix = key >> fanoutBits;
        if (Leaf *leaves = remembered(prefix)) {
            if (refs)
                *refs += levels_;
            return leaves + runOffset(key);
        }
        void *node = root_;
        for (unsigned level = levels_; level-- > 1;) {
            if (refs)
                ++*refs;
            void *&child =
                static_cast<Interior *>(node)->children[indexAt(key, level)];
            if (!child) {
                if constexpr (!Create)
                    return nullptr;
                child = level == 1 ? static_cast<void *>(makeLeafNode())
                                   : static_cast<void *>(makeInterior());
            }
            node = child;
        }
        if (refs)
            ++*refs;
        MemoSlot &slot = memo_[prefix & (memoSlots - 1)];
        slot.prefix = prefix;
        slot.leaves = static_cast<Leaf *>(node);
        return slot.leaves + runOffset(key);
    }

    /** The remembered leaf node of a prefix, or nullptr. */
    Leaf *
    remembered(std::uint64_t prefix) const
    {
        const MemoSlot &slot = memo_[prefix & (memoSlots - 1)];
        return slot.leaves && slot.prefix == prefix ? slot.leaves
                                                    : nullptr;
    }

    template <typename Visitor>
    void
    forEachImpl(void *node, unsigned level, std::uint64_t prefix,
                Visitor &visit)
    {
        if (level == 0) {
            auto *leaves = static_cast<Leaf *>(node);
            for (unsigned i = 0; i < fanout; ++i) {
                visit((prefix << fanoutBits) | i,
                      std::span<Leaf>(leaves + i * width_, width_));
            }
            return;
        }
        const auto &children = static_cast<Interior *>(node)->children;
        for (unsigned i = 0; i < fanout; ++i) {
            if (children[i]) {
                forEachImpl(children[i], level - 1,
                            (prefix << fanoutBits) | i, visit);
            }
        }
    }

    unsigned levels_;
    unsigned width_;
    Leaf fill_;

    /** Owners of every node; the tree links them by raw pointer. */
    std::vector<std::unique_ptr<Interior>> interiors_;
    std::vector<std::unique_ptr<Leaf[]>> leafNodes_;

    /** The root: an Interior, or the leaf node of a one-level tree. */
    void *root_ = nullptr;

    /** A remembered leaf node and its key >> 9. */
    struct MemoSlot
    {
        std::uint64_t prefix = 0;
        Leaf *leaves = nullptr;
    };

    /** Leaf nodes resolved so far, slotted by prefix % memoSlots. */
    mutable std::array<MemoSlot, memoSlots> memo_{};
};

} // namespace mosaic

#endif // MOSAIC_PT_RADIX_TREE_HH_
