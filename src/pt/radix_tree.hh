/**
 * @file
 * A radix (multi-level) page-table tree with 9-bit fanout per level,
 * i.e. 512-entry nodes that would each occupy one 4 KiB page in a
 * real page table.
 *
 * Both the vanilla x86-style page table and the mosaic page table
 * (whose leaves hold tables of contents, paper Figure 5) are built on
 * this structure. Lookups report how many node visits ("memory
 * references") the walk took so the simulator can account for walk
 * traffic.
 */

#ifndef MOSAIC_PT_RADIX_TREE_HH_
#define MOSAIC_PT_RADIX_TREE_HH_

#include <array>
#include <cstdint>
#include <memory>

#include "util/log.hh"

namespace mosaic
{

/**
 * @tparam Leaf payload stored per key; default-constructed on first
 *         touch.
 */
template <typename Leaf>
class RadixTree
{
  public:
    static constexpr unsigned fanoutBits = 9;
    static constexpr unsigned fanout = 1u << fanoutBits;

    /**
     * @param key_bits significant key width; determines the number
     *        of levels (ceil(key_bits / 9), minimum 1).
     */
    explicit RadixTree(unsigned key_bits)
        : levels_((key_bits + fanoutBits - 1) / fanoutBits)
    {
        if (levels_ == 0)
            levels_ = 1;
        root_ = std::make_unique<Node>();
        if (levels_ == 1)
            root_->leaves = std::make_unique<LeafArray>();
    }

    /** Number of radix levels. */
    unsigned levels() const { return levels_; }

    /**
     * Find the leaf for a key, creating intermediate nodes as
     * needed. @p refs, when non-null, accumulates the walk length.
     */
    Leaf &
    getOrCreate(std::uint64_t key, unsigned *refs = nullptr)
    {
        Node *node = root_.get();
        for (unsigned level = levels_; level-- > 1;) {
            if (refs)
                ++*refs;
            const unsigned idx = indexAt(key, level);
            auto &child = node->children[idx];
            if (!child) {
                child = std::make_unique<Node>();
                if (level == 1)
                    child->leaves = std::make_unique<LeafArray>();
            }
            node = child.get();
        }
        if (refs)
            ++*refs;
        return (*node->leaves)[indexAt(key, 0)];
    }

    /**
     * Find the leaf for a key without creating anything; nullptr
     * when no leaf node exists on the path.
     */
    Leaf *
    find(std::uint64_t key, unsigned *refs = nullptr)
    {
        Node *node = root_.get();
        for (unsigned level = levels_; level-- > 1;) {
            if (refs)
                ++*refs;
            Node *child = node->children[indexAt(key, level)].get();
            if (!child)
                return nullptr;
            node = child;
        }
        if (refs)
            ++*refs;
        return &(*node->leaves)[indexAt(key, 0)];
    }

    const Leaf *
    find(std::uint64_t key, unsigned *refs = nullptr) const
    {
        return const_cast<RadixTree *>(this)->find(key, refs);
    }

    /**
     * Hint the cache hierarchy that the leaf for a key is about to be
     * read: descends the interior nodes (never creating one) and
     * prefetches the leaf's first and last byte. Pure performance
     * hint; a missing path is a no-op.
     */
    void
    prefetch(std::uint64_t key) const
    {
        const Node *node = root_.get();
        for (unsigned level = levels_; level-- > 1;) {
            node = node->children[indexAt(key, level)].get();
            if (!node)
                return;
        }
        const Leaf *leaf = &(*node->leaves)[indexAt(key, 0)];
        __builtin_prefetch(leaf);
        __builtin_prefetch(reinterpret_cast<const char *>(leaf + 1) - 1);
    }

    /** Visit every instantiated leaf as (key, leaf). */
    template <typename Visitor>
    void
    forEach(Visitor &&visit)
    {
        forEachImpl(*root_, levels_ - 1, 0, visit);
    }

  private:
    using LeafArray = std::array<Leaf, fanout>;

    struct Node
    {
        std::array<std::unique_ptr<Node>, fanout> children{};
        std::unique_ptr<LeafArray> leaves;
    };

    static unsigned
    indexAt(std::uint64_t key, unsigned level)
    {
        return static_cast<unsigned>(
            (key >> (level * fanoutBits)) & (fanout - 1));
    }

    template <typename Visitor>
    void
    forEachImpl(Node &node, unsigned level, std::uint64_t prefix,
                Visitor &visit)
    {
        if (node.leaves) {
            for (unsigned i = 0; i < fanout; ++i)
                visit((prefix << fanoutBits) | i, (*node.leaves)[i]);
            return;
        }
        for (unsigned i = 0; i < fanout; ++i) {
            if (node.children[i]) {
                forEachImpl(*node.children[i], level - 1,
                            (prefix << fanoutBits) | i, visit);
            }
        }
    }

    unsigned levels_;
    std::unique_ptr<Node> root_;
};

} // namespace mosaic

#endif // MOSAIC_PT_RADIX_TREE_HH_
