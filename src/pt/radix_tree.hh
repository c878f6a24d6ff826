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
 * for walk traffic.
 */

#ifndef MOSAIC_PT_RADIX_TREE_HH_
#define MOSAIC_PT_RADIX_TREE_HH_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "util/log.hh"

namespace mosaic
{

/**
 * @tparam Leaf payload stored per key slot; starts as the fill value.
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
     * @param leaf_width contiguous leaves per key (>= 1).
     * @param fill value of every leaf of a freshly created leaf node.
     */
    explicit RadixTree(unsigned key_bits, unsigned leaf_width = 1,
                       Leaf fill = Leaf{})
        : levels_((key_bits + fanoutBits - 1) / fanoutBits),
          width_(leaf_width), fill_(fill)
    {
        if (levels_ == 0)
            levels_ = 1;
        root_ = std::make_unique<Node>();
        if (levels_ == 1)
            root_->leaves = makeLeaves();
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
        Node *node = root_.get();
        for (unsigned level = levels_; level-- > 1;) {
            if (refs)
                ++*refs;
            const unsigned idx = indexAt(key, level);
            auto &child = node->children[idx];
            if (!child) {
                child = std::make_unique<Node>();
                if (level == 1)
                    child->leaves = makeLeaves();
            }
            node = child.get();
        }
        if (refs)
            ++*refs;
        return *runOf(*node, key);
    }

    /**
     * Find the first of a key's leaves without creating anything;
     * nullptr when no leaf node exists on the path.
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
        return runOf(*node, key);
    }

    const Leaf *
    find(std::uint64_t key, unsigned *refs = nullptr) const
    {
        return const_cast<RadixTree *>(this)->find(key, refs);
    }

    /**
     * Hint the cache hierarchy that a key's leaves are about to be
     * read: descends the interior nodes (never creating one) and
     * prefetches every cache line of the key's run. Pure performance
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
        const auto *first =
            reinterpret_cast<const char *>(runOf(*node, key));
        const char *last = first + width_ * sizeof(Leaf) - 1;
        for (const char *line = first; line < last; line += 64)
            __builtin_prefetch(line);
        __builtin_prefetch(last);
    }

    /** Visit every instantiated key as (key, span of its leaves). */
    template <typename Visitor>
    void
    forEach(Visitor &&visit)
    {
        forEachImpl(*root_, 0, visit);
    }

  private:
    struct Node
    {
        std::array<std::unique_ptr<Node>, fanout> children{};
        std::unique_ptr<Leaf[]> leaves; // fanout * width_, leaf nodes only
    };

    static unsigned
    indexAt(std::uint64_t key, unsigned level)
    {
        return static_cast<unsigned>(
            (key >> (level * fanoutBits)) & (fanout - 1));
    }

    std::unique_ptr<Leaf[]>
    makeLeaves() const
    {
        const std::size_t n = std::size_t{fanout} * width_;
        auto leaves = std::make_unique_for_overwrite<Leaf[]>(n);
        std::fill_n(leaves.get(), n, fill_);
        return leaves;
    }

    Leaf *
    runOf(const Node &node, std::uint64_t key) const
    {
        return node.leaves.get() + std::size_t{indexAt(key, 0)} * width_;
    }

    template <typename Visitor>
    void
    forEachImpl(Node &node, std::uint64_t prefix, Visitor &visit)
    {
        if (node.leaves) {
            for (unsigned i = 0; i < fanout; ++i) {
                visit((prefix << fanoutBits) | i,
                      std::span<Leaf>(&node.leaves[i * width_], width_));
            }
            return;
        }
        for (unsigned i = 0; i < fanout; ++i) {
            if (node.children[i]) {
                forEachImpl(*node.children[i],
                            (prefix << fanoutBits) | i, visit);
            }
        }
    }

    unsigned levels_;
    unsigned width_;
    Leaf fill_;
    std::unique_ptr<Node> root_;
};

} // namespace mosaic

#endif // MOSAIC_PT_RADIX_TREE_HH_
