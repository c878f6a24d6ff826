/**
 * @file
 * Tests for the radix tree and both page tables: mapping lifecycle,
 * walk results and reference counts, ToC leaves (Figure 5), and
 * iteration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "pt/mosaic_page_table.hh"
#include "pt/radix_tree.hh"
#include "pt/vanilla_page_table.hh"

namespace mosaic
{
namespace
{

TEST(RadixTree, LevelsFromKeyBits)
{
    EXPECT_EQ(RadixTree<int>(9).levels(), 1u);
    EXPECT_EQ(RadixTree<int>(10).levels(), 2u);
    EXPECT_EQ(RadixTree<int>(36).levels(), 4u);
    EXPECT_EQ(RadixTree<int>(27).levels(), 3u);
}

TEST(RadixTree, GetOrCreateThenFind)
{
    RadixTree<int> t(36);
    t.getOrCreate(0x123456789) = 42;
    int *leaf = t.find(0x123456789);
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(*leaf, 42);
    // A key on the same path but in the same leaf node resolves to a
    // default-constructed leaf; a key in an untouched subtree finds
    // no leaf node at all.
    ASSERT_NE(t.find(0x123456788), nullptr);
    EXPECT_EQ(*t.find(0x123456788), 0);
    EXPECT_EQ(t.find(0x823456789), nullptr);
}

TEST(RadixTree, FindReportsWalkLength)
{
    RadixTree<int> t(36);
    t.getOrCreate(99);
    unsigned refs = 0;
    t.find(99, &refs);
    EXPECT_EQ(refs, 4u);
    refs = 0;
    t.getOrCreate(99, &refs);
    EXPECT_EQ(refs, 4u);
}

TEST(RadixTree, SparseKeysDoNotInterfere)
{
    RadixTree<std::uint64_t> t(36);
    std::map<std::uint64_t, std::uint64_t> model;
    std::uint64_t x = 1;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const std::uint64_t key = x >> 28; // 36-bit keys
        t.getOrCreate(key) = x;
        model[key] = x;
    }
    for (const auto &[key, value] : model) {
        auto *leaf = t.find(key);
        ASSERT_NE(leaf, nullptr);
        EXPECT_EQ(*leaf, value);
    }
}

TEST(RadixTree, ForEachVisitsLeavesWithKeys)
{
    RadixTree<int> t(18);
    t.getOrCreate(5) = 50;
    t.getOrCreate(100000) = 77;
    std::map<std::uint64_t, int> seen;
    t.forEach([&](std::uint64_t key, std::span<int> run) {
        ASSERT_EQ(run.size(), 1u);
        if (run[0] != 0)
            seen[key] = run[0];
    });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[5], 50);
    EXPECT_EQ(seen[100000], 77);
}

TEST(RadixTree, WideLeavesAreContiguousAndFilled)
{
    constexpr unsigned width = 4;
    RadixTree<std::uint8_t> t(34, width, 0x7F);
    std::uint8_t *run = &t.getOrCreate(10);
    for (unsigned i = 0; i < width; ++i)
        EXPECT_EQ(run[i], 0x7F);
    run[3] = 9;
    EXPECT_EQ(t.find(10), run);
    // Neighbouring keys' runs abut this one and still hold the fill.
    EXPECT_EQ(t.find(11), run + width);
    EXPECT_EQ(t.find(9), run - width);
    EXPECT_EQ(t.find(11)[0], 0x7F);
    EXPECT_EQ(t.find(9)[width - 1], 0x7F);
}

TEST(RadixTree, WideLeavesOfSparseKeysDoNotInterfere)
{
    constexpr unsigned width = 16;
    RadixTree<std::uint8_t> t(32, width, 0xFF);
    std::map<std::uint64_t, std::uint8_t> model;
    std::uint64_t x = 1;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const std::uint64_t key = x >> 32; // 32-bit keys
        const auto value = static_cast<std::uint8_t>(x >> 24);
        (&t.getOrCreate(key))[key % width] = value;
        model[key] = value;
    }
    for (const auto &[key, value] : model) {
        const std::uint8_t *leaf = t.find(key);
        ASSERT_NE(leaf, nullptr);
        for (unsigned i = 0; i < width; ++i) {
            EXPECT_EQ(leaf[i], i == key % width ? value : 0xFF)
                << "key=" << key << " slot=" << i;
        }
    }

    // forEach hands out every instantiated key's run, width long.
    std::size_t runs = 0;
    std::size_t set = 0;
    t.forEach([&](std::uint64_t key, std::span<std::uint8_t> leaves) {
        ASSERT_EQ(leaves.size(), width);
        EXPECT_EQ(leaves.data(), t.find(key));
        ++runs;
        if (model.contains(key))
            set += leaves[key % width] == model[key];
    });
    EXPECT_EQ(runs % RadixTree<std::uint8_t>::fanout, 0u);
    EXPECT_EQ(set, model.size());
}

TEST(RadixTree, SingleLevelTree)
{
    RadixTree<int> t(5);
    t.getOrCreate(31) = 3;
    unsigned refs = 0;
    EXPECT_EQ(*t.find(31, &refs), 3);
    EXPECT_EQ(refs, 1u);
}

/**
 * The walk a RadixTree would report with no remembered leaf node:
 * one visit per level down to the first missing child, given the
 * keys created so far. The shortcut must report exactly this.
 */
unsigned
descentRefs(const std::set<std::uint64_t> &created, unsigned levels,
            std::uint64_t key)
{
    constexpr unsigned bits = RadixTree<int>::fanoutBits;
    unsigned refs = 0;
    for (unsigned level = levels; level-- > 1;) {
        ++refs;
        const bool child = std::any_of(
            created.begin(), created.end(), [&](std::uint64_t k) {
                return k >> (level * bits) == key >> (level * bits);
            });
        if (!child)
            return refs;
    }
    return refs + 1;
}

TEST(RadixTree, WalkShortcutReportsTheDescentsRefs)
{
    // Keys alternate between two leaf nodes and mix in absent slots
    // of a remembered leaf node and paths that end at every interior
    // level. Every lookup, hit or miss of the remembered leaf node,
    // must report the descent's refs and the right leaf.
    RadixTree<std::uint64_t> t(36);
    const std::uint64_t a = 0x123456000; // leaf node A's first key
    const std::uint64_t b = 0x9ABCDE000; // leaf node B's first key
    std::set<std::uint64_t> created;
    std::map<std::uint64_t, std::uint64_t> model;
    for (const std::uint64_t k : {a + 7, b + 300}) {
        t.getOrCreate(k) = k;
        created.insert(k);
        model[k] = k;
    }
    const std::uint64_t queries[] = {
        a + 7, b + 300, a + 7, b + 300, // alternating hits
        a + 8, a + 511,                 // absent slots under A
        b + 0, a + 7,                   // absent slot under B, back to A
        a + 512,                        // A's sibling leaf node: absent
        a ^ (1ull << 27),               // missing at level 3
        a ^ (1ull << 18),               // missing at level 2
        a ^ (1ull << 9),                // missing at level 1
        a ^ (1ull << 35), a + 7,        // missing below the root
    };
    for (int round = 0; round < 2; ++round) {
        for (const std::uint64_t key : queries) {
            unsigned refs = 0;
            const std::uint64_t *leaf = t.find(key, &refs);
            EXPECT_EQ(refs, descentRefs(created, t.levels(), key))
                << std::hex << "key=" << key;
            const bool path = refs == t.levels();
            ASSERT_EQ(leaf != nullptr, path) << std::hex << "key=" << key;
            if (leaf) {
                const auto it = model.find(key);
                EXPECT_EQ(*leaf, it == model.end() ? 0 : it->second)
                    << std::hex << "key=" << key;
            }
        }
        // Round two runs with a third leaf node in the tree.
        t.getOrCreate(a + 512) = 99;
        created.insert(a + 512);
        model[a + 512] = 99;
    }
}

TEST(RadixTree, GetOrCreateAfterARememberedFind)
{
    RadixTree<int> t(36);
    t.getOrCreate(0x1000) = 1;
    unsigned refs = 0;
    ASSERT_NE(t.find(0x1001, &refs), nullptr); // remembers 0x1000's node
    EXPECT_EQ(refs, 4u);

    // A new leaf node elsewhere: created in full, not aliased onto
    // the remembered one.
    refs = 0;
    t.getOrCreate(0x5000000, &refs) = 2;
    EXPECT_EQ(refs, 4u);
    // Back under the first node, then under the second: each write
    // lands where a fresh descent finds it.
    t.getOrCreate(0x1002) = 3;
    t.getOrCreate(0x5000001) = 4;
    EXPECT_EQ(*t.find(0x1000), 1);
    EXPECT_EQ(*t.find(0x5000000), 2);
    EXPECT_EQ(*t.find(0x1002), 3);
    EXPECT_EQ(*t.find(0x5000001), 4);
    EXPECT_EQ(&t.getOrCreate(0x1002), t.find(0x1002));
    std::map<std::uint64_t, int> seen;
    t.forEach([&](std::uint64_t key, std::span<int> run) {
        if (run[0] != 0)
            seen[key] = run[0];
    });
    EXPECT_EQ(seen, (std::map<std::uint64_t, int>{
                        {0x1000, 1}, {0x1002, 3}, {0x5000000, 2},
                        {0x5000001, 4}}));
}

TEST(RadixTree, AliasedMemoSlotsReportTheDescentsRefs)
{
    // Leaf nodes whose prefixes (key >> 9) differ by multiples of
    // memoSlots share one memo slot. More of them are live than the
    // memo has slots, so every lookup below may find its slot holding
    // another node; each must still return its own leaf and report
    // the descent's refs.
    constexpr unsigned slots = RadixTree<int>::memoSlots;
    constexpr unsigned bits = RadixTree<int>::fanoutBits;
    RadixTree<std::uint64_t> t(36);
    const std::uint64_t p = 0x123456; // a leaf-node prefix
    std::set<std::uint64_t> created;
    std::map<std::uint64_t, std::uint64_t> model;
    const auto create = [&](std::uint64_t key, std::uint64_t value) {
        t.getOrCreate(key) = value;
        created.insert(key);
        model[key] = value;
    };
    // 2 * slots + 3 leaf nodes: p + slots * i alias p's slot; p + 1..3
    // take neighbouring slots.
    std::vector<std::uint64_t> keys;
    for (unsigned i = 0; i < 2 * slots; ++i)
        keys.push_back(((p + slots * i) << bits) | (i * 7 % 512));
    for (unsigned j = 1; j <= 3; ++j)
        keys.push_back(((p + j) << bits) | j);
    for (std::size_t i = 0; i < keys.size(); ++i)
        create(keys[i], 1000 + i);

    const auto check = [&](std::uint64_t key) {
        unsigned refs = 0;
        const std::uint64_t *leaf = t.find(key, &refs);
        EXPECT_EQ(refs, descentRefs(created, t.levels(), key))
            << std::hex << "key=" << key;
        ASSERT_EQ(leaf != nullptr, refs == t.levels())
            << std::hex << "key=" << key;
        if (leaf) {
            const auto it = model.find(key);
            EXPECT_EQ(*leaf, it == model.end() ? 0 : it->second)
                << std::hex << "key=" << key;
        }
    };
    const std::uint64_t absent_node = (p + slots * 2 * slots) << bits;
    for (int round = 0; round < 2; ++round) {
        // Forwards, backwards, then p and p + slots alternating.
        for (const std::uint64_t key : keys)
            check(key);
        for (auto it = keys.rbegin(); it != keys.rend(); ++it)
            check(*it);
        for (int i = 0; i < 4; ++i) {
            check(keys[0]);
            check(keys[1]);
        }
        // Absent leaves under an aliased node, and a missing node
        // that aliases p's slot, each right after its slot's owner.
        check(keys[1]);
        check(keys[1] + 1);
        check(keys[0]);
        check(absent_node);
        check(absent_node + 5);
        check(keys[0] ^ (std::uint64_t{1} << 35));
        // getOrCreate right after a find of an aliasing node writes
        // where a fresh descent finds it.
        check(keys[1]);
        create(keys[0] + 1 + round, 77 + round);
        check(keys[1]);
        create(absent_node + round, 88 + round); // a new aliased node
        check(keys[0] + 1 + round);
        check(absent_node + round);
    }
}

TEST(MosaicPt, WalkRefsIgnoreTheRememberedLeaf)
{
    // Arity 4: 34-bit MVPNs, four levels. A present page, an absent
    // page of the same ToC, an absent ToC of the same leaf node and
    // paths missing at each interior level, each walked right after
    // a walk into the other of two leaf nodes.
    MosaicPageTable pt(4, 0x7F);
    const Vpn a = Vpn{0x123456000} << 2;
    const Vpn b = Vpn{0x2ABCDE000} << 2;
    pt.setCpfn(a, 5);
    pt.setCpfn(b + 3, 6);
    const struct
    {
        Vpn vpn;
        bool present;
        unsigned refs;
    } cases[] = {
        {a, true, 4},
        {b + 3, true, 4},
        {a + 1, false, 4},                   // absent page, same ToC
        {a + 4 * 9, false, 4},               // absent ToC, same node
        {b + (Vpn{1} << (2 + 9)), false, 3}, // missing at level 1
        {a ^ (Vpn{1} << (2 + 18)), false, 2},
        {a ^ (Vpn{1} << (2 + 27)), false, 1},
    };
    for (const Vpn warm : {a, b + 3}) {
        for (const auto &c : cases) {
            ASSERT_TRUE(pt.walk(warm).present);
            const MosaicWalkResult walk = pt.walk(c.vpn);
            EXPECT_EQ(walk.present, c.present) << std::hex << c.vpn;
            EXPECT_EQ(walk.memRefs, c.refs) << std::hex << c.vpn;
            EXPECT_EQ(walk.toc.size(), c.refs == 4 ? 4u : 0u);
        }
    }
    EXPECT_EQ(pt.walk(a).cpfn, 5);
    EXPECT_EQ(pt.walk(b + 3).cpfn, 6);
}

TEST(VanillaPt, WalkRefsIgnoreTheRememberedLeaf)
{
    VanillaPageTable pt;
    const Vpn a = 0x123456000;
    const Vpn b = 0x9ABCDE000;
    pt.map(a, 10);
    pt.map(b + 1, 11);
    pt.mapHuge(0x555555000, 4096);
    for (const Vpn warm : {a, b + 1}) {
        ASSERT_TRUE(pt.walk(warm).present);
        EXPECT_EQ(pt.walk(b + 1).pfn, 11u);
        EXPECT_EQ(pt.walk(a).pfn, 10u);
        // Absent PTE under a remembered leaf node: the full walk.
        ASSERT_TRUE(pt.walk(warm).present);
        const VanillaWalkResult absent = pt.walk(warm + 2);
        EXPECT_FALSE(absent.present);
        EXPECT_EQ(absent.memRefs, 4u);
        // Missing interior paths report where the walk stopped.
        EXPECT_EQ(pt.walk(a ^ (Vpn{1} << 9)).memRefs, 3u);
        EXPECT_EQ(pt.walk(a ^ (Vpn{1} << 18)).memRefs, 2u);
        EXPECT_EQ(pt.walk(a ^ (Vpn{1} << 35)).memRefs, 1u);
        // A huge mapping walks the three-level tree, with or
        // without a remembered 4 KiB leaf node.
        const VanillaWalkResult huge = pt.walk(0x555555000 + 7);
        EXPECT_TRUE(huge.huge);
        EXPECT_EQ(huge.pfn, 4096u + 7);
        EXPECT_EQ(huge.memRefs, 3u);
    }
}

TEST(MosaicPt, AliasedLeafNodesWalkLikeTheDescent)
{
    // Arity 4: an MVPN's leaf node is mvpn >> 9. ToCs in 24 leaf
    // nodes aliasing one memo slot, walked in interleaved order:
    // present pages, an absent page of a set ToC, an unset ToC of an
    // aliased node, and a missing node aliasing the same slot. All
    // share one level-1 interior node, so a missing node is a
    // three-reference walk.
    constexpr unsigned slots = RadixTree<Cpfn>::memoSlots;
    constexpr unsigned live = 24;
    MosaicPageTable pt(4, 0x7F);
    const auto vpn_of = [](std::uint64_t node, unsigned toc, unsigned sub) {
        return (((Vpn{node} << 9) | toc) << 2) | sub;
    };
    const std::uint64_t p = 0x2AA00; // 512-aligned
    std::vector<Vpn> set;
    for (unsigned i = 0; i < live; ++i) {
        set.push_back(vpn_of(p + slots * i, i, i % 4));
        pt.setCpfn(set.back(), static_cast<Cpfn>(i % 0x7F));
    }
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < set.size(); ++i) {
            const std::size_t j = (i * 7) % set.size(); // interleaved
            const MosaicWalkResult hit = pt.walk(set[j]);
            EXPECT_TRUE(hit.present) << j;
            EXPECT_EQ(hit.cpfn, static_cast<Cpfn>(j % 0x7F)) << j;
            EXPECT_EQ(hit.memRefs, 4u) << j;
            EXPECT_EQ(hit.toc.size(), 4u) << j;

            const MosaicWalkResult page = pt.walk(set[j] ^ 1);
            EXPECT_FALSE(page.present) << j;
            EXPECT_EQ(page.memRefs, 4u) << j;

            const MosaicWalkResult toc = pt.walk(set[j] + 4 * 3);
            EXPECT_FALSE(toc.present) << j;
            EXPECT_EQ(toc.memRefs, 4u) << j;
            EXPECT_EQ(toc.toc.size(), 4u) << j;

            const MosaicWalkResult node =
                pt.walk(vpn_of(p + slots * (live + j % 8), 0, 0));
            EXPECT_FALSE(node.present) << j;
            EXPECT_EQ(node.memRefs, 3u) << j;
            EXPECT_TRUE(node.toc.empty()) << j;
        }
        // Set a page right after walking an aliasing node; both keep
        // their own CPFNs.
        ASSERT_TRUE(pt.walk(set[1]).present);
        pt.setCpfn(set[0] ^ 2, 0x33);
        EXPECT_EQ(pt.walk(set[1]).cpfn, 1);
        EXPECT_EQ(pt.walk(set[0] ^ 2).cpfn, 0x33);
        pt.clearCpfn(set[0] ^ 2);
    }
    EXPECT_EQ(pt.mappedPages(), set.size());
}

TEST(VanillaPt, AliasedLeafNodesWalkLikeTheDescent)
{
    // 4 KiB PTEs in 24 leaf nodes (vpn >> 9) aliasing one memo slot
    // under one level-1 interior node, plus a 2 MiB mapping whose
    // region aliases the slot too. An absent 4 KiB page reports the
    // 4 KiB descent's refs, however far that got; a huge hit reports
    // the three-level walk.
    constexpr unsigned slots = RadixTree<Pte>::memoSlots;
    constexpr unsigned live = 24;
    VanillaPageTable pt;
    const Vpn p = 0x4D200; // 512-aligned
    std::vector<Vpn> set;
    for (unsigned i = 0; i < live; ++i) {
        set.push_back(((p + slots * i) << 9) | (i * 31 % 512));
        pt.map(set.back(), 100 + i);
    }
    const Vpn huge_region = p + slots * (live + 7);
    pt.mapHuge(huge_region << 9, 8192);
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < set.size(); ++i) {
            const std::size_t j = (i * 5) % set.size();
            const VanillaWalkResult hit = pt.walk(set[j]);
            EXPECT_TRUE(hit.present) << j;
            EXPECT_FALSE(hit.huge) << j;
            EXPECT_EQ(hit.pfn, 100 + j) << j;
            EXPECT_EQ(hit.memRefs, 4u) << j;

            const VanillaWalkResult absent = pt.walk(set[j] ^ 1);
            EXPECT_FALSE(absent.present) << j;
            EXPECT_EQ(absent.memRefs, 4u) << j;

            const VanillaWalkResult no_node =
                pt.walk((p + slots * (live + j % 7)) << 9);
            EXPECT_FALSE(no_node.present) << j;
            EXPECT_EQ(no_node.memRefs, 3u) << j;

            const VanillaWalkResult huge = pt.walk((huge_region << 9) | j);
            EXPECT_TRUE(huge.huge) << j;
            EXPECT_EQ(huge.pfn, 8192 + j) << j;
            EXPECT_EQ(huge.memRefs, 3u) << j;
        }
        // Map right after walking an aliasing node: the new PTE lands
        // in its own node and the aliasing one keeps its PFN.
        ASSERT_TRUE(pt.walk(set[1]).present);
        pt.map(set[0] ^ 2, 55);
        EXPECT_EQ(pt.walk(set[1]).pfn, 101u);
        EXPECT_EQ(pt.walk(set[0] ^ 2).pfn, 55u);
        pt.unmap(set[0] ^ 2);
    }
    EXPECT_EQ(pt.mapped4k(), set.size());
}

TEST(VanillaPt, MapWalkUnmap)
{
    VanillaPageTable pt;
    EXPECT_FALSE(pt.walk(123).present);
    pt.map(123, 456);
    const auto walk = pt.walk(123);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.pfn, 456u);
    EXPECT_FALSE(walk.huge);
    EXPECT_EQ(pt.mapped4k(), 1u);
    pt.unmap(123);
    EXPECT_FALSE(pt.walk(123).present);
    EXPECT_EQ(pt.mapped4k(), 0u);
}

TEST(VanillaPt, WalkLengthMatchesX86)
{
    VanillaPageTable pt;
    pt.map(1, 1);
    EXPECT_EQ(pt.walk(1).memRefs, 4u);
    pt.mapHuge(512, 1024);
    const auto walk = pt.walk(512 + 5);
    EXPECT_TRUE(walk.huge);
    EXPECT_EQ(walk.memRefs, 3u);
}

TEST(VanillaPt, HugeMappingCoversRegionAndComputesOffset)
{
    VanillaPageTable pt;
    pt.mapHuge(1024, 8192);
    for (Vpn v = 1024; v < 1536; v += 100) {
        const auto walk = pt.walk(v);
        ASSERT_TRUE(walk.present);
        EXPECT_EQ(walk.pfn, 8192 + (v - 1024));
    }
    EXPECT_FALSE(pt.walk(1536).present);
    EXPECT_EQ(pt.mappedHuge(), 1u);
}

TEST(VanillaPt, FourKOverridesHugeOnWalk)
{
    // When both exist, the 4 KiB mapping wins (deeper walk first).
    VanillaPageTable pt;
    pt.mapHuge(0, 1000);
    pt.map(3, 77);
    EXPECT_EQ(pt.walk(3).pfn, 77u);
    EXPECT_EQ(pt.walk(4).pfn, 1004u);
}

TEST(VanillaPt, RemapUpdatesPfn)
{
    VanillaPageTable pt;
    pt.map(9, 1);
    pt.map(9, 2);
    EXPECT_EQ(pt.walk(9).pfn, 2u);
    EXPECT_EQ(pt.mapped4k(), 1u);
}

TEST(MosaicPt, SetWalkClear)
{
    MosaicPageTable pt(4, 0x7F);
    EXPECT_FALSE(pt.walk(10).present);
    pt.setCpfn(10, 33);
    const auto walk = pt.walk(10);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.cpfn, 33);
    EXPECT_EQ(pt.mappedPages(), 1u);
    pt.clearCpfn(10);
    EXPECT_FALSE(pt.walk(10).present);
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST(MosaicPt, WalkReturnsWholeToc)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(8, 1);
    pt.setCpfn(9, 2);
    pt.setCpfn(11, 4);
    const auto walk = pt.walk(10); // unmapped sub-page, same ToC
    EXPECT_FALSE(walk.present);
    ASSERT_EQ(walk.toc.size(), 4u);
    EXPECT_EQ(walk.toc[0], 1);
    EXPECT_EQ(walk.toc[1], 2);
    EXPECT_EQ(walk.toc[2], 0x7F);
    EXPECT_EQ(walk.toc[3], 4);
}

TEST(MosaicPt, TocsAreIndependent)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(0, 1);
    pt.setCpfn(4, 2);
    EXPECT_EQ(pt.walk(0).cpfn, 1);
    EXPECT_EQ(pt.walk(4).cpfn, 2);
    EXPECT_FALSE(pt.walk(1).present);
}

TEST(MosaicPt, MvpnOffsetForArities)
{
    MosaicPageTable pt64(64, 0x7F);
    EXPECT_EQ(pt64.mvpnOf(64), 1u);
    EXPECT_EQ(pt64.offsetOf(64 + 63), 63u);
    MosaicPageTable pt1(1, 0x7F);
    EXPECT_EQ(pt1.mvpnOf(7), 7u);
    EXPECT_EQ(pt1.offsetOf(7), 0u);
}

TEST(MosaicPt, WalkCountsNodeVisits)
{
    MosaicPageTable pt(64, 0x7F);
    pt.setCpfn(0, 1);
    // 36 - 6 = 30 bits of MVPN -> ceil(30/9) = 4 levels.
    EXPECT_EQ(pt.walk(0).memRefs, 4u);
}

TEST(MosaicPt, RemapCounting)
{
    MosaicPageTable pt(4, 0x7F);
    pt.setCpfn(3, 5);
    pt.setCpfn(3, 6); // remap: count stays 1
    EXPECT_EQ(pt.mappedPages(), 1u);
    EXPECT_EQ(pt.walk(3).cpfn, 6);
}

TEST(MosaicPt, UnsetTocInAnExistingLeafWalksAbsent)
{
    for (const unsigned arity : {1u, 4u, 16u, 64u}) {
        MosaicPageTable pt(arity, 0x7F);
        pt.setCpfn(0, 5);
        const auto set = pt.walk(0);
        ASSERT_TRUE(set.present) << "arity=" << arity;
        ASSERT_EQ(set.toc.size(), arity);
        // The next mosaic page shares the leaf node but was never set.
        for (const Vpn vpn : {Vpn{arity}, Vpn{2 * arity - 1}}) {
            const auto unset = pt.walk(vpn);
            EXPECT_FALSE(unset.present) << "arity=" << arity;
            EXPECT_EQ(unset.cpfn, 0x7F);
            ASSERT_EQ(unset.toc.size(), arity);
            for (const Cpfn code : unset.toc)
                EXPECT_EQ(code, 0x7F) << "arity=" << arity;
            EXPECT_EQ(unset.memRefs, set.memRefs) << "arity=" << arity;
        }
        EXPECT_EQ(pt.mappedPages(), 1u);
    }
}

using MosaicPtDeathTest = ::testing::Test;

TEST(MosaicPtDeathTest, BadArityPanics)
{
    EXPECT_DEATH(MosaicPageTable(5, 0x7F), "power of two");
}

} // namespace
} // namespace mosaic
