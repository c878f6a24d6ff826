/**
 * @file
 * Tests for the CPFN codec (paper §3.1): 7-bit encoding with the
 * default geometry, exhaustive round-trips, sentinel distinctness,
 * and the widening fallback for exotic geometries.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/cpfn.hh"
#include "mem/mosaic_mapper.hh"

namespace mosaic
{
namespace
{

MemoryGeometry
paperGeometry()
{
    MemoryGeometry g;
    g.numFrames = 64 * 64;
    return g;
}

TEST(CpfnCodec, PaperGeometryUsesSevenBits)
{
    const CpfnCodec codec(paperGeometry());
    EXPECT_EQ(codec.bits(), 7u);
    EXPECT_EQ(codec.invalid(), 0x7F);
}

TEST(CpfnCodec, FrontEncodingMatchesPaperLayout)
{
    const CpfnCodec codec(paperGeometry());
    // Front: MSB (bit 6) clear, low 6 bits = offset.
    for (unsigned off = 0; off < 56; ++off) {
        const Cpfn c = codec.encodeFront(off);
        EXPECT_EQ(c & 0x40, 0u);
        EXPECT_EQ(c & 0x3F, off);
    }
}

TEST(CpfnCodec, BackEncodingMatchesPaperLayout)
{
    const CpfnCodec codec(paperGeometry());
    // Back: MSB set, next 3 bits = bucket choice, low 3 = offset.
    for (unsigned choice = 0; choice < 6; ++choice) {
        for (unsigned off = 0; off < 8; ++off) {
            const Cpfn c = codec.encodeBack(choice, off);
            EXPECT_EQ(c & 0x40, 0x40u);
            EXPECT_EQ((c >> 3) & 0x7, choice);
            EXPECT_EQ(c & 0x7, off);
        }
    }
}

TEST(CpfnCodec, RoundTripAllFrontSlots)
{
    const CpfnCodec codec(paperGeometry());
    for (unsigned off = 0; off < 56; ++off) {
        const auto d = codec.decode(codec.encodeFront(off));
        EXPECT_TRUE(d.front);
        EXPECT_EQ(d.offset, off);
    }
}

TEST(CpfnCodec, RoundTripAllBackSlots)
{
    const CpfnCodec codec(paperGeometry());
    for (unsigned choice = 0; choice < 6; ++choice) {
        for (unsigned off = 0; off < 8; ++off) {
            const auto d = codec.decode(codec.encodeBack(choice, off));
            EXPECT_FALSE(d.front);
            EXPECT_EQ(d.choice, choice);
            EXPECT_EQ(d.offset, off);
        }
    }
}

TEST(CpfnCodec, AllEncodingsDistinctAndValid)
{
    const CpfnCodec codec(paperGeometry());
    std::set<Cpfn> seen;
    for (unsigned off = 0; off < 56; ++off)
        seen.insert(codec.encodeFront(off));
    for (unsigned choice = 0; choice < 6; ++choice)
        for (unsigned off = 0; off < 8; ++off)
            seen.insert(codec.encodeBack(choice, off));
    // 104 distinct codes, none equal to the sentinel.
    EXPECT_EQ(seen.size(), 104u);
    EXPECT_FALSE(seen.contains(codec.invalid()));
    for (const Cpfn c : seen)
        EXPECT_TRUE(codec.isValid(c));
}

TEST(CpfnCodec, InvalidSentinelIsAllOnes)
{
    const CpfnCodec codec(paperGeometry());
    EXPECT_FALSE(codec.isValid(codec.invalid()));
    EXPECT_EQ(codec.invalid(),
              static_cast<Cpfn>((1u << codec.bits()) - 1));
}

TEST(CpfnCodec, WidensWhenAllOnesWouldCollide)
{
    // d = 8, b = 8: back encoding (7, 7) would be all ones in a
    // 7-bit layout; the codec must widen to keep the sentinel.
    MemoryGeometry g;
    g.frontSlots = 48;
    g.backSlots = 8;
    g.backChoices = 8;
    g.numFrames = g.slotsPerBucket() * 64;
    const CpfnCodec codec(g);
    EXPECT_EQ(codec.bits(), 8u);
    EXPECT_NE(codec.encodeBack(7, 7), codec.invalid());
    const auto d = codec.decode(codec.encodeBack(7, 7));
    EXPECT_FALSE(d.front);
    EXPECT_EQ(d.choice, 7u);
    EXPECT_EQ(d.offset, 7u);
}

TEST(CpfnCodec, SmallGeometryUsesFewerBits)
{
    MemoryGeometry g;
    g.frontSlots = 6;
    g.backSlots = 2;
    g.backChoices = 2;
    g.numFrames = g.slotsPerBucket() * 16;
    const CpfnCodec codec(g);
    // payload = max(ceil_log2 6, 1 + 1) = 3; +1 flag = 4 bits.
    EXPECT_EQ(codec.bits(), 4u);
    const auto d = codec.decode(codec.encodeBack(1, 1));
    EXPECT_EQ(d.choice, 1u);
    EXPECT_EQ(d.offset, 1u);
}

using CpfnDeathTest = ::testing::Test;

TEST(CpfnDeathTest, DecodingSentinelPanics)
{
    const CpfnCodec codec(paperGeometry());
    EXPECT_DEATH((void)codec.decode(codec.invalid()), "sentinel");
}

TEST(CpfnDeathTest, OutOfRangeEncodingsPanic)
{
    const CpfnCodec codec(paperGeometry());
    EXPECT_DEATH((void)codec.encodeFront(56), "range");
    EXPECT_DEATH((void)codec.encodeBack(6, 0), "range");
    EXPECT_DEATH((void)codec.encodeBack(0, 8), "range");
}

TEST(Geometry, PaperDefaults)
{
    MemoryGeometry g;
    EXPECT_EQ(g.slotsPerBucket(), 64u);
    EXPECT_EQ(g.associativity(), 104u);
    g.numFrames = 4096;
    EXPECT_EQ(g.numBuckets(), 64u);
    g.check();
}

TEST(Geometry, PaperLinuxPoolIsFourGib)
{
    const MemoryGeometry g = MemoryGeometry::paperLinuxPool();
    EXPECT_EQ(g.bytes(), std::uint64_t{4} << 30);
    EXPECT_EQ(g.numFrames % g.slotsPerBucket(), 0u);
}

TEST(Geometry, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(56), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

using GeometryDeathTest = ::testing::Test;

TEST(GeometryDeathTest, ChecksRejectBadShapes)
{
    MemoryGeometry g;
    g.numFrames = 100; // not a bucket multiple
    EXPECT_DEATH(g.check(), "bucket multiple");

    g = MemoryGeometry{};
    g.frontSlots = 0;
    EXPECT_DEATH(g.check(), "front yard must be nonempty");

    g = MemoryGeometry{};
    g.backSlots = 0;
    EXPECT_DEATH(g.check(), "backyard must be nonempty");

    g = MemoryGeometry{};
    g.backChoices = 0;
    EXPECT_DEATH(g.check(), "need at least one choice");

    // d = 6 needs 7 buckets to choose from; 6 cannot host them.
    g = MemoryGeometry{};
    g.numFrames = 6 * g.slotsPerBucket();
    EXPECT_DEATH(g.check(), "fewer buckets than hash choices");
}

TEST(GeometryDeathTest, MapperRejectsChoicesAboveMax)
{
    // A valid geometry whose d overflows the fixed CandidateSet;
    // one-slot yards keep its CPFNs within the codec's 8 bits.
    MemoryGeometry g;
    g.frontSlots = 1;
    g.backSlots = 1;
    g.backChoices = maxBackChoices + 1;
    g.numFrames = 64 * g.slotsPerBucket();
    g.check();
    EXPECT_DEATH(MosaicMapper{g}, "d exceeds maxBackChoices");
}

} // namespace
} // namespace mosaic
