#include "mem/cpfn.hh"

#include <algorithm>

namespace mosaic
{

CpfnCodec::CpfnCodec(const MemoryGeometry &geometry)
    : frontOffsetBits_(ceilLog2(geometry.frontSlots)),
      choiceBits_(ceilLog2(geometry.backChoices)),
      backOffsetBits_(ceilLog2(geometry.backSlots)),
      frontSlots_(geometry.frontSlots),
      backSlots_(geometry.backSlots),
      backChoices_(geometry.backChoices)
{
    unsigned payload =
        std::max(frontOffsetBits_, choiceBits_ + backOffsetBits_);
    bits_ = 1 + payload;

    // If the all-ones pattern is a legal backyard encoding, widen the
    // choice field so the sentinel stays distinct (cannot happen with
    // the paper's geometry, where choice 7 is never used).
    const bool back_all_ones =
        backChoices_ == (1u << choiceBits_) &&
        backSlots_ == (1u << backOffsetBits_) &&
        choiceBits_ + backOffsetBits_ >= frontOffsetBits_;
    if (back_all_ones) {
        ++choiceBits_;
        payload = std::max(frontOffsetBits_, choiceBits_ + backOffsetBits_);
        bits_ = 1 + payload;
    }
    ensure(bits_ <= 8, "cpfn: encoding exceeds 8 bits");
    invalid_ = static_cast<Cpfn>((1u << bits_) - 1);
}

Cpfn
CpfnCodec::encodeFront(unsigned offset) const
{
    ensure(offset < frontSlots_, "cpfn: front offset out of range");
    return static_cast<Cpfn>(offset);
}

Cpfn
CpfnCodec::encodeBack(unsigned choice, unsigned offset) const
{
    ensure(choice < backChoices_, "cpfn: backyard choice out of range");
    ensure(offset < backSlots_, "cpfn: backyard offset out of range");
    const unsigned msb = 1u << (bits_ - 1);
    return static_cast<Cpfn>(msb | (choice << backOffsetBits_) | offset);
}

} // namespace mosaic
