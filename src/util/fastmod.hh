/**
 * @file
 * Exact division-free modulo by a runtime constant (Lemire's fastmod).
 *
 * The mosaic mapper reduces every hash output modulo the bucket
 * count. The divisor is fixed at
 * construction, so the `div` instruction can be replaced by two
 * multiplies — and unlike the "fast range" trick (`(x * n) >> 64`),
 * this computes the *same value* as `%`, which keeps every digest
 * and golden table bit-identical.
 *
 * Valid for divisors and operands below 2^32 (all bucket counts and
 * hash-reduced indices in this codebase). d == 1 wraps magic to 0,
 * which still yields mod(n) == 0 for all n — also exact.
 */

#ifndef MOSAIC_UTIL_FASTMOD_HH_
#define MOSAIC_UTIL_FASTMOD_HH_

#include <cstdint>

namespace mosaic
{

class FastMod32
{
  public:
    FastMod32() = default;

    explicit FastMod32(std::uint32_t d)
        : magic_(UINT64_MAX / d + 1), d_(d)
    {}

    /** n % d, exactly, for any n < 2^32. */
    std::uint32_t
    mod(std::uint32_t n) const
    {
        const std::uint64_t low = magic_ * n;
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(low) * d_) >> 64);
    }

    /** n / d, exactly, for any n < 2^32. */
    std::uint32_t
    div(std::uint32_t n) const
    {
        if (d_ == 1)
            return n; // magic wrapped to 0; the identity is exact
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(magic_) * n) >> 64);
    }

    std::uint32_t divisor() const { return d_; }

  private:
    std::uint64_t magic_ = 0;
    std::uint32_t d_ = 1;
};

} // namespace mosaic

#endif // MOSAIC_UTIL_FASTMOD_HH_
