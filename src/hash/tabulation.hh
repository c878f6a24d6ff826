/**
 * @file
 * Tabulation hashing with multi-output probing, as used on the Mosaic
 * TLB critical path (paper §3.1, Figure 4).
 *
 * The hash of a 64-bit input A is the XOR of one 32-bit table lookup
 * per input byte: H(A) = XOR_i T_i[byte_i(A)]. To obtain several
 * independent-enough hash functions from a single set of tables
 * (saving chip area), output k probes each table at an offset of k:
 * H_k(A) = XOR_i T_i[(byte_i(A) + k) mod 256].
 *
 * Mosaic evaluates 1 + d = 7 outputs per translation: H_0 selects the
 * front-yard bucket and H_1..H_6 the backyard candidates. The batched
 * probeAll() path mirrors the hardware exactly: each table is read
 * once and yields every probe offset in the same pass.
 */

#ifndef MOSAIC_HASH_TABULATION_HH_
#define MOSAIC_HASH_TABULATION_HH_

#include <array>
#include <cstdint>
#include <span>

namespace mosaic
{

/**
 * Simple tabulation hash over 64-bit keys with probed multi-output.
 *
 * The static tables are filled from a seeded PRNG at construction, so
 * two instances with the same seed compute identical functions — a
 * requirement for the OS and the simulated hardware to agree on page
 * placements.
 */
class TabulationHash
{
  public:
    /** Number of byte-indexed tables (one per input byte). */
    static constexpr unsigned numTables = 8;

    /** Entries per table (one per byte value). */
    static constexpr unsigned tableEntries = 256;

    /** Largest probe batch probeAll() supports in one pass. */
    static constexpr unsigned maxProbes = 8;

    /** Construct with tables filled from the given seed. */
    explicit TabulationHash(std::uint64_t seed = 1);

    /** Hash output k of the given key (probed lookup). */
    std::uint32_t
    hash(std::uint64_t key, unsigned k = 0) const
    {
        std::uint32_t h = 0;
        for (unsigned i = 0; i < numTables; ++i) {
            const auto byte = static_cast<unsigned>((key >> (8 * i)) & 0xFF);
            h ^= tables_[i][(byte + k) & 0xFF];
        }
        return h;
    }

    /**
     * Compute outputs 0..out.size()-1 of the key in one pass.
     * Mirrors the hardware, which reads all probe offsets from each
     * table in parallel and muxes the XOR results.
     */
    void hashMany(std::uint64_t key, std::span<std::uint32_t> out) const;

    /**
     * Batched probe: outputs 0..out.size()-1 with exactly one read
     * per table (numTables = 8 reads total, independent of the probe
     * count). Requires out.size() <= maxProbes. The probe offsets
     * (byte + k) mod 256 land in a contiguous window because the
     * tables carry a mirrored tail (entries 256..256+maxProbes-2
     * duplicate entries 0..maxProbes-2), so one block read per table
     * covers all offsets — the software analogue of the hardware's
     * wide table port. Results are bit-identical to hash()/hashMany().
     */
    void probeAll(std::uint64_t key, std::span<std::uint32_t> out) const;

    /**
     * probeAll() over a whole block of keys in one table-by-table
     * sweep: for each table, every key's probe window is read before
     * moving to the next table, so the block amortizes the table
     * working set (8 tables x ~1 KiB) across all keys instead of
     * re-streaming it per key. Writes key-major output — key i's
     * probes land at out[i * width .. i * width + width) — and is
     * bit-identical to calling probeAll() per key. Accounting matches
     * the scalar bound exactly: numTables reads are charged per key,
     * so a block of B keys reports 8 * B reads. Requires
     * width <= maxProbes; width == 0 charges nothing.
     */
    void probeAllMany(std::span<const std::uint64_t> keys, unsigned width,
                      std::uint32_t *out) const;

    /** Raw table entry, exposed for the Verilog generator. */
    std::uint32_t tableEntry(unsigned table, unsigned index) const;

    /** Cumulative table reads performed by probeAll() (testing). */
    std::uint64_t probeTableReads() const { return probeTableReads_; }

    /** Reset the probeAll() read counter (testing). */
    void resetProbeTableReads() { probeTableReads_ = 0; }

  private:
    // Each table carries maxProbes-1 mirrored entries past index 255
    // so a probe window starting at any byte stays contiguous.
    static constexpr unsigned paddedEntries =
        tableEntries + maxProbes - 1;

    std::array<std::array<std::uint32_t, paddedEntries>, numTables>
        tables_;
    mutable std::uint64_t probeTableReads_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_HASH_TABULATION_HH_
