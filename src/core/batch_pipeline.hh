/**
 * @file
 * The batched VM touch pipeline (DESIGN.md §13): an adapter that
 * buffers a workload's page touches into blocks and drains them
 * through VirtualMemory::touchBatch for the demand-paging
 * experiments (Tables 3 and 4) instead of one virtual call per
 * reference.
 *
 * Batching never changes results: touchBatch is bit-exact against
 * the scalar touch() loop (stats, placements, digests), enforced by
 * tests/test_batch_pipeline.cc and the fuzz harness's batched leg.
 * The block size comes from the MOSAIC_BATCH environment knob (0 or
 * unset = scalar), so the VM drivers — Tables 3/4, mosaic_fuzz and
 * mosaic_replay — can flip between paths without code changes. The
 * TLB sweeps (Figure 6, bake-off, interference) have one drive path,
 * TranslationSim::access, and ignore the knob.
 */

#ifndef MOSAIC_CORE_BATCH_PIPELINE_HH_
#define MOSAIC_CORE_BATCH_PIPELINE_HH_

#include <algorithm>
#include <vector>

#include "core/vm_touch_sink.hh"
#include "os/virtual_memory.hh"
#include "workloads/access_sink.hh"

namespace mosaic
{

/** Upper bound on the batch block size (keeps scratch bounded). */
constexpr unsigned maxBatchBlock = 4096;

/**
 * Block size selected by the MOSAIC_BATCH environment variable:
 * 0 when unset, empty, unparsable, or <= 1 (all meaning "scalar");
 * otherwise the value clamped to maxBatchBlock.
 */
unsigned batchBlockFromEnv();

/**
 * Buffers page touches into fixed-size blocks and drains them
 * through VirtualMemory::touchBatch. Deterministic by construction:
 * the block preserves stream order and touchBatch's contract is
 * bit-exact equivalence to a scalar touch() loop. flush() (also run
 * on destruction) drains a partial tail block.
 */
class BatchVmTouchSink : public AccessSink
{
  public:
    BatchVmTouchSink(VirtualMemory &vm, Asid asid, unsigned block)
        : vm_(vm), asid_(asid),
          block_(std::clamp(block, 2u, maxBatchBlock))
    {
        buf_.reserve(block_);
        pfns_.resize(block_);
    }

    ~BatchVmTouchSink() override { drain(); }

    void
    access(Addr vaddr, bool write) override
    {
        buf_.push_back(PageTouch{asid_, vpnOf(vaddr), write});
        if (buf_.size() >= block_)
            drain();
    }

    void flush() override { drain(); }

  private:
    void
    drain()
    {
        if (buf_.empty())
            return;
        vm_.touchBatch(buf_, pfns_.data());
        buf_.clear();
    }

    VirtualMemory &vm_;
    Asid asid_;
    std::size_t block_;
    std::vector<PageTouch> buf_;
    std::vector<Pfn> pfns_;
};

} // namespace mosaic

#endif // MOSAIC_CORE_BATCH_PIPELINE_HH_
