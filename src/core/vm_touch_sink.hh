/**
 * @file
 * Adapter that drives a virtual-memory model from a workload's
 * reference stream: each data access becomes a page touch (demand
 * paging). Used by the memory-pressure experiments (Tables 3 and 4).
 */

#ifndef MOSAIC_CORE_VM_TOUCH_SINK_HH_
#define MOSAIC_CORE_VM_TOUCH_SINK_HH_

#include <memory>

#include "os/virtual_memory.hh"
#include "workloads/access_sink.hh"

namespace mosaic
{

/** Forwards accesses to VirtualMemory::touch at page granularity. */
class VmTouchSink : public AccessSink
{
  public:
    VmTouchSink(VirtualMemory &vm, Asid asid)
        : vm_(vm), asid_(asid)
    {
    }

    void
    access(Addr vaddr, bool write) override
    {
        vm_.touch(asid_, vpnOf(vaddr), write);
    }

  private:
    VirtualMemory &vm_;
    Asid asid_;
};

/**
 * Factory behind the MOSAIC_BATCH knob, which batches only this VM
 * touch path (the TLB sweeps ignore it): a plain VmTouchSink when
 * @p block <= 1, otherwise a BatchVmTouchSink (batch_pipeline.hh)
 * buffering @p block touches per VirtualMemory::touchBatch call.
 * Both produce bit-identical VM state; callers must flush() before
 * reading stats. Defined in batch_pipeline.cc.
 */
std::unique_ptr<AccessSink> makeVmTouchSink(VirtualMemory &vm,
                                            Asid asid, unsigned block);

} // namespace mosaic

#endif // MOSAIC_CORE_VM_TOUCH_SINK_HH_
