/**
 * @file
 * Adapter that drives a virtual-memory model from a workload's
 * reference stream: each data access becomes a page touch (demand
 * paging). Used by the memory-pressure experiments (Tables 3 and 4).
 */

#ifndef MOSAIC_CORE_VM_TOUCH_SINK_HH_
#define MOSAIC_CORE_VM_TOUCH_SINK_HH_

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

} // namespace mosaic

#endif // MOSAIC_CORE_VM_TOUCH_SINK_HH_
