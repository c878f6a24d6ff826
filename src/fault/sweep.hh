/**
 * @file
 * Crash-resilient, resumable execution of experiment sweeps
 * (DESIGN.md §11).
 *
 * A sweep is n independent cells run on the thread pool. A bare
 * parallelFor is all-or-nothing: one throwing cell aborts the whole
 * run. SweepRunner instead gives every cell:
 *
 *  - isolation: a cell that throws is recorded — cell id and error
 *    text — in a failure manifest instead of killing the sweep; the
 *    remaining cells still run and report. Each cell body runs at
 *    most once per run: a cell is a pure function of (options, cell
 *    index), so running it again in the same process would only
 *    throw again;
 *  - checkpoint/resume: when MOSAIC_RESUME_DIR is set, every
 *    completed cell's result is serialized to
 *    <dir>/<sweep>.<cell>.cell as soon as it finishes, and a rerun
 *    with the same directory loads those results instead of
 *    recomputing — so an interrupted sweep (SIGINT, SIGKILL, power
 *    loss) resumes where it left off and produces the same merged
 *    results as an uninterrupted run. Failed cells leave no
 *    checkpoint, so the rerun is also how they are recovered.
 *    Checkpoints embed a fingerprint of the sweep configuration; a
 *    mismatch forces recomputation rather than silently merging
 *    stale results.
 *
 * The injection site "cell.run" (a thread-pool task crash) is
 * consulted once per cell with an injector seeded from
 * (sweep, cell), so injected cell failures replay identically at
 * any thread count.
 *
 * Failure manifests and resume counters are *run-shape* data, not
 * results: benches record them in the BENCH_*.json manifest, keeping
 * the metrics section byte-comparable between interrupted-and-
 * resumed and uninterrupted runs.
 */

#ifndef MOSAIC_FAULT_SWEEP_HH_
#define MOSAIC_FAULT_SWEEP_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "util/thread_pool.hh"

namespace mosaic::fault
{

/** One permanently-failed cell in the manifest. */
struct CellFailure
{
    std::string cell;
    std::string error;
};

/** Knobs of one resilient sweep (see file comment for env names). */
struct SweepOptions
{
    /** Checkpoint directory; empty disables checkpoint/resume. */
    std::string resumeDir;

    /** Configuration fingerprint embedded in checkpoints. */
    std::string fingerprint;

    /** Test hook (MOSAIC_SWEEP_DIE_AFTER): _exit(130) after this
     *  many freshly computed cells, simulating a mid-sweep kill.
     *  0 disables. */
    unsigned dieAfterCells = 0;

    /** Defaults overridden by the MOSAIC_* environment knobs. */
    static SweepOptions fromEnv();
};

/** What happened across one sweep (the failure manifest + counters). */
struct SweepStats
{
    /** Failed cells, in cell-index order. */
    std::vector<CellFailure> failures;

    /** Cells restored from checkpoints instead of recomputed. */
    std::uint64_t resumedCells = 0;

    /** Fresh results checkpointed to the resume directory. */
    std::uint64_t checkpointedCells = 0;

    /** "cell.run" faults injected across all cells. */
    std::uint64_t injectedCellFaults = 0;

    bool allOk() const { return failures.empty(); }
};

/** Runs one sweep's cells with isolation and checkpoint/resume. */
class SweepRunner
{
  public:
    /** Serialize cell @p i's completed result (checkpointing). */
    using SaveFn = std::function<std::string(std::size_t)>;

    /** Restore cell @p i from a checkpoint payload; false = payload
     *  unusable, recompute. */
    using LoadFn = std::function<bool(std::size_t, const std::string &)>;

    SweepRunner(std::string name, SweepOptions options);

    /**
     * Run cells 0..n-1 on @p pool. @p cellId names a cell for
     * manifests and checkpoint files (must be deterministic and
     * unique per index). @p body computes the cell, writing its
     * result into caller-owned slot i. @p save/@p load are optional;
     * both (plus a non-empty resumeDir) enable checkpoint/resume.
     *
     * Never throws for cell failures — inspect the returned
     * SweepStats. A checkpoint that cannot be written is a warning
     * (the sweep result is unaffected); a checkpoint that cannot be
     * read or fails load() is discarded and the cell recomputed.
     */
    SweepStats run(ThreadPool &pool, std::size_t n,
                   const std::function<std::string(std::size_t)> &cellId,
                   const std::function<void(std::size_t)> &body,
                   const SaveFn &save = nullptr,
                   const LoadFn &load = nullptr);

    const std::string &name() const { return name_; }
    const SweepOptions &options() const { return options_; }

  private:
    std::string checkpointPath(const std::string &cell) const;

    std::string name_;
    SweepOptions options_;
    FaultPlan plan_;
};

} // namespace mosaic::fault

#endif // MOSAIC_FAULT_SWEEP_HH_
