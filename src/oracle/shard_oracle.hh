/**
 * @file
 * Whole-machine conservation oracle for the sharded VM engine
 * (DESIGN.md §17): the PR 3 per-shard invariants stay valid because
 * each shard is a full MosaicVm, so what the sharded layer adds —
 * and what this oracle checks — is that nothing is lost or double
 * counted across the shard boundary:
 *
 *  - partition exactness: Σ per-shard frames == global frames;
 *  - conservation: Σ per-shard resident / ghost counts == the
 *    machine-wide figures, with the per-shard counts themselves
 *    recomputed from a frame-table scan;
 *  - stat conservation: the aggregate VmStats equals an independent
 *    fold of the per-shard stats;
 *  - routing validity: every resident page lives at its owner ASID's
 *    home shard.
 */

#ifndef MOSAIC_ORACLE_SHARD_ORACLE_HH_
#define MOSAIC_ORACLE_SHARD_ORACLE_HH_

#include <optional>
#include <string>

#include "os/sharded_vm.hh"

namespace mosaic
{

/**
 * Check every whole-machine invariant; nullopt when all hold, else a
 * description of the first violation. @p deep additionally recounts
 * per-shard resident and ghost pages by scanning every frame —
 * O(total frames), so large pools should sample it.
 */
std::optional<std::string>
checkShardConservation(const ShardedMosaicVm &vm, bool deep = true);

} // namespace mosaic

#endif // MOSAIC_ORACLE_SHARD_ORACLE_HH_
