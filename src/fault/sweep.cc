#include "fault/sweep.hh"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "fault/checkpoint.hh"
#include "hash/mix.hh"
#include "util/log.hh"
#include "util/parse.hh"

namespace mosaic::fault
{

namespace
{

/** Filename-safe form of a cell id. */
std::string
sanitize(const std::string &cell)
{
    std::string out;
    out.reserve(cell.size());
    for (const char c : cell) {
        const bool safe = std::isalnum(static_cast<unsigned char>(c)) ||
                          c == '.' || c == '-' || c == '_';
        out += safe ? c : '_';
    }
    return out;
}

std::string
describeException()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "non-standard exception";
    }
}

} // namespace

SweepOptions
SweepOptions::fromEnv()
{
    // Strict parsing (util/parse.hh): a set-but-malformed knob is an
    // unusable configuration and exits with the offender quoted,
    // never a silent default.
    SweepOptions options;
    if (const char *dir = std::getenv("MOSAIC_RESUME_DIR");
            dir != nullptr && *dir != '\0') {
        options.resumeDir = dir;
    }
    options.dieAfterCells = static_cast<unsigned>(
        envUnsigned("MOSAIC_SWEEP_DIE_AFTER", 0));
    return options;
}

SweepRunner::SweepRunner(std::string name, SweepOptions options)
    : name_(std::move(name)), options_(std::move(options)),
      plan_(FaultPlan::fromEnv())
{
}

std::string
SweepRunner::checkpointPath(const std::string &cell) const
{
    return options_.resumeDir + "/" + sanitize(name_) + "." +
           sanitize(cell) + ".cell";
}

SweepStats
SweepRunner::run(ThreadPool &pool, std::size_t n,
                 const std::function<std::string(std::size_t)> &cellId,
                 const std::function<void(std::size_t)> &body,
                 const SaveFn &save, const LoadFn &load)
{
    const bool checkpointing = !options_.resumeDir.empty() &&
                               save != nullptr && load != nullptr;
    if (checkpointing) {
        std::error_code ec;
        std::filesystem::create_directories(options_.resumeDir, ec);
        if (ec) {
            warn("sweep " + name_ + ": cannot create resume dir '" +
                 options_.resumeDir + "' (" + ec.message() +
                 "); checkpointing disabled");
        }
    }

    // Per-index slots (written only by the claimant of the index)
    // keep the manifest deterministic without locking.
    std::vector<std::optional<CellFailure>> failed(n);
    std::atomic<std::uint64_t> resumed{0};
    std::atomic<std::uint64_t> checkpointed{0};
    std::atomic<std::uint64_t> injected{0};
    std::atomic<unsigned> freshDone{0};

    parallelFor(pool, n, [&](std::size_t i) {
        const std::string cell = cellId(i);

        if (checkpointing) {
            const Result<std::string> payload = readCheckpointFile(
                checkpointPath(cell), cellCheckpointMagic,
                options_.fingerprint);
            if (payload.ok()) {
                bool loaded = false;
                try {
                    loaded = load(i, payload.value());
                } catch (...) {
                    loaded = false;
                }
                if (loaded) {
                    ++resumed;
                    return;
                }
            }
            if (payload.ok() ||
                    payload.status().code() != StatusCode::NotFound) {
                warn("sweep " + name_ + ": stale or unreadable "
                     "checkpoint for cell '" + cell +
                     "'; recomputing");
            }
        }

        // One injector per (sweep, cell): bit-identical firing at
        // any thread count. The body runs at most once; a failed
        // cell is recovered by re-running with the same resume
        // directory, which recomputes exactly the cells that left no
        // checkpoint.
        FaultInjector inj(&plan_, mix64(hashString(name_) ^
                                        mix64(hashString(cell))));
        try {
            if (inj.shouldFail("cell.run")) {
                ++injected;
                throw FaultInjectedError("cell.run");
            }
            body(i);
        } catch (...) {
            const std::string error = describeException();
            warn("sweep " + name_ + ": cell '" + cell +
                 "' failed: " + error);
            failed[i] = CellFailure{cell, error};
            return;
        }

        if (checkpointing) {
            std::string payload;
            bool have_payload = false;
            try {
                payload = save(i);
                have_payload = true;
            } catch (...) {
                warn("sweep " + name_ + ": serializing cell '" + cell +
                     "' failed (" + describeException() +
                     "); not checkpointed");
            }
            if (have_payload) {
                const Status wrote = writeCheckpointFile(
                    checkpointPath(cell), cellCheckpointMagic,
                    options_.fingerprint, payload);
                if (!wrote.ok())
                    warn("sweep " + name_ + ": " + wrote.message());
                else
                    ++checkpointed;
            }
        }

        const unsigned fresh = ++freshDone;
        if (options_.dieAfterCells > 0 &&
                fresh >= options_.dieAfterCells) {
            // Test hook: simulate a mid-sweep kill *after* the
            // completed cells' checkpoints are durable. 130 mirrors
            // death-by-SIGINT.
            warn("sweep " + name_ + ": MOSAIC_SWEEP_DIE_AFTER " +
                 "reached after " + std::to_string(fresh) +
                 " fresh cells; exiting");
            std::_Exit(130);
        }
    });

    SweepStats stats;
    stats.resumedCells = resumed.load();
    stats.checkpointedCells = checkpointed.load();
    stats.injectedCellFaults = injected.load();
    for (std::size_t i = 0; i < n; ++i) {
        if (failed[i])
            stats.failures.push_back(std::move(*failed[i]));
    }
    return stats;
}

} // namespace mosaic::fault
