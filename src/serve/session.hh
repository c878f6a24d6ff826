/**
 * @file
 * mosaicd's session layer (DESIGN.md §16): one ServeSession per
 * connected client stream.
 *
 * A session owns its OWN small TranslationSim. That per-client
 * isolation is the determinism keystone: a session's simulator state
 * depends only on that session's own accepted-request order (which
 * the WAL records densely), never on how worker threads interleave
 * sessions — so counters are bit-identical at any worker count, and
 * crash recovery can rebuild a session by replaying its log alone.
 *
 * Thread roles are strict and mirror the SPSC ring underneath:
 *   - producer state (nextSeq, bucket, injector, WAL appends) is
 *     touched only by the one client thread driving the handle;
 *   - consumer state (sim, epoch counters, checkpoints) only by the
 *     one worker that owns the session;
 *   - the counters crossing that line are atomics.
 */

#ifndef MOSAIC_SERVE_SESSION_HH_
#define MOSAIC_SERVE_SESSION_HH_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/request_log.hh"
#include "core/translation_sim.hh"
#include "fault/fault.hh"
#include "serve/admission.hh"
#include "serve/ring.hh"
#include "util/status.hh"
#include "util/types.hh"

namespace mosaic::serve
{

/** Daemon-wide configuration (shared by every session). */
struct ServeConfig
{
    /** Worker threads; sessions are sharded by id % workers. */
    unsigned workers = 2;

    /** Per-session SPSC ring capacity (rounded up to a power of
     *  two); a full ring is backpressure. */
    std::size_t ringCapacity = 256;

    /** Per-session simulator shape: a single (ways, arity) point,
     *  small TLBs — the serving path wants throughput, not the
     *  full Figure 6 grid. */
    unsigned tlbEntries = 64;
    unsigned ways = 4;
    unsigned arity = 8;

    /** Default per-session footprint hint (sizes the sim's ample
     *  memory); connect() may override per session. */
    std::uint64_t footprintBytes = std::uint64_t{16} << 20;

    /** Max accepted requests per session; 0 = unlimited. */
    std::uint64_t sessionQuota = 0;

    /** Token bucket: burst tokens and millitokens refilled per
     *  submit attempt; burst 0 = rate limiting off. */
    std::uint64_t tokenBurst = 0;
    std::uint64_t tokenRatePermille = 0;

    /** Applied requests between per-session epoch checkpoints. */
    std::uint64_t epochEvery = 4096;

    /** Logs, checkpoints, and the session manifest live here. */
    std::string stateDir;

    /** Root seed; per-session sim seeds derive from it by id. */
    std::uint64_t seed = 7;

    /**
     * Watchdog: a worker whose heartbeat freezes for stallMs while
     * it has pending work (or sits in an injected wedge) is
     * restarted. stallMs 0 disables restarts (the watchdog thread
     * still runs — it also finalizes injected crashes).
     */
    std::uint64_t watchdogStallMs = 200;
    std::uint64_t watchdogPollMs = 5;

    /**
     * The replay-relevant configuration, stamped into every log,
     * checkpoint, and manifest header: state from a config whose
     * replay would diverge must refuse to load.
     */
    std::string fingerprint() const;
};

/** Point-in-time counters of one session (all monotonic). */
struct SessionSnapshot
{
    std::uint64_t id = 0;
    std::string client;
    Asid asid = 0;

    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;

    /** Records re-applied from the durable log during recovery that
     *  were past the last checkpoint (the in-doubt window). */
    std::uint64_t replayed = 0;

    std::array<std::uint64_t, numShedClasses> shed{};

    std::uint64_t
    shedTotal() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t s : shed)
            t += s;
        return t;
    }

    bool closing = false;
    bool retired = false;
};

/**
 * One client session. Constructed (and recovered) only by Mosaicd;
 * clients hold SessionHandle. Public members are internal daemon
 * surface — the thread-role comments at the top of the file are the
 * access contract.
 */
struct ServeSession
{
    ServeSession(const ServeConfig &config, std::uint64_t session_id,
                 std::string client_name, Asid session_asid,
                 std::uint64_t footprint_bytes,
                 const fault::FaultPlan *plan);

    // Identity (immutable after construction).
    const std::uint64_t id;
    const std::string client;
    const Asid asid;
    const std::uint64_t footprintBytes;

    // ---- producer state (client thread only) ----

    /** Next sequence number to submit; dense from 0. After
     *  recovery: the durable record count (the resume point). */
    std::uint64_t nextSeq = 0;

    AdmissionController admission;
    fault::FaultInjector clientInjector;

    /** Sticky: a real WAL append/flush failure poisons the log
     *  (retrying would duplicate sequence numbers); every later
     *  submit sheds LogIo until the session is recovered. */
    bool logBroken = false;

    // ---- the channel ----
    SpscRing<LogRecord> ring;
    RequestLogWriter log;

    // ---- consumer state (owning worker thread only) ----
    std::unique_ptr<TranslationSim> sim;
    std::uint64_t appliedSinceEpoch = 0;
    std::uint64_t epoch = 0;

    // ---- cross-thread counters ----
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> replayed{0};
    std::array<std::atomic<std::uint64_t>, numShedClasses> shed{};

    /** Epoch-fenced teardown: closing stops new admissions; the
     *  owning worker retires the session (final checkpoint + log
     *  close) once its queue drains. */
    std::atomic<bool> closing{false};
    std::atomic<bool> retired{false};

    /** Files under the daemon's state directory. */
    std::string logPath(const std::string &dir) const;
    std::string checkpointPath(const std::string &dir) const;

    /** Header fingerprint binding log/checkpoint to this session's
     *  replay-relevant identity (config + id + client + asid +
     *  footprint). */
    std::string sessionFingerprint(const ServeConfig &config) const;

    /**
     * FNV-1a over the sim's deterministic counters (mapped pages,
     * accesses, vanilla + mosaic TLB stats): the value checkpoints
     * record and recovery re-verifies at the checkpoint boundary.
     * Caller must hold the consumer role or have quiesced the
     * daemon.
     */
    std::uint64_t stateDigest() const;

    /** Checkpoint payload: epoch, applied-record count, digest. */
    std::string checkpointPayload() const;

    SessionSnapshot snapshotNow() const;
};

/** Parsed form of a checkpoint payload. */
struct EpochCheckpoint
{
    std::uint64_t epoch = 0;

    /** Records applied when the checkpoint was taken. */
    std::uint64_t records = 0;

    std::uint64_t digest = 0;
};

/** Parse checkpointPayload() text; DataLoss on malformed input. */
Result<EpochCheckpoint> parseEpochCheckpoint(
    const std::string &payload);

/** The per-session simulator configuration (shared by construction
 *  and recovery so both build bit-identical sims). */
TranslationSimConfig sessionSimConfig(const ServeConfig &config,
                                      std::uint64_t session_id,
                                      Asid asid,
                                      std::uint64_t footprint_bytes);

} // namespace mosaic::serve

#endif // MOSAIC_SERVE_SESSION_HH_
