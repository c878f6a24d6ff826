/**
 * @file
 * Mosaicd: the in-process translation-serving daemon (DESIGN.md
 * §16). Client threads connect(), obtain a SessionHandle, and
 * submit() translation requests; worker threads drain the
 * per-session SPSC rings into each session's own TranslationSim.
 *
 * The acceptance protocol is the heart of the crash story. submit()
 * runs, in order:
 *
 *   1. lifecycle check          (shed Lifecycle, Internal)
 *   2. quota                    (shed Quota, ResourceExhausted)
 *   3. token bucket             (shed RateLimit, ResourceExhausted)
 *   4. fault site serve.admit   (shed Injected, Injected)
 *   5. ring free-slot check     (shed Backpressure, ResourceExhausted)
 *   6. WAL append + flush       (shed LogIo, IoError;
 *                                site serve.log.append)
 *   7. ring push — cannot fail after 5 (SPSC: only this thread
 *      pushes) — and only now the request counts as ACCEPTED.
 *
 * Accepted therefore implies durable: every acked request is in the
 * flushed log prefix, so recovery replays it; everything else was
 * shed with a typed Status the client saw. Conservation —
 * submitted == accepted + Σshed, and accepted == completed after a
 * drain — holds at every quiesce point and is what the chaos tests
 * assert.
 *
 * Recovery (recoverAndStart) rebuilds each session from the state
 * directory: manifest → construct the identical sim (same derived
 * seed) → replay the durable log in order → verify the epoch
 * checkpoint's state digest when replay crosses its boundary →
 * reopen the log for append at the durable offset. The epoch
 * checkpoint is a *logical* snapshot (counters + digest, not sim
 * guts): replay does the state reconstruction, the checkpoint proves
 * it converged, and the records past it are the in-doubt window
 * counted as `replayed`.
 */

#ifndef MOSAIC_SERVE_DAEMON_HH_
#define MOSAIC_SERVE_DAEMON_HH_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hh"
#include "serve/session.hh"
#include "util/status.hh"

namespace mosaic::serve
{

class Mosaicd;

/** Daemon-wide counter totals (sessions summed + daemon events). */
struct ServeTotals
{
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t replayed = 0;
    std::array<std::uint64_t, numShedClasses> shed{};
    std::uint64_t shedTotal = 0;

    std::uint64_t sessions = 0;
    std::uint64_t epochCheckpoints = 0;
    std::uint64_t recoveredSessions = 0;
    std::uint64_t crashes = 0;
};

/**
 * A client's capability to one session. Copyable; but submit() must
 * be driven by ONE thread at a time — the handle is the producer
 * side of an SPSC ring. Valid handles come from connect()/attach().
 */
class SessionHandle
{
  public:
    SessionHandle() = default;

    bool valid() const { return session_ != nullptr; }

    /** One submit attempt; Ok = accepted (durable), error = typed
     *  shed. */
    Status submit(Addr vaddr, bool write);

    /** submit() wrapped in retryWithBackoff. */
    Status submitRetry(Addr vaddr, bool write, Rng &rng,
                       unsigned max_attempts = 16,
                       unsigned base_micros = 50);

    /** Next sequence number = count of accepted requests; after a
     *  recovery this is the client's resume index into its trace. */
    std::uint64_t nextSeq() const;

    std::uint64_t id() const;
    Asid asid() const;
    const std::string &client() const;

    SessionSnapshot snapshot() const;

  private:
    friend class Mosaicd;

    SessionHandle(Mosaicd *daemon,
                  std::shared_ptr<ServeSession> session)
        : daemon_(daemon), session_(std::move(session))
    {
    }

    Mosaicd *daemon_ = nullptr;
    std::shared_ptr<ServeSession> session_;
};

/** The daemon. One instance per state directory incarnation. */
class Mosaicd
{
  public:
    explicit Mosaicd(ServeConfig config);
    ~Mosaicd();

    Mosaicd(const Mosaicd &) = delete;
    Mosaicd &operator=(const Mosaicd &) = delete;

    /**
     * Fresh start: create the state directory (must not already
     * hold a manifest), write the manifest header, spawn workers.
     */
    Status start();

    /**
     * Start from an existing state directory: recover every
     * manifest session (log replay + digest verification), then
     * spawn workers. DataLoss when the directory's state cannot be
     * trusted.
     */
    Status recoverAndStart();

    /** New session for @p client (ASIDs are per-client dense).
     *  footprint 0 = config default. */
    Result<SessionHandle> connect(const std::string &client,
                                  std::uint64_t footprint_bytes = 0);

    /** Re-attach to @p client's most recent live session after a
     *  recovery. */
    Result<SessionHandle> attach(const std::string &client);

    /**
     * Epoch-fenced teardown: stop admissions, wait for the owning
     * worker to drain the queue, take the final checkpoint, and
     * close the log. Blocks until the session is retired.
     */
    Status disconnect(SessionHandle &handle);

    /** Block until every accepted request is applied (rings empty).
     *  Timeout when @p timeout_seconds elapse first. */
    Status drain(double timeout_seconds = 30.0);

    /** Graceful shutdown: final checkpoints, logs closed cleanly. */
    void stop();

    /**
     * Simulated process death: workers stop mid-stream, each log is
     * truncated to its flushed watermark, in-memory sims are dead.
     * The object stays inert (submits shed Lifecycle); recovery
     * happens in a NEW Mosaicd over the same state directory.
     */
    void crashForTesting();

    bool running() const;
    bool crashed() const;

    const ServeConfig &config() const { return config_; }

    ServeTotals totals() const;
    std::vector<SessionSnapshot> snapshots() const;

    /**
     * The deterministic state digest of one session. Only
     * meaningful on a quiesced daemon (after drain() or stop());
     * NotFound for unknown ids.
     */
    Result<std::uint64_t> stateDigest(std::uint64_t session_id) const;

  private:
    friend class SessionHandle;

    enum class Phase
    {
        Fresh,
        Running,
        Crashed,
        Stopped,
    };

    struct WorkerSlot
    {
        std::thread thread;
        fault::FaultInjector injector;
    };

    Status submit(ServeSession &session, Addr vaddr, bool write);
    Status shedRequest(ServeSession &session, ShedClass cls,
                       Status status);

    void spawnThreads();
    void workerMain(unsigned slot);
    void writeEpochCheckpoint(ServeSession &session);
    void retireSession(ServeSession &session);

    /** Stop and join every worker but the calling one, then
     *  truncate logs to their flushed watermarks; idempotent (first
     *  caller wins). The caller holds teardown_. */
    void finishCrash();

    Status appendManifest(const ServeSession &session);

    std::vector<std::shared_ptr<ServeSession>>
    sessionsOwnedBy(unsigned slot);

    std::string manifestPath() const;

    ServeConfig config_;
    fault::FaultPlan faultPlan_;

    std::atomic<Phase> phase_{Phase::Fresh};

    /** Serializes submit-side log appends (shared) against crash
     *  truncation (exclusive); never held while blocking. */
    std::shared_mutex lifecycle_;

    mutable std::mutex sessionsMutex_;
    std::vector<std::shared_ptr<ServeSession>> sessions_;
    std::uint64_t nextSessionId_ = 0;
    std::map<std::string, Asid> clientNextAsid_;

    std::FILE *manifest_ = nullptr;

    std::vector<std::unique_ptr<WorkerSlot>> workers_;
    std::atomic<bool> stopWorkers_{false};
    std::atomic<bool> crashDone_{false};

    /** Held by the one thread that joins the workers: stop(), the
     *  destructor, or whoever finishes a crash. A worker whose
     *  serve.crash fires only try-locks it, so a teardown that is
     *  joining that worker never waits on it. */
    std::mutex teardown_;

    std::atomic<std::uint64_t> epochCheckpoints_{0};
    std::uint64_t recoveredSessions_ = 0;
    std::atomic<std::uint64_t> crashes_{0};
};

/**
 * Register daemon totals under "<prefix>." in any registry-like
 * object with counter(name, value) (the BenchReport metrics
 * contract: monotonic counts only; latency lives in the caller's
 * LatencyHistogram).
 */
template <typename RegistryT>
void
registerServeTotals(RegistryT &r, const ServeTotals &t,
                    const std::string &prefix = "serve")
{
    r.counter(prefix + ".submitted", t.submitted);
    r.counter(prefix + ".accepted", t.accepted);
    r.counter(prefix + ".completed", t.completed);
    r.counter(prefix + ".replayed", t.replayed);
    r.counter(prefix + ".shedTotal", t.shedTotal);
    for (std::size_t i = 0; i < numShedClasses; ++i) {
        r.counter(prefix + ".shed." +
                      shedClassName(static_cast<ShedClass>(i)),
                  t.shed[i]);
    }
    r.counter(prefix + ".sessions", t.sessions);
    r.counter(prefix + ".epochCheckpoints", t.epochCheckpoints);
    r.counter(prefix + ".recoveredSessions", t.recoveredSessions);
    r.counter(prefix + ".crashes", t.crashes);
}

} // namespace mosaic::serve

#endif // MOSAIC_SERVE_DAEMON_HH_
