#include "serve/daemon.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "fault/checkpoint.hh"
#include "hash/mix.hh"
#include "util/log.hh"
#include "util/parse.hh"

namespace mosaic::serve
{

namespace
{

constexpr const char *manifestMagic = "mosaicd-sessions v1";

/** One parsed manifest line. */
struct ManifestEntry
{
    std::uint64_t id = 0;
    std::string client;
    Asid asid = 0;
    std::uint64_t footprint = 0;
};

Result<ManifestEntry>
parseManifestLine(const std::string &line)
{
    std::istringstream in(line);
    std::string kSession, vId, kClient, vClient, kAsid, vAsid,
        kFootprint, vFootprint;
    if (!(in >> kSession >> vId >> kClient >> vClient >> kAsid >>
            vAsid >> kFootprint >> vFootprint) ||
            kSession != "session" || kClient != "client" ||
            kAsid != "asid" || kFootprint != "footprint") {
        return Status::dataLoss("malformed manifest line '" + line +
                                "'");
    }
    ManifestEntry entry;
    auto id = parseUnsigned("manifest session id", vId);
    auto asid = parseUnsigned("manifest asid", vAsid);
    auto footprint = parseUnsigned("manifest footprint", vFootprint);
    if (!id.ok())
        return Status::dataLoss(id.status().message());
    if (!asid.ok())
        return Status::dataLoss(asid.status().message());
    if (!footprint.ok())
        return Status::dataLoss(footprint.status().message());
    if (asid.value() >
            std::numeric_limits<Asid>::max()) {
        return Status::dataLoss("manifest asid " + vAsid +
                                " exceeds the ASID range");
    }
    entry.id = id.value();
    entry.client = vClient;
    entry.asid = static_cast<Asid>(asid.value());
    entry.footprint = footprint.value();
    return entry;
}

void
sleepBriefly(std::uint64_t micros)
{
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

} // namespace

// ---------------------------------------------------------------
// SessionHandle

Status
SessionHandle::submit(Addr vaddr, bool write)
{
    if (!valid()) {
        return Status::invalidArgument(
            "submit on an invalid session handle");
    }
    return daemon_->submit(*session_, vaddr, write);
}

Status
SessionHandle::submitRetry(Addr vaddr, bool write, Rng &rng,
                           unsigned max_attempts,
                           unsigned base_micros)
{
    return retryWithBackoff(
        [&] { return submit(vaddr, write); }, rng, max_attempts,
        base_micros);
}

std::uint64_t
SessionHandle::nextSeq() const
{
    ensure(valid(), "serve: nextSeq() on an invalid handle");
    return session_->nextSeq;
}

std::uint64_t
SessionHandle::id() const
{
    ensure(valid(), "serve: id() on an invalid handle");
    return session_->id;
}

Asid
SessionHandle::asid() const
{
    ensure(valid(), "serve: asid() on an invalid handle");
    return session_->asid;
}

const std::string &
SessionHandle::client() const
{
    ensure(valid(), "serve: client() on an invalid handle");
    return session_->client;
}

SessionSnapshot
SessionHandle::snapshot() const
{
    ensure(valid(), "serve: snapshot() on an invalid handle");
    return session_->snapshotNow();
}

// ---------------------------------------------------------------
// Lifecycle

Mosaicd::Mosaicd(ServeConfig config)
    : config_(std::move(config)),
      faultPlan_(fault::FaultPlan::fromEnv())
{
}

Mosaicd::~Mosaicd()
{
    if (phase_.load() == Phase::Running)
        stop();
    // Waits out a crash that a worker is still finishing.
    std::lock_guard teardown(teardown_);
    stopWorkers_.store(true);
    for (auto &slot : workers_) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
    if (manifest_ != nullptr) {
        std::fclose(manifest_);
        manifest_ = nullptr;
    }
}

std::string
Mosaicd::manifestPath() const
{
    return config_.stateDir + "/sessions.meta";
}

Status
Mosaicd::start()
{
    if (phase_.load() != Phase::Fresh)
        return Status::internal("start() on a non-fresh daemon");
    if (config_.stateDir.empty())
        return Status::invalidArgument(
            "ServeConfig.stateDir must be set");
    if (config_.workers == 0)
        return Status::invalidArgument(
            "ServeConfig.workers must be at least 1");
    std::error_code ec;
    std::filesystem::create_directories(config_.stateDir, ec);
    if (ec) {
        return Status::ioError("cannot create state directory '" +
                               config_.stateDir + "' (" +
                               ec.message() + ")");
    }
    if (std::filesystem::exists(manifestPath())) {
        return Status::invalidArgument(
            "state directory '" + config_.stateDir +
            "' already holds a mosaicd manifest; use "
            "recoverAndStart()");
    }
    manifest_ = std::fopen(manifestPath().c_str(), "wb");
    if (manifest_ == nullptr) {
        return Status::ioError("cannot create manifest '" +
                               manifestPath() + "'");
    }
    const std::string header = std::string(manifestMagic) +
                               "\nfingerprint " +
                               config_.fingerprint() + "\n";
    if (std::fwrite(header.data(), 1, header.size(), manifest_) !=
            header.size() ||
            std::fflush(manifest_) != 0) {
        return Status::ioError("cannot write manifest header to '" +
                               manifestPath() + "'");
    }
    spawnThreads();
    phase_.store(Phase::Running);
    return {};
}

Status
Mosaicd::recoverAndStart()
{
    if (phase_.load() != Phase::Fresh)
        return Status::internal(
            "recoverAndStart() on a non-fresh daemon");
    if (config_.stateDir.empty())
        return Status::invalidArgument(
            "ServeConfig.stateDir must be set");
    if (config_.workers == 0)
        return Status::invalidArgument(
            "ServeConfig.workers must be at least 1");

    std::ifstream in(manifestPath());
    if (!in.good()) {
        return Status::notFound("no mosaicd manifest at '" +
                                manifestPath() + "'");
    }
    std::string line;
    if (!std::getline(in, line) || line != manifestMagic) {
        return Status::dataLoss("manifest '" + manifestPath() +
                                "' has a foreign or corrupt header");
    }
    if (!std::getline(in, line) ||
            line != "fingerprint " + config_.fingerprint()) {
        return Status::dataLoss(
            "manifest '" + manifestPath() +
            "' was written under a different configuration");
    }
    std::vector<std::string> lines;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    in.close();

    std::vector<ManifestEntry> entries;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        auto parsed = parseManifestLine(lines[i]);
        if (!parsed.ok()) {
            // A torn LAST line is a connect whose ack never
            // happened: drop it. Torn interior lines mean real
            // corruption.
            if (i + 1 == lines.size())
                break;
            return parsed.status();
        }
        entries.push_back(parsed.value());
    }

    for (const ManifestEntry &entry : entries) {
        auto session = std::make_shared<ServeSession>(
            config_, entry.id, entry.client, entry.asid,
            entry.footprint, &faultPlan_);
        const std::string fp =
            session->sessionFingerprint(config_);

        EpochCheckpoint ckpt;
        bool haveCkpt = false;
        auto ckptRes = fault::readCheckpointFile(
            session->checkpointPath(config_.stateDir),
            fault::epochCheckpointMagic, fp);
        if (ckptRes.ok()) {
            auto parsed = parseEpochCheckpoint(ckptRes.value());
            if (!parsed.ok())
                return parsed.status();
            ckpt = parsed.value();
            haveCkpt = true;
        } else if (ckptRes.status().code() != StatusCode::NotFound) {
            return ckptRes.status();
        }

        auto logRes = readRequestLog(
            session->logPath(config_.stateDir), fp);
        if (!logRes.ok()) {
            if (logRes.status().code() == StatusCode::NotFound) {
                return Status::dataLoss(
                    "session " + std::to_string(entry.id) +
                    " is in the manifest but its request log is "
                    "missing");
            }
            return logRes.status();
        }
        const RequestLogContents &contents = logRes.value();
        const std::uint64_t durable = contents.records.size();
        if (haveCkpt && ckpt.records > durable) {
            return Status::dataLoss(
                "session " + std::to_string(entry.id) +
                ": epoch checkpoint records " +
                std::to_string(ckpt.records) +
                " exceed the durable log (" +
                std::to_string(durable) + ")");
        }
        for (std::uint64_t i = 0; i < durable; ++i) {
            const LogRecord &rec = contents.records[i];
            if (rec.seq != i) {
                return Status::dataLoss(
                    "session " + std::to_string(entry.id) +
                    ": log record " + std::to_string(i) +
                    " carries sequence " + std::to_string(rec.seq));
            }
            session->sim->access(rec.vaddr, rec.write);
            if (haveCkpt && i + 1 == ckpt.records &&
                    session->stateDigest() != ckpt.digest) {
                return Status::dataLoss(
                    "session " + std::to_string(entry.id) +
                    ": replay diverged from the epoch checkpoint "
                    "digest at record " + std::to_string(i + 1));
            }
        }
        session->nextSeq = durable;
        session->submitted.store(durable);
        session->accepted.store(durable);
        session->completed.store(durable);
        session->replayed.store(
            durable - (haveCkpt ? ckpt.records : 0));
        session->epoch = ckpt.epoch;

        Status st = session->log.openForAppend(
            session->logPath(config_.stateDir),
            contents.durableBytes);
        if (!st.ok())
            return st;

        // The recovered state becomes the new checkpoint baseline
        // (an epoch fence at recovery).
        writeEpochCheckpoint(*session);

        {
            std::lock_guard lk(sessionsMutex_);
            sessions_.push_back(session);
            nextSessionId_ =
                std::max(nextSessionId_, entry.id + 1);
            Asid &next = clientNextAsid_[entry.client];
            next = std::max<Asid>(
                next, static_cast<Asid>(entry.asid + 1));
        }
        ++recoveredSessions_;
    }

    // Rewrite the manifest cleanly (drops any torn tail) and leave
    // it open for appends from future connects.
    manifest_ = std::fopen(manifestPath().c_str(), "wb");
    if (manifest_ == nullptr) {
        return Status::ioError("cannot rewrite manifest '" +
                               manifestPath() + "'");
    }
    std::string rewritten = std::string(manifestMagic) +
                            "\nfingerprint " +
                            config_.fingerprint() + "\n";
    for (const ManifestEntry &entry : entries) {
        rewritten += "session " + std::to_string(entry.id) +
                     " client " + entry.client + " asid " +
                     std::to_string(entry.asid) + " footprint " +
                     std::to_string(entry.footprint) + "\n";
    }
    if (std::fwrite(rewritten.data(), 1, rewritten.size(),
                    manifest_) != rewritten.size() ||
            std::fflush(manifest_) != 0) {
        return Status::ioError("cannot rewrite manifest '" +
                               manifestPath() + "'");
    }

    spawnThreads();
    phase_.store(Phase::Running);
    return {};
}

void
Mosaicd::spawnThreads()
{
    stopWorkers_.store(false);
    workers_.clear();
    for (unsigned w = 0; w < config_.workers; ++w) {
        auto slot = std::make_unique<WorkerSlot>();
        slot->injector = fault::FaultInjector(
            &faultPlan_,
            mix64(config_.seed ^ (0xD00D0000ull + w)));
        workers_.push_back(std::move(slot));
    }
    for (unsigned w = 0; w < config_.workers; ++w) {
        workers_[w]->thread =
            std::thread([this, w] { workerMain(w); });
    }
}

bool
Mosaicd::running() const
{
    return phase_.load() == Phase::Running;
}

bool
Mosaicd::crashed() const
{
    return phase_.load() == Phase::Crashed;
}

// ---------------------------------------------------------------
// Client path

Result<SessionHandle>
Mosaicd::connect(const std::string &client,
                 std::uint64_t footprint_bytes)
{
    if (phase_.load() != Phase::Running)
        return Status::internal("mosaicd is not running");
    if (client.empty() ||
            client.find_first_of(" \t\r\n") != std::string::npos) {
        return Status::invalidArgument(
            "client name must be non-empty and contain no "
            "whitespace (it is stored in the session manifest)");
    }
    std::lock_guard lk(sessionsMutex_);
    Asid &next = clientNextAsid_[client];
    if (next == 0)
        next = 1;
    if (next == std::numeric_limits<Asid>::max()) {
        return Status::resourceExhausted(
            "client '" + client + "' exhausted its ASID namespace");
    }
    const std::uint64_t id = nextSessionId_++;
    const Asid asid = next++;
    auto session = std::make_shared<ServeSession>(
        config_, id, client, asid,
        footprint_bytes ? footprint_bytes : config_.footprintBytes,
        &faultPlan_);
    Status st = session->log.open(
        session->logPath(config_.stateDir),
        session->sessionFingerprint(config_));
    if (!st.ok())
        return st;
    st = appendManifest(*session);
    if (!st.ok())
        return st;
    sessions_.push_back(session);
    return SessionHandle(this, std::move(session));
}

Result<SessionHandle>
Mosaicd::attach(const std::string &client)
{
    if (phase_.load() != Phase::Running)
        return Status::internal("mosaicd is not running");
    std::lock_guard lk(sessionsMutex_);
    for (auto it = sessions_.rbegin(); it != sessions_.rend();
         ++it) {
        if ((*it)->client == client && !(*it)->retired.load())
            return SessionHandle(this, *it);
    }
    return Status::notFound("no live session for client '" + client +
                            "'");
}

Status
Mosaicd::appendManifest(const ServeSession &session)
{
    const std::string line =
        "session " + std::to_string(session.id) + " client " +
        session.client + " asid " + std::to_string(session.asid) +
        " footprint " + std::to_string(session.footprintBytes) +
        "\n";
    if (manifest_ == nullptr ||
            std::fwrite(line.data(), 1, line.size(), manifest_) !=
                line.size() ||
            std::fflush(manifest_) != 0) {
        return Status::ioError("cannot append to manifest '" +
                               manifestPath() + "'");
    }
    return {};
}

Status
Mosaicd::shedRequest(ServeSession &session, ShedClass cls,
                     Status status)
{
    session.shed[static_cast<std::size_t>(cls)].fetch_add(
        1, std::memory_order_relaxed);
    return status;
}

Status
Mosaicd::submit(ServeSession &session, Addr vaddr, bool write)
{
    std::shared_lock lk(lifecycle_);
    session.submitted.fetch_add(1, std::memory_order_relaxed);
    if (phase_.load() != Phase::Running) {
        return shedRequest(
            session, ShedClass::Lifecycle,
            Status::internal(
                "mosaicd is not running (crashed or stopped)"));
    }
    if (session.closing.load(std::memory_order_acquire)) {
        return shedRequest(session, ShedClass::Lifecycle,
                           Status::internal("session is closing"));
    }
    ShedClass cls = ShedClass::Lifecycle;
    Status st = session.admission.admit(
        session.accepted.load(std::memory_order_relaxed),
        session.clientInjector, &cls);
    if (!st.ok())
        return shedRequest(session, cls, std::move(st));
    if (session.logBroken) {
        return shedRequest(
            session, ShedClass::LogIo,
            Status::ioError("request log is poisoned by an earlier "
                            "append failure; recover the daemon"));
    }
    if (session.ring.freeSlots() == 0) {
        return shedRequest(
            session, ShedClass::Backpressure,
            Status::resourceExhausted(
                "backpressure: session ring is full"));
    }
    const LogRecord rec{LogRecordKind::Translate, write,
                        session.nextSeq, vaddr};
    // The injected append failure fires BEFORE the file is touched,
    // so it is retryable; a real failure below poisons the log (a
    // retry would duplicate the sequence number).
    if (session.clientInjector.shouldFail("serve.log.append")) {
        return shedRequest(
            session, ShedClass::LogIo,
            Status::ioError(
                "injected fault at site 'serve.log.append'"));
    }
    st = session.log.append(rec);
    if (!st.ok()) {
        session.logBroken = true;
        return shedRequest(session, ShedClass::LogIo, std::move(st));
    }
    st = session.log.flush();
    if (!st.ok()) {
        session.logBroken = true;
        return shedRequest(session, ShedClass::LogIo, std::move(st));
    }
    ++session.nextSeq;
    ensure(session.ring.tryPush(rec),
           "serve: ring push failed after the free-slot check");
    session.accepted.fetch_add(1, std::memory_order_release);
    return {};
}

// ---------------------------------------------------------------
// Worker

std::vector<std::shared_ptr<ServeSession>>
Mosaicd::sessionsOwnedBy(unsigned slot)
{
    std::vector<std::shared_ptr<ServeSession>> owned;
    std::lock_guard lk(sessionsMutex_);
    for (const auto &session : sessions_) {
        if (session->id % config_.workers == slot)
            owned.push_back(session);
    }
    return owned;
}

void
Mosaicd::writeEpochCheckpoint(ServeSession &session)
{
    ++session.epoch;
    Status st = fault::writeCheckpointFile(
        session.checkpointPath(config_.stateDir),
        fault::epochCheckpointMagic,
        session.sessionFingerprint(config_),
        session.checkpointPayload());
    if (!st.ok()) {
        warn("mosaicd: session " + std::to_string(session.id) +
             " epoch checkpoint failed: " + st.toString());
        return;
    }
    epochCheckpoints_.fetch_add(1, std::memory_order_relaxed);
}

void
Mosaicd::retireSession(ServeSession &session)
{
    writeEpochCheckpoint(session);
    session.log.close();
    session.retired.store(true, std::memory_order_release);
}

void
Mosaicd::workerMain(unsigned slot_index)
{
    WorkerSlot &slot = *workers_[slot_index];
    while (!stopWorkers_.load()) {
        bool didWork = false;
        for (const auto &session : sessionsOwnedBy(slot_index)) {
            if (session->retired.load(std::memory_order_acquire))
                continue;
            LogRecord rec;
            unsigned budget = 64;
            while (budget-- > 0 && session->ring.tryPop(&rec)) {
                session->sim->access(rec.vaddr, rec.write);
                session->completed.fetch_add(
                    1, std::memory_order_release);
                ++session->appliedSinceEpoch;
                didWork = true;
                if (session->appliedSinceEpoch >=
                        config_.epochEvery) {
                    session->appliedSinceEpoch = 0;
                    writeEpochCheckpoint(*session);
                    if (slot.injector.shouldFail("serve.crash")) {
                        // This worker finishes the crash itself,
                        // unless a teardown already under way
                        // (stop(), the destructor, a peer's crash)
                        // is about to join it.
                        std::unique_lock teardown(teardown_,
                                                  std::try_to_lock);
                        if (teardown.owns_lock())
                            finishCrash();
                        return;
                    }
                }
            }
            if (session->closing.load(std::memory_order_acquire) &&
                    !session->retired.load() &&
                    session->ring.empty() &&
                    session->completed.load() ==
                        session->accepted.load(
                            std::memory_order_acquire)) {
                retireSession(*session);
                didWork = true;
            }
        }
        if (!didWork)
            sleepBriefly(100);
    }
}

// ---------------------------------------------------------------
// Quiesce / shutdown / crash

Status
Mosaicd::drain(double timeout_seconds)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    for (;;) {
        if (phase_.load() != Phase::Running)
            return Status::internal(
                "drain() on a non-running daemon");
        bool pending = false;
        {
            std::lock_guard lk(sessionsMutex_);
            for (const auto &session : sessions_) {
                if (session->retired.load())
                    continue;
                if (session->completed.load() <
                        session->accepted.load(
                            std::memory_order_acquire)) {
                    pending = true;
                    break;
                }
            }
        }
        if (!pending)
            return {};
        if (std::chrono::steady_clock::now() > deadline) {
            return Status::timeout(
                "drain did not quiesce within " +
                std::to_string(timeout_seconds) + "s");
        }
        sleepBriefly(200);
    }
}

Status
Mosaicd::disconnect(SessionHandle &handle)
{
    if (!handle.valid()) {
        return Status::invalidArgument(
            "disconnect on an invalid session handle");
    }
    auto session = handle.session_;
    session->closing.store(true, std::memory_order_release);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (!session->retired.load(std::memory_order_acquire)) {
        if (phase_.load() != Phase::Running) {
            return Status::internal(
                "daemon left the running state before the session "
                "retired");
        }
        if (std::chrono::steady_clock::now() > deadline) {
            return Status::timeout(
                "session " + std::to_string(session->id) +
                " did not retire within 30s");
        }
        sleepBriefly(200);
    }
    handle = SessionHandle();
    return {};
}

void
Mosaicd::stop()
{
    if (phase_.load() != Phase::Running)
        return;
    (void)drain(30.0);
    std::lock_guard teardown(teardown_);
    if (phase_.load() != Phase::Running)
        return; // a worker's crash finished first
    stopWorkers_.store(true);
    for (auto &slot : workers_) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
    {
        std::lock_guard lk(sessionsMutex_);
        for (const auto &session : sessions_) {
            if (session->retired.load())
                continue;
            retireSession(*session);
        }
    }
    if (manifest_ != nullptr) {
        std::fclose(manifest_);
        manifest_ = nullptr;
    }
    phase_.store(Phase::Stopped);
}

void
Mosaicd::crashForTesting()
{
    std::lock_guard teardown(teardown_);
    finishCrash();
}

void
Mosaicd::finishCrash()
{
    if (crashDone_.exchange(true))
        return;
    crashes_.fetch_add(1, std::memory_order_relaxed);
    phase_.store(Phase::Crashed);
    stopWorkers_.store(true);
    for (auto &slot : workers_) {
        if (slot->thread.joinable() &&
                slot->thread.get_id() != std::this_thread::get_id())
            slot->thread.join();
    }
    // All submitters have left (exclusive lock) and every other
    // worker is joined: truncate every log to its flushed
    // watermark — exactly what a real process death would have left
    // on disk.
    std::unique_lock lifecycle(lifecycle_);
    std::lock_guard lk(sessionsMutex_);
    for (const auto &session : sessions_) {
        if (!session->retired.load())
            session->log.crash();
    }
    if (manifest_ != nullptr) {
        std::fclose(manifest_);
        manifest_ = nullptr;
    }
}

// ---------------------------------------------------------------
// Introspection

ServeTotals
Mosaicd::totals() const
{
    ServeTotals t;
    {
        std::lock_guard lk(sessionsMutex_);
        t.sessions = sessions_.size();
        for (const auto &session : sessions_) {
            const SessionSnapshot snap = session->snapshotNow();
            t.submitted += snap.submitted;
            t.accepted += snap.accepted;
            t.completed += snap.completed;
            t.replayed += snap.replayed;
            for (std::size_t i = 0; i < numShedClasses; ++i)
                t.shed[i] += snap.shed[i];
        }
    }
    for (std::uint64_t s : t.shed)
        t.shedTotal += s;
    t.epochCheckpoints = epochCheckpoints_.load();
    t.recoveredSessions = recoveredSessions_;
    t.crashes = crashes_.load();
    return t;
}

std::vector<SessionSnapshot>
Mosaicd::snapshots() const
{
    std::vector<SessionSnapshot> out;
    std::lock_guard lk(sessionsMutex_);
    out.reserve(sessions_.size());
    for (const auto &session : sessions_)
        out.push_back(session->snapshotNow());
    return out;
}

Result<std::uint64_t>
Mosaicd::stateDigest(std::uint64_t session_id) const
{
    std::lock_guard lk(sessionsMutex_);
    for (const auto &session : sessions_) {
        if (session->id == session_id)
            return session->stateDigest();
    }
    return Status::notFound("no session with id " +
                            std::to_string(session_id));
}

} // namespace mosaic::serve
