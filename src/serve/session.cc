#include "serve/session.hh"

#include <sstream>

#include "core/experiments.hh"
#include "util/parse.hh"

namespace mosaic::serve
{

namespace
{

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
    }
}

void
fnvMixStats(std::uint64_t &h, const TlbStats &s)
{
    fnvMix(h, s.accesses);
    fnvMix(h, s.hits);
    fnvMix(h, s.misses);
    fnvMix(h, s.subEntryFills);
    fnvMix(h, s.evictions);
    fnvMix(h, s.invalidations);
}

} // namespace

std::string
ServeConfig::fingerprint() const
{
    std::ostringstream out;
    out << "serve tlb=" << tlbEntries << " ways=" << ways
        << " arity=" << arity << " seed=" << seed;
    return out.str();
}

TranslationSimConfig
sessionSimConfig(const ServeConfig &config, std::uint64_t session_id,
                 Asid asid, std::uint64_t footprint_bytes)
{
    TranslationSimConfig sc;
    sc.memory = ampleGeometry(footprint_bytes);
    sc.tlbEntries = config.tlbEntries;
    sc.waysList = {config.ways};
    sc.arities = {config.arity};
    // Purely request-driven: no background kernel or instruction
    // stream, so replaying the request log alone rebuilds the state.
    sc.kernel.accessEvery = 0;
    sc.instr.enabled = false;
    sc.asid = asid;
    sc.seed = experimentCellSeed(config.seed, session_id);
    return sc;
}

ServeSession::ServeSession(const ServeConfig &config,
                           std::uint64_t session_id,
                           std::string client_name, Asid session_asid,
                           std::uint64_t footprint_bytes,
                           const fault::FaultPlan *plan)
    : id(session_id),
      client(std::move(client_name)),
      asid(session_asid),
      footprintBytes(footprint_bytes),
      admission(config.sessionQuota,
                TokenBucket(config.tokenBurst,
                            config.tokenRatePermille)),
      clientInjector(plan,
                     experimentCellSeed(config.seed ^ 0x5E55104Eull,
                                        session_id)),
      ring(config.ringCapacity),
      sim(std::make_unique<TranslationSim>(sessionSimConfig(
          config, session_id, session_asid, footprint_bytes)))
{
}

std::string
ServeSession::logPath(const std::string &dir) const
{
    return dir + "/s" + std::to_string(id) + ".log";
}

std::string
ServeSession::checkpointPath(const std::string &dir) const
{
    return dir + "/s" + std::to_string(id) + ".ckpt";
}

std::string
ServeSession::sessionFingerprint(const ServeConfig &config) const
{
    std::ostringstream out;
    out << config.fingerprint() << " session=" << id << " client="
        << client << " asid=" << asid << " footprint="
        << footprintBytes;
    return out.str();
}

std::uint64_t
ServeSession::stateDigest() const
{
    std::uint64_t h = 1469598103934665603ull;
    fnvMix(h, sim->mappedPages());
    fnvMix(h, sim->totalAccesses());
    fnvMixStats(h, sim->vanillaStats(0));
    fnvMixStats(h, sim->mosaicStats(0, 0));
    return h;
}

std::string
ServeSession::checkpointPayload() const
{
    std::ostringstream out;
    out << "epoch " << epoch << "\n"
        << "records " << completed.load(std::memory_order_acquire)
        << "\n"
        << "digest " << stateDigest() << "\n";
    return out.str();
}

SessionSnapshot
ServeSession::snapshotNow() const
{
    SessionSnapshot snap;
    snap.id = id;
    snap.client = client;
    snap.asid = asid;
    snap.submitted = submitted.load(std::memory_order_acquire);
    snap.accepted = accepted.load(std::memory_order_acquire);
    snap.completed = completed.load(std::memory_order_acquire);
    snap.replayed = replayed.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < numShedClasses; ++i)
        snap.shed[i] = shed[i].load(std::memory_order_acquire);
    snap.closing = closing.load(std::memory_order_acquire);
    snap.retired = retired.load(std::memory_order_acquire);
    return snap;
}

Result<EpochCheckpoint>
parseEpochCheckpoint(const std::string &payload)
{
    std::istringstream in(payload);
    EpochCheckpoint ckpt;
    bool sawEpoch = false, sawRecords = false, sawDigest = false;
    std::string key, value;
    while (in >> key >> value) {
        auto parsed = parseUnsigned("checkpoint field '" + key + "'",
                                    value);
        if (!parsed.ok())
            return Status::dataLoss(parsed.status().message());
        if (key == "epoch") {
            ckpt.epoch = parsed.value();
            sawEpoch = true;
        } else if (key == "records") {
            ckpt.records = parsed.value();
            sawRecords = true;
        } else if (key == "digest") {
            ckpt.digest = parsed.value();
            sawDigest = true;
        } else {
            return Status::dataLoss(
                "epoch checkpoint has unknown field '" + key + "'");
        }
    }
    if (!sawEpoch || !sawRecords || !sawDigest) {
        return Status::dataLoss(
            "epoch checkpoint payload is missing fields");
    }
    return ckpt;
}

} // namespace mosaic::serve
