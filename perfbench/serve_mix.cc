/**
 * @file
 * serve_mix: mosaicd with 2 workers serving the four tenants of the
 * full_stack interference mix as four sessions, driven open-loop by
 * one generator thread at a fixed rate below saturation. The only
 * workload that goes through admission and the WAL, and the only one
 * that feeds small 64-entry TranslationSims one access() at a time.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "core/experiments.hh"
#include "core/interference.hh"
#include "core/request_log.hh"
#include "serve/daemon.hh"
#include "workloads/access_sink.hh"
#include "workloads/factory.hh"

namespace perfbench
{

using namespace mosaic;
using namespace mosaic::serve;
namespace fs = std::filesystem;

namespace
{

constexpr unsigned workers = 2;
constexpr double traceScale = 0.05;
constexpr std::size_t requestsPerTenant = 6000;

/** Offered load: well below what one generator and two workers
 *  sustain, so the open loop measures latency, not a queue. */
constexpr double requestsPerSecond = 40000.0;

/** Backlog is sampled from snapshots every this many requests. */
constexpr std::size_t backlogEvery = 1024;

struct Request
{
    std::uint32_t tenant = 0;
    MemRef ref;
};

const InterferenceMix &
fullStackMix()
{
    static const std::vector<InterferenceMix> mixes =
        defaultInterferenceMixes();
    for (const InterferenceMix &mix : mixes) {
        if (mix.name == "full_stack")
            return mix;
    }
    throw std::runtime_error("serve_mix: no full_stack mix");
}

std::string
clientName(const InterferenceMix &mix, std::size_t t)
{
    return workloadName(mix.tenants[t].kind) + "-" + std::to_string(t);
}

/** The tenants' traces (first requestsPerTenant references of each
 *  workload), interleaved round-robin into one send schedule. */
std::vector<Request>
sendSchedule(const InterferenceMix &mix, std::uint64_t seed)
{
    std::vector<std::vector<MemRef>> traces;
    for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
        VectorSink sink;
        makeFig6Workload(mix.tenants[t].kind,
                         traceScale * mix.tenants[t].scale,
                         experimentCellSeed(seed, t))
            ->run(sink);
        std::vector<MemRef> trace = sink.trace();
        trace.resize(std::min(trace.size(), requestsPerTenant));
        traces.push_back(std::move(trace));
    }
    std::vector<Request> schedule;
    for (std::size_t i = 0; i < requestsPerTenant; ++i) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            if (i < traces[t].size())
                schedule.push_back(
                    Request{static_cast<std::uint32_t>(t), traces[t][i]});
        }
    }
    return schedule;
}

ServeConfig
daemonConfig(const std::string &dir, std::uint64_t seed)
{
    ServeConfig config;
    config.workers = workers;
    config.stateDir = dir;
    config.seed = seed;
    config.epochEvery = 1024;
    // The default 256-slot ring sheds when a worker is descheduled for
    // ~25 ms at this load, which a shared host does now and then. A
    // ring that rides out a stall of over a second keeps such hiccups
    // visible as backlog (serve.backlog_max), not as sheds.
    config.ringCapacity = 16384;
    return config;
}

/** One round's measurements. */
struct Round
{
    std::vector<double> ackNs;  // due time -> submit returned
    std::vector<double> lateNs; // due time -> generator sent
    std::vector<double> serviceNs; // submit() call -> return
    double seconds = 0.0;        // open loop + drain
    double drainMs = 0.0;
    std::uint64_t shed = 0;
    std::uint64_t backlogMax = 0;
    ServeTotals totals;
    std::vector<std::uint64_t> digests; // per session, connect order
    std::uint64_t walBytes = 0;
};

Round
serveRound(Mosaicd &daemon, std::vector<SessionHandle> &handles,
           const std::vector<Request> &schedule, Tracer *tracer,
           RunResult &result)
{
    Round round;
    round.ackNs.reserve(schedule.size());
    round.lateNs.reserve(schedule.size());
    round.serviceNs.reserve(schedule.size());
    const auto period = static_cast<std::int64_t>(1e9 / requestsPerSecond);
    const std::int32_t round_span =
        tracer ? tracer->open("serve.round") : Tracer::noParent;
    const std::int64_t start = nowNs();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const std::int64_t due = start + static_cast<std::int64_t>(i) * period;
        std::int64_t sent = nowNs();
        while (sent < due)
            sent = nowNs();
        const Request &r = schedule[i];
        const Status st =
            handles[r.tenant].submit(r.ref.vaddr, r.ref.write);
        const std::int64_t acked = nowNs();
        if (tracer)
            tracer->record("serve.submit", sent, acked, round_span);
        round.ackNs.push_back(static_cast<double>(acked - due));
        round.lateNs.push_back(static_cast<double>(sent - due));
        round.serviceNs.push_back(static_cast<double>(acked - sent));
        round.shed += st.ok() ? 0 : 1;
        if (i % backlogEvery == 0) {
            std::uint64_t backlog = 0;
            for (const SessionSnapshot &s : daemon.snapshots())
                backlog += s.accepted - s.completed;
            round.backlogMax = std::max(round.backlogMax, backlog);
        }
    }
    const std::int64_t last = nowNs();
    const Status drained = daemon.drain(30.0);
    const std::int64_t end = nowNs();
    if (tracer)
        tracer->close(round_span);
    result.check(drained.ok(), "serve: drain: " + drained.toString());
    round.drainMs = static_cast<double>(end - last) * 1e-6;
    round.seconds = static_cast<double>(end - start) * 1e-9;

    round.totals = daemon.totals();
    const ServeTotals &t = round.totals;
    result.check(t.submitted == t.accepted + t.shedTotal &&
                     t.accepted == t.completed,
                 "serve: conservation violated (submitted == accepted + "
                 "shed, accepted == completed after the drain)");
    for (const SessionHandle &h : handles) {
        const Result<std::uint64_t> digest = daemon.stateDigest(h.id());
        result.check(digest.ok(), "serve: stateDigest failed");
        round.digests.push_back(digest.ok() ? digest.value() : 0);
        round.walBytes += fs::file_size(daemon.config().stateDir + "/s" +
                                        std::to_string(h.id()) + ".log");
    }
    return round;
}

/** Replays every session's requests into a fresh ServeSession's sim:
 *  the digests must match the daemon's. Adds the sims' TLB counters
 *  to the per-layer metrics. */
void
replayOracle(const InterferenceMix &mix, const ServeConfig &config,
             const std::vector<Request> &schedule,
             const std::vector<std::uint64_t> &digests, RunResult &result)
{
    std::vector<std::unique_ptr<ServeSession>> sessions;
    for (std::size_t t = 0; t < mix.tenants.size(); ++t)
        sessions.push_back(std::make_unique<ServeSession>(
            config, t, clientName(mix, t), Asid{1},
            config.footprintBytes, nullptr));
    for (const Request &r : schedule)
        sessions[r.tenant]->sim->access(r.ref.vaddr, r.ref.write);

    std::vector<std::uint64_t> replayed;
    TlbStats vanilla, mosaic;
    std::uint64_t mapped = 0;
    for (const auto &s : sessions) {
        replayed.push_back(s->stateDigest());
        addTlbStats(vanilla, s->sim->vanillaStats(0));
        addTlbStats(mosaic, s->sim->mosaicStats(0, 0));
        mapped += s->sim->mappedPages();
    }
    result.check(replayed == digests,
                 "serve: replaying the requests gives other session "
                 "digests than the daemon's");
    putTlbMetrics(result, vanilla, mosaic, vanilla.misses + mosaic.misses,
                  mapped);
}

/** wal: RequestLogWriter::append + flush per record, as submit()
 *  does, over one round's accepted records. */
double
walAppendFlushNs(const std::vector<Request> &schedule,
                 const std::string &path, Tracer &tracer,
                 RunResult &result)
{
    RequestLogWriter log;
    Status st = log.open(path, "perfbench wal pass");
    std::vector<std::uint64_t> seq(fullStackMix().tenants.size(), 0);
    {
        ScopedSpan span(&tracer, "wal.append_flush");
        for (const Request &r : schedule) {
            if (!st.ok())
                break;
            st = log.append(LogRecord{LogRecordKind::Translate,
                                      r.ref.write, seq[r.tenant]++,
                                      r.ref.vaddr});
            if (st.ok())
                st = log.flush();
        }
    }
    result.check(st.ok(), "serve: wal pass: " + st.toString());
    log.close();
    fs::remove(path);
    return 1e9 * tracer.totalSeconds("wal.append_flush") /
           static_cast<double>(schedule.size());
}

} // namespace

RunResult
runServeMix(const Options &opts, Tracer *tracer)
{
    RunResult result;
    const InterferenceMix &mix = fullStackMix();
    const std::string dir = opts.workDir + "/serve-state";

    RoundLog log(opts);
    std::vector<Request> schedule;
    std::vector<double> acks, traced_acks, late, drains;
    std::vector<std::uint64_t> digests;
    Round last;
    std::uint64_t backlog_max = 0;
    while (log.more()) {
        // Set-up: the send schedule (trace generation) and a started
        // daemon with its four sessions connected.
        const std::int64_t setup_start = nowNs();
        schedule = sendSchedule(mix, opts.seed);
        fs::remove_all(dir);
        Mosaicd daemon(daemonConfig(dir, opts.seed));
        const Status started = daemon.start();
        if (!started.ok())
            throw std::runtime_error("serve_mix: start: " +
                                     started.toString());
        std::vector<SessionHandle> handles;
        for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
            auto handle = daemon.connect(clientName(mix, t));
            if (!handle.ok())
                throw std::runtime_error("serve_mix: connect: " +
                                         handle.status().toString());
            handles.push_back(handle.value());
        }
        const double setup_s = secondsSince(setup_start);

        const bool warm_up = log.nextWarmUp();
        const bool traced = log.nextTraced();
        Round round = serveRound(daemon, handles, schedule,
                                 traced ? tracer : nullptr, result);
        daemon.stop();

        if (digests.empty())
            digests = round.digests;
        result.check(round.digests == digests,
                     "serve: round " + std::to_string(log.rounds()) +
                         " session digests differ from round 0");
        result.attempted += schedule.size();
        result.failed += round.shed;
        backlog_max = std::max(backlog_max, round.backlogMax);
        if (traced) {
            traced_acks.insert(traced_acks.end(), round.ackNs.begin(),
                               round.ackNs.end());
        } else if (!warm_up) {
            acks.insert(acks.end(), round.ackNs.begin(), round.ackNs.end());
            late.insert(late.end(), round.lateNs.begin(),
                        round.lateNs.end());
            drains.push_back(round.drainMs);
        }
        // Requests the submit path acknowledges per second at its
        // median cost: the open loop's offered rate is fixed, so this
        // is what moves when admission or the WAL gets cheaper.
        log.add(setup_s, round.seconds, 1e9 / median(round.serviceNs),
                traced);
        last = std::move(round);
    }
    fs::remove_all(dir);
    log.finish(result);

    auto &m = result.metrics;
    const double p50 = percentile(acks, 0.50) * 1e-3;
    m["ack_p50_us"] = p50;
    m["ack_p99_us"] = percentile(acks, 0.99) * 1e-3;
    m["ack_samples"] = static_cast<double>(acks.size());
    m["drain_ms"] = median(drains);
    m["bench.gen_late_p99_us"] = percentile(late, 0.99) * 1e-3;
    m["serve.accepted"] = static_cast<double>(last.totals.accepted);
    m["serve.completed"] = static_cast<double>(last.totals.completed);
    m["serve.shed_total"] = static_cast<double>(last.totals.shedTotal);
    m["serve.epoch_checkpoints"] =
        static_cast<double>(last.totals.epochCheckpoints);
    m["serve.backlog_max"] = static_cast<double>(backlog_max);
    m["wal.bytes"] = static_cast<double>(last.walBytes);
    if (!traced_acks.empty()) {
        m["bench.trace_overhead_pct"] =
            100.0 * (percentile(traced_acks, 0.50) * 1e-3 - p50) / p50;
    }

    replayOracle(mix, daemonConfig(dir, opts.seed), schedule, digests,
                 result);
    result.outputs["serve.session_digests"] = digests;

    std::printf("serve_mix: %zu sessions x %zu requests open-loop at "
                "%.0f/s, %u workers, %u rounds\n",
                mix.tenants.size(), requestsPerTenant, requestsPerSecond,
                workers, log.rounds());

    if (tracer)
        m["wal.append_flush_ns"] = walAppendFlushNs(
            schedule, opts.workDir + "/serve-walpass.log", *tracer,
            result);
    return result;
}

} // namespace perfbench
