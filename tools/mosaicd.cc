/**
 * @file
 * mosaicd — the translation-serving daemon as a process (DESIGN.md
 * §16). Hosts a Mosaicd instance over a state directory, drives it
 * with one client thread per tenant of an interference mix, and
 * supports the CI crash drill:
 *
 *     mosaicd --dir=D --requests=N --die-at-epoch=K   # dies (130)
 *     mosaicd --dir=D --recover --digest              # finishes
 *     mosaicd --dir=D2 --digest                       # reference
 *
 * The recovered run and the uninterrupted reference run must print
 * identical per-session digest lines: recovery replays the durable
 * log, clients re-attach and resume at nextSeq(), and per-session
 * isolation makes the final state independent of worker interleaving.
 *
 * Exit codes: 0 success, 1 runtime failure (recovery refused, drain
 * timeout, conservation violation), 2 usage error. --die-at-epoch
 * leaves via _Exit(130) — a real process death, nothing flushed
 * beyond what the daemon already made durable.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "core/interference.hh"
#include "serve/daemon.hh"
#include "util/parse.hh"
#include "util/random.hh"
#include "workloads/access_sink.hh"
#include "workloads/factory.hh"

namespace
{

using namespace mosaic;
using namespace mosaic::serve;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mosaicd --dir=PATH [options]\n"
        "  --dir=PATH         state directory (logs, checkpoints)\n"
        "  --workers=N        worker threads (default 2)\n"
        "  --requests=N       requests per client (default 20000)\n"
        "  --mix=NAME         interference mix to draw clients from\n"
        "                     (default gpu_kv; see --list-mixes)\n"
        "  --scale=F          workload scale (default 0.05)\n"
        "  --epoch=N          requests per epoch checkpoint "
        "(default 1024)\n"
        "  --quota=N          per-session accepted quota (0 = off)\n"
        "  --ring=N           per-session ring capacity "
        "(default 256)\n"
        "  --seed=N           root seed (default 7)\n"
        "  --recover          recover the state directory instead "
        "of starting fresh\n"
        "  --die-at-epoch=K   _Exit(130) once K epoch checkpoints "
        "were taken\n"
        "  --digest           print per-session state digests on "
        "success\n"
        "  --list-mixes       print known mix names and exit\n");
    return 2;
}

struct ClientSpec
{
    std::string name;
    WorkloadKind kind{};
    double scale = 1.0;
};

/** The tenant list of one named interference mix. */
std::vector<ClientSpec>
clientsOf(const std::string &mix_name)
{
    for (const InterferenceMix &mix : defaultInterferenceMixes()) {
        if (mix.name != mix_name)
            continue;
        std::vector<ClientSpec> clients;
        for (std::size_t t = 0; t < mix.tenants.size(); ++t) {
            clients.push_back(
                {workloadName(mix.tenants[t].kind) + "-" +
                     std::to_string(t),
                 mix.tenants[t].kind, mix.tenants[t].scale});
        }
        return clients;
    }
    return {};
}

/** The client's deterministic request trace (same on every run). */
std::vector<MemRef>
traceOf(const ClientSpec &spec, double scale, std::uint64_t seed,
        std::uint64_t cell, std::uint64_t max_requests)
{
    VectorSink sink;
    makeFig6Workload(spec.kind, scale * spec.scale,
                     experimentCellSeed(seed, cell))
        ->run(sink);
    std::vector<MemRef> trace = sink.trace();
    if (trace.size() > max_requests)
        trace.resize(max_requests);
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    ServeConfig config;
    config.workers = 2;
    config.epochEvery = 1024;
    std::string mixName = "gpu_kv";
    double scale = 0.05;
    std::uint64_t requests = 20000;
    std::uint64_t dieAtEpoch = 0;
    bool recover = false;
    bool printDigests = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto numFlag = [&](const char *prefix,
                           std::uint64_t *out) -> bool {
            if (arg.rfind(prefix, 0) != 0)
                return false;
            auto parsed = parseUnsigned(
                prefix, arg.substr(std::strlen(prefix)));
            if (!parsed.ok()) {
                std::fprintf(stderr, "mosaicd: %s\n",
                             parsed.status().toString().c_str());
                std::exit(2);
            }
            *out = parsed.value();
            return true;
        };
        std::uint64_t v = 0;
        if (arg.rfind("--dir=", 0) == 0) {
            config.stateDir = arg.substr(6);
        } else if (arg.rfind("--mix=", 0) == 0) {
            mixName = arg.substr(6);
        } else if (arg.rfind("--scale=", 0) == 0) {
            auto parsed = parseFinite("--scale", arg.substr(8));
            if (!parsed.ok()) {
                std::fprintf(stderr, "mosaicd: %s\n",
                             parsed.status().toString().c_str());
                return 2;
            }
            scale = parsed.value();
        } else if (numFlag("--workers=", &v)) {
            config.workers = static_cast<unsigned>(v);
        } else if (numFlag("--requests=", &requests)) {
        } else if (numFlag("--epoch=", &config.epochEvery)) {
        } else if (numFlag("--quota=", &config.sessionQuota)) {
        } else if (numFlag("--ring=", &v)) {
            config.ringCapacity = v;
        } else if (numFlag("--seed=", &config.seed)) {
        } else if (numFlag("--die-at-epoch=", &dieAtEpoch)) {
        } else if (arg == "--recover") {
            recover = true;
        } else if (arg == "--digest") {
            printDigests = true;
        } else if (arg == "--list-mixes") {
            for (const auto &mix : defaultInterferenceMixes())
                std::printf("%s\n", mix.name.c_str());
            return 0;
        } else {
            std::fprintf(stderr, "mosaicd: unknown flag '%s'\n",
                         arg.c_str());
            return usage();
        }
    }
    if (config.stateDir.empty())
        return usage();

    const std::vector<ClientSpec> clients = clientsOf(mixName);
    if (clients.empty()) {
        std::fprintf(stderr, "mosaicd: unknown mix '%s'\n",
                     mixName.c_str());
        return usage();
    }

    Mosaicd daemon(config);
    Status st = recover ? daemon.recoverAndStart() : daemon.start();
    if (!st.ok()) {
        std::fprintf(stderr, "mosaicd: %s failed: %s\n",
                     recover ? "recovery" : "startup",
                     st.toString().c_str());
        return 1;
    }

    // The death monitor: a real _Exit once enough epoch checkpoints
    // landed, for the CI recover drill.
    std::thread deathMonitor;
    if (dieAtEpoch > 0) {
        deathMonitor = std::thread([&daemon, dieAtEpoch] {
            while (daemon.running()) {
                if (daemon.totals().epochCheckpoints >= dieAtEpoch)
                    std::_Exit(130);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        });
    }

    std::vector<std::thread> clientThreads;
    std::atomic<bool> clientFailed{false};
    for (std::size_t c = 0; c < clients.size(); ++c) {
        clientThreads.emplace_back([&, c] {
            const ClientSpec &spec = clients[c];
            const std::vector<MemRef> trace = traceOf(
                spec, scale, config.seed, c, requests);
            Result<SessionHandle> handle =
                recover ? daemon.attach(spec.name)
                        : daemon.connect(spec.name);
            if (!handle.ok() && recover) {
                // First incarnation died before this client's
                // connect became durable: start a fresh session.
                handle = daemon.connect(spec.name);
            }
            if (!handle.ok()) {
                std::fprintf(stderr,
                             "mosaicd: client %s: connect: %s\n",
                             spec.name.c_str(),
                             handle.status().toString().c_str());
                clientFailed.store(true);
                return;
            }
            SessionHandle session = handle.value();
            Rng rng(experimentCellSeed(config.seed ^ 0xC11E47ull,
                                       c));
            for (std::uint64_t i = session.nextSeq();
                 i < trace.size(); ++i) {
                Status sub = session.submitRetry(
                    trace[i].vaddr, trace[i].write, rng);
                if (!sub.ok()) {
                    if (sub.code() == StatusCode::Internal)
                        return; // daemon crashed under us
                    // Quota/rate sheds are load-test outcomes, not
                    // failures; a poisoned log is.
                    if (sub.code() == StatusCode::IoError) {
                        std::fprintf(
                            stderr,
                            "mosaicd: client %s: %s\n",
                            spec.name.c_str(),
                            sub.toString().c_str());
                        clientFailed.store(true);
                        return;
                    }
                }
            }
        });
    }
    for (auto &t : clientThreads)
        t.join();

    st = daemon.drain(60.0);
    if (!st.ok()) {
        std::fprintf(stderr, "mosaicd: drain failed: %s\n",
                     st.toString().c_str());
        return 1;
    }

    const ServeTotals totals = daemon.totals();
    if (totals.submitted != totals.accepted + totals.shedTotal ||
            totals.accepted != totals.completed) {
        std::fprintf(stderr,
                     "mosaicd: conservation violated: submitted=%llu "
                     "accepted=%llu completed=%llu shed=%llu\n",
                     static_cast<unsigned long long>(totals.submitted),
                     static_cast<unsigned long long>(totals.accepted),
                     static_cast<unsigned long long>(totals.completed),
                     static_cast<unsigned long long>(totals.shedTotal));
        return 1;
    }

    std::printf("mosaicd: accepted=%llu completed=%llu shed=%llu "
                "replayed=%llu checkpoints=%llu\n",
                static_cast<unsigned long long>(totals.accepted),
                static_cast<unsigned long long>(totals.completed),
                static_cast<unsigned long long>(totals.shedTotal),
                static_cast<unsigned long long>(totals.replayed),
                static_cast<unsigned long long>(
                    totals.epochCheckpoints));
    if (printDigests) {
        for (const SessionSnapshot &snap : daemon.snapshots()) {
            const auto digest = daemon.stateDigest(snap.id);
            std::printf(
                "digest client=%s accepted=%llu value=%llu\n",
                snap.client.c_str(),
                static_cast<unsigned long long>(snap.accepted),
                static_cast<unsigned long long>(
                    digest.ok() ? digest.value() : 0));
        }
    }

    daemon.stop();
    if (deathMonitor.joinable())
        deathMonitor.join();
    return clientFailed.load() ? 1 : 0;
}
