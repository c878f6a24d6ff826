/**
 * @file
 * Chaos tests for mosaicd (DESIGN.md §16): MOSAIC_FAULTS plans
 * active inside the daemon. Every injected fault must surface as a
 * typed shed the client can retry or a crash the next incarnation
 * recovers from — never a deadlock, never a silently dropped
 * request. Conservation (submitted == accepted + Σshed, accepted ==
 * completed after drain) is asserted at every quiesce point.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/daemon.hh"
#include "util/random.hh"

namespace fs = std::filesystem;

using namespace mosaic;
using namespace mosaic::serve;

namespace
{

class TempDir
{
  public:
    explicit TempDir(const std::string &leaf)
        : path_(fs::temp_directory_path() / leaf)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** Sets MOSAIC_FAULTS for the enclosed scope. The daemon copies
 *  its plan at construction, so the variable only needs to be live
 *  across the Mosaicd constructor. */
class ScopedFaults
{
  public:
    explicit ScopedFaults(const std::string &plan)
    {
        setenv("MOSAIC_FAULTS", plan.c_str(), 1);
    }
    ~ScopedFaults() { unsetenv("MOSAIC_FAULTS"); }
};

ServeConfig
chaosConfig(const std::string &dir, unsigned workers)
{
    ServeConfig config;
    config.stateDir = dir;
    config.workers = workers;
    config.ringCapacity = 64;
    config.tlbEntries = 32;
    config.ways = 4;
    config.arity = 8;
    config.footprintBytes = std::uint64_t{1} << 20;
    config.epochEvery = 64;
    config.seed = 23;
    return config;
}

std::vector<MemRef>
syntheticTrace(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<MemRef> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        trace.push_back(
            {rng.below(256) * 4096 + rng.below(4096),
             rng.chance(0.25)});
    }
    return trace;
}

void
expectConservation(const SessionSnapshot &snap)
{
    EXPECT_EQ(snap.submitted, snap.accepted + snap.shedTotal());
    EXPECT_EQ(snap.accepted, snap.completed);
}

} // namespace

TEST(ServeChaos, InjectedAdmitShedsAreTypedAndRetryRecovers)
{
    const TempDir dir("serve_chaos_admit");
    ScopedFaults faults("serve.admit:every=50");
    Mosaicd daemon(chaosConfig(dir.str(), 2));
    ASSERT_TRUE(daemon.start().ok());
    auto handle = daemon.connect("alice");
    ASSERT_TRUE(handle.ok());
    SessionHandle session = handle.value();

    const auto trace = syntheticTrace(3, 500);
    Rng rng(0xADA);
    for (const MemRef &ref : trace) {
        const Status st =
            session.submitRetry(ref.vaddr, ref.write, rng, 64, 20);
        ASSERT_TRUE(st.ok()) << st.toString();
    }
    ASSERT_TRUE(daemon.drain().ok());
    const SessionSnapshot snap = session.snapshot();
    EXPECT_EQ(snap.accepted, 500u)
        << "retry must push every request through";
    EXPECT_GT(snap.shed[static_cast<int>(ShedClass::Injected)], 0u)
        << "the every=50 plan must have fired";
    expectConservation(snap);
    daemon.stop();
}

TEST(ServeChaos, InjectedLogAppendShedsAreIoErrorAndRetryable)
{
    {
        const TempDir dir("serve_chaos_logio_retry");
        ScopedFaults faults("serve.log.append:every=97");
        Mosaicd daemon(chaosConfig(dir.str(), 1));
        ASSERT_TRUE(daemon.start().ok());
        auto handle = daemon.connect("alice");
        ASSERT_TRUE(handle.ok());
        SessionHandle session = handle.value();
        const auto trace = syntheticTrace(5, 400);
        Rng rng(0x10E);
        for (const MemRef &ref : trace) {
            ASSERT_TRUE(session
                            .submitRetry(ref.vaddr, ref.write,
                                         rng, 64, 20)
                            .ok());
        }
        ASSERT_TRUE(daemon.drain().ok());
        const SessionSnapshot snap = session.snapshot();
        EXPECT_EQ(snap.accepted, 400u);
        EXPECT_GT(snap.shed[static_cast<int>(ShedClass::LogIo)],
                  0u);
        expectConservation(snap);
        daemon.stop();
    }
    {
        // Without retry the client sees the typed IoError itself.
        const TempDir dir("serve_chaos_logio_typed");
        ScopedFaults faults("serve.log.append:every=1");
        Mosaicd daemon(chaosConfig(dir.str(), 1));
        ASSERT_TRUE(daemon.start().ok());
        auto handle = daemon.connect("alice");
        ASSERT_TRUE(handle.ok());
        SessionHandle session = handle.value();
        const Status st = session.submit(0x4000, false);
        EXPECT_EQ(st.code(), StatusCode::IoError);
        expectConservation(session.snapshot());
        daemon.stop();
    }
}

TEST(ServeChaos, InjectedCrashRecoversToTheReferenceDigest)
{
    // Session ids 0 and 1 land on different workers when there are
    // four, so two slot injectors fire serve.crash and race to
    // finish the crash; with one worker, one tenant suffices.
    const std::vector<std::string> clients = {"alice", "bob"};
    std::vector<std::vector<MemRef>> traces;
    for (std::size_t c = 0; c < clients.size(); ++c)
        traces.push_back(syntheticTrace(13 + c, 500));

    // Reference: the same traces served with no faults. A session's
    // digest depends only on its own requests and id, not on the
    // worker count or the other tenant.
    std::vector<std::uint64_t> reference;
    {
        const TempDir ref("serve_chaos_crash_ref");
        Mosaicd daemon(chaosConfig(ref.str(), 1));
        ASSERT_TRUE(daemon.start().ok());
        for (std::size_t c = 0; c < clients.size(); ++c) {
            auto handle = daemon.connect(clients[c]);
            ASSERT_TRUE(handle.ok());
            SessionHandle session = handle.value();
            Rng rng(0xCAFE);
            for (const MemRef &ref2 : traces[c])
                ASSERT_TRUE(session
                                .submitRetry(ref2.vaddr, ref2.write,
                                             rng, 64, 20)
                                .ok());
            ASSERT_TRUE(daemon.drain().ok());
            reference.push_back(
                daemon.stateDigest(session.id()).value());
        }
        daemon.stop();
    }

    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        const std::size_t tenants = workers == 1 ? 1 : 2;
        const TempDir dir("serve_chaos_crash");
        {
            // serve.crash fires at an epoch boundary inside a
            // worker: the daemon transitions to Crashed under live
            // load, and that worker finishes the crash itself.
            ScopedFaults faults("serve.crash:every=2");
            Mosaicd daemon(chaosConfig(dir.str(), workers));
            ASSERT_TRUE(daemon.start().ok());
            std::vector<SessionHandle> sessions;
            for (std::size_t c = 0; c < tenants; ++c) {
                auto handle = daemon.connect(clients[c]);
                ASSERT_TRUE(handle.ok());
                sessions.push_back(handle.value());
            }
            Rng rng(0xCAFE);
            bool sawCrash = false;
            for (std::size_t i = 0; i < 500 && !sawCrash; ++i) {
                for (std::size_t c = 0; c < tenants; ++c) {
                    const Status st = sessions[c].submitRetry(
                        traces[c][i].vaddr, traces[c][i].write, rng,
                        64, 20);
                    if (!st.ok()) {
                        EXPECT_EQ(st.code(), StatusCode::Internal);
                        sawCrash = true;
                        break;
                    }
                }
            }
            if (!sawCrash) {
                // All submits landed before the crash took effect;
                // it still must have happened (every=2 on epochs).
                for (int spin = 0;
                     spin < 20000 && !daemon.crashed(); ++spin)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
            }
            EXPECT_TRUE(daemon.crashed());
            // After a crash only the submit-side invariant holds:
            // accepted requests may still be sitting in the ring.
            for (const SessionHandle &session : sessions) {
                const SessionSnapshot snap = session.snapshot();
                EXPECT_EQ(snap.submitted,
                          snap.accepted + snap.shedTotal());
            }
        }
        {
            // Chaos off: the next incarnation recovers and finishes.
            Mosaicd revived(chaosConfig(dir.str(), workers));
            ASSERT_TRUE(revived.recoverAndStart().ok());
            std::vector<SessionHandle> sessions;
            for (std::size_t c = 0; c < tenants; ++c) {
                auto handle = revived.attach(clients[c]);
                ASSERT_TRUE(handle.ok());
                sessions.push_back(handle.value());
            }
            Rng rng(0xFEED);
            for (std::size_t c = 0; c < tenants; ++c) {
                const std::vector<MemRef> &trace = traces[c];
                for (std::size_t i = sessions[c].nextSeq();
                     i < trace.size(); ++i) {
                    ASSERT_TRUE(sessions[c]
                                    .submitRetry(trace[i].vaddr,
                                                 trace[i].write, rng,
                                                 64, 20)
                                    .ok());
                }
            }
            ASSERT_TRUE(revived.drain().ok());
            for (std::size_t c = 0; c < tenants; ++c) {
                EXPECT_EQ(
                    revived.stateDigest(sessions[c].id()).value(),
                    reference[c])
                    << clients[c]
                    << ": crash + recovery must converge to the "
                       "fault-free state";
                expectConservation(sessions[c].snapshot());
            }
            revived.stop();
        }
    }
}

TEST(ServeChaos, MultiTenantChaosConservesEveryRequest)
{
    // Admit and log faults at once, two tenants, four workers.
    // Nothing may be lost.
    const TempDir dir("serve_chaos_mixed");
    ScopedFaults faults(
        "serve.admit:every=70;serve.log.append:every=113");
    Mosaicd daemon(chaosConfig(dir.str(), 4));
    ASSERT_TRUE(daemon.start().ok());

    std::vector<std::thread> tenants;
    for (int c = 0; c < 2; ++c) {
        tenants.emplace_back([&daemon, c] {
            auto handle = daemon.connect(
                "tenant" + std::to_string(c));
            ASSERT_TRUE(handle.ok());
            SessionHandle session = handle.value();
            const auto trace =
                syntheticTrace(40 + c, 400);
            Rng rng(0x7E7 + c);
            for (const MemRef &ref : trace) {
                ASSERT_TRUE(session
                                .submitRetry(ref.vaddr,
                                             ref.write, rng, 128,
                                             50)
                                .ok());
            }
        });
    }
    for (auto &t : tenants)
        t.join();
    ASSERT_TRUE(daemon.drain(60.0).ok());

    const ServeTotals totals = daemon.totals();
    EXPECT_EQ(totals.accepted, 800u);
    EXPECT_EQ(totals.completed, 800u);
    EXPECT_EQ(totals.submitted, totals.accepted + totals.shedTotal);
    EXPECT_GT(totals.shedTotal, 0u);
    for (const SessionSnapshot &snap : daemon.snapshots())
        expectConservation(snap);
    daemon.stop();
}

// A log that cannot grow (here: a file-size limit, as a full disk
// would be) must come back as a LogIo shed that poisons the session
// — never a SIGBUS on a store into unbacked pages. The limit is set
// on the death-test child alone.
TEST(ServeDeathTest, LogGrowthFailureShedsLogIo)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const TempDir dir("serve_chaos_log_growth");
    EXPECT_EXIT(
        {
            int failures = 0;
            const auto check = [&failures](bool ok, const char *what) {
                if (!ok) {
                    std::cerr << "check failed: " << what << "\n";
                    ++failures;
                }
            };
            std::signal(SIGXFSZ, SIG_IGN);
            rlimit limit{};
            getrlimit(RLIMIT_FSIZE, &limit);
            limit.rlim_cur = 100 * 1024;
            if (setrlimit(RLIMIT_FSIZE, &limit) != 0)
                std::_Exit(3);
            {
                Mosaicd daemon(chaosConfig(dir.str(), 1));
                if (!daemon.start().ok())
                    std::_Exit(4);
                auto handle = daemon.connect("alice");
                if (!handle.ok())
                    std::_Exit(5);
                SessionHandle session = handle.value();
                const auto trace = syntheticTrace(11, 20000);
                Status st;
                for (const MemRef &ref : trace) {
                    // Wait out backpressure; stop at the first
                    // failure that is not it.
                    while ((st = session.submit(ref.vaddr, ref.write))
                               .code() == StatusCode::ResourceExhausted)
                        std::this_thread::yield();
                    if (!st.ok())
                        break;
                }
                check(st.code() == StatusCode::IoError,
                      "the log never failed to grow");
                const Status again = session.submit(0x4000, false);
                check(again.code() == StatusCode::IoError &&
                          again.message().find("poisoned") !=
                              std::string::npos,
                      "the failed log is not poisoned");
                check(daemon.drain().ok(), "drain");
                const SessionSnapshot snap = session.snapshot();
                check(snap.shed[static_cast<int>(ShedClass::LogIo)] ==
                          2,
                      "exactly the two failed submits shed LogIo");
                check(snap.accepted > 0 &&
                          snap.accepted * logRecordBytes < 100 * 1024,
                      "growth stopped at the file-size limit");
                check(snap.submitted == snap.accepted + snap.shedTotal(),
                      "submitted == accepted + shed");
                check(snap.accepted == snap.completed,
                      "accepted == completed after drain");
                daemon.stop();
            }
            std::exit(failures == 0 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}
