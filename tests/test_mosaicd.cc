/**
 * @file
 * End-to-end tests of the mosaicd daemon (DESIGN.md §16): serving
 * and draining, worker-count invariance of the deterministic
 * per-session state, typed load shedding (quota, rate limit,
 * backpressure), the conservation invariant, epoch-fenced session
 * teardown, and lifecycle guards around the state directory.
 */

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
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

/** Small-everything config: tiny sims, frequent checkpoints. */
ServeConfig
smallConfig(const std::string &dir, unsigned workers)
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
    config.seed = 11;
    return config;
}

/** Deterministic per-client request trace. */
std::vector<MemRef>
syntheticTrace(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<MemRef> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        trace.push_back(
            {rng.below(200) * 4096 + rng.below(4096),
             rng.chance(0.3)});
    }
    return trace;
}

/** Submit a whole trace with retry; every request must land. */
void
submitAll(SessionHandle &session, const std::vector<MemRef> &trace)
{
    Rng rng(session.id() ^ 0xBEEF);
    for (std::size_t i = session.nextSeq(); i < trace.size(); ++i) {
        const Status st = session.submitRetry(
            trace[i].vaddr, trace[i].write, rng, 64, 20);
        ASSERT_TRUE(st.ok()) << "request " << i << ": "
                             << st.toString();
    }
}

void
expectConservation(const SessionSnapshot &snap)
{
    EXPECT_EQ(snap.submitted, snap.accepted + snap.shedTotal())
        << "client " << snap.client
        << ": every submit must be accepted or shed, never dropped";
}

} // namespace

TEST(Mosaicd, ServesDrainsAndConserves)
{
    const TempDir dir("mosaicd_basic");
    Mosaicd daemon(smallConfig(dir.str(), 2));
    ASSERT_TRUE(daemon.start().ok());

    auto handle = daemon.connect("alice");
    ASSERT_TRUE(handle.ok()) << handle.status().toString();
    SessionHandle session = handle.value();
    const auto trace = syntheticTrace(5, 500);
    submitAll(session, trace);
    ASSERT_TRUE(daemon.drain().ok());

    const SessionSnapshot snap = session.snapshot();
    EXPECT_EQ(snap.accepted, 500u);
    EXPECT_EQ(snap.completed, 500u);
    expectConservation(snap);

    const auto digest = daemon.stateDigest(session.id());
    ASSERT_TRUE(digest.ok());
    EXPECT_NE(digest.value(), 0u);
    daemon.stop();
}

TEST(Mosaicd, StateIsIndependentOfWorkerCount)
{
    const auto traceA = syntheticTrace(21, 700);
    const auto traceB = syntheticTrace(22, 600);
    std::array<std::uint64_t, 2> digestsA{}, digestsB{};

    const unsigned workerCounts[] = {1, 4};
    for (int w = 0; w < 2; ++w) {
        const TempDir dir("mosaicd_workers_" +
                          std::to_string(workerCounts[w]));
        Mosaicd daemon(
            smallConfig(dir.str(), workerCounts[w]));
        ASSERT_TRUE(daemon.start().ok());
        auto a = daemon.connect("alice");
        auto b = daemon.connect("bob");
        ASSERT_TRUE(a.ok() && b.ok());
        SessionHandle sa = a.value(), sb = b.value();
        // Two concurrent client threads: worker interleaving is
        // arbitrary, per-session state must not care.
        std::thread ta([&] { submitAll(sa, traceA); });
        std::thread tb([&] { submitAll(sb, traceB); });
        ta.join();
        tb.join();
        ASSERT_TRUE(daemon.drain().ok());
        digestsA[w] = daemon.stateDigest(sa.id()).value();
        digestsB[w] = daemon.stateDigest(sb.id()).value();
        daemon.stop();
    }
    EXPECT_EQ(digestsA[0], digestsA[1])
        << "per-session digests must be worker-count invariant";
    EXPECT_EQ(digestsB[0], digestsB[1]);
}

TEST(Mosaicd, QuotaShedsWithTypedStatus)
{
    const TempDir dir("mosaicd_quota");
    ServeConfig config = smallConfig(dir.str(), 1);
    config.sessionQuota = 100;
    Mosaicd daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    auto handle = daemon.connect("alice");
    ASSERT_TRUE(handle.ok());
    SessionHandle session = handle.value();

    unsigned quotaSheds = 0;
    for (int i = 0; i < 150; ++i) {
        Status st;
        // Quota is permanent: no retry, but ring pressure is not,
        // so retry only transient classes by hand.
        do {
            st = session.submit(0x1000 * (i % 64), false);
        } while (!st.ok() &&
                 st.message().find("backpressure") !=
                     std::string::npos);
        if (!st.ok()) {
            EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
            ++quotaSheds;
        }
    }
    EXPECT_EQ(quotaSheds, 50u);
    ASSERT_TRUE(daemon.drain().ok());
    const SessionSnapshot snap = session.snapshot();
    EXPECT_EQ(snap.accepted, 100u);
    EXPECT_EQ(snap.shed[static_cast<int>(ShedClass::Quota)], 50u);
    expectConservation(snap);
    daemon.stop();
}

TEST(Mosaicd, RateLimitShedsWithTypedStatus)
{
    const TempDir dir("mosaicd_rate");
    ServeConfig config = smallConfig(dir.str(), 1);
    config.tokenBurst = 10;
    config.tokenRatePermille = 0; // burst only, never refills
    Mosaicd daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    auto handle = daemon.connect("alice");
    ASSERT_TRUE(handle.ok());
    SessionHandle session = handle.value();

    unsigned rateSheds = 0;
    for (int i = 0; i < 40; ++i) {
        const Status st = session.submit(0x1000 * i, false);
        if (!st.ok()) {
            EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
            EXPECT_NE(st.message().find("rate limited"),
                      std::string::npos);
            ++rateSheds;
        }
    }
    EXPECT_EQ(rateSheds, 30u);
    ASSERT_TRUE(daemon.drain().ok());
    const SessionSnapshot snap = session.snapshot();
    EXPECT_EQ(snap.accepted, 10u);
    EXPECT_EQ(snap.shed[static_cast<int>(ShedClass::RateLimit)],
              30u);
    expectConservation(snap);
    daemon.stop();
}

TEST(Mosaicd, BackpressureShedsWhenTheRingStaysFull)
{
    const TempDir dir("mosaicd_backpressure");
    ServeConfig config = smallConfig(dir.str(), 1);
    config.ringCapacity = 2;
    config.epochEvery = 1; // checkpoint-per-request: slow worker
    Mosaicd daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    auto handle = daemon.connect("alice");
    ASSERT_TRUE(handle.ok());
    SessionHandle session = handle.value();

    std::uint64_t backpressure = 0;
    for (int i = 0; i < 2000; ++i) {
        const Status st = session.submit(0x1000 * (i % 64), false);
        if (!st.ok()) {
            ASSERT_EQ(st.code(), StatusCode::ResourceExhausted);
            ++backpressure;
        }
    }
    EXPECT_GT(backpressure, 0u)
        << "a capacity-2 ring against a checkpoint-per-request "
           "worker must shed";
    ASSERT_TRUE(daemon.drain().ok());
    const SessionSnapshot snap = session.snapshot();
    EXPECT_EQ(snap.shed[static_cast<int>(ShedClass::Backpressure)],
              backpressure);
    EXPECT_EQ(snap.accepted, 2000u - backpressure);
    EXPECT_EQ(snap.completed, snap.accepted);
    expectConservation(snap);
    daemon.stop();
}

TEST(Mosaicd, DisconnectIsAnEpochFence)
{
    const TempDir dir("mosaicd_disconnect");
    Mosaicd daemon(smallConfig(dir.str(), 2));
    ASSERT_TRUE(daemon.start().ok());
    auto handle = daemon.connect("alice");
    ASSERT_TRUE(handle.ok());
    SessionHandle session = handle.value();
    const std::uint64_t id = session.id();
    const auto trace = syntheticTrace(31, 100);
    submitAll(session, trace);
    ASSERT_TRUE(daemon.disconnect(session).ok());
    EXPECT_FALSE(session.valid());

    // The retire fence took a final checkpoint covering everything.
    EXPECT_TRUE(fs::exists(dir.str() + "/s" + std::to_string(id) +
                           ".ckpt"));
    const auto snaps = daemon.snapshots();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_TRUE(snaps[0].retired);
    EXPECT_EQ(snaps[0].completed, 100u);

    // A fresh session of the same client gets the next ASID in the
    // client's namespace.
    auto again = daemon.connect("alice");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().asid(), 2u);
    daemon.stop();
}

TEST(Mosaicd, SubmitAfterStopShedsLifecycle)
{
    const TempDir dir("mosaicd_stopped");
    Mosaicd daemon(smallConfig(dir.str(), 1));
    ASSERT_TRUE(daemon.start().ok());
    auto handle = daemon.connect("alice");
    ASSERT_TRUE(handle.ok());
    SessionHandle session = handle.value();
    daemon.stop();
    const Status st = session.submit(0x1000, false);
    EXPECT_EQ(st.code(), StatusCode::Internal);
    const SessionSnapshot snap = session.snapshot();
    EXPECT_EQ(snap.shed[static_cast<int>(ShedClass::Lifecycle)],
              1u);
    expectConservation(snap);
}

TEST(Mosaicd, LifecycleGuardsOnTheStateDirectory)
{
    const TempDir dir("mosaicd_guards");
    {
        Mosaicd daemon(smallConfig(dir.str(), 1));
        ASSERT_TRUE(daemon.start().ok());
        ASSERT_TRUE(daemon.connect("alice").ok());
        daemon.stop();
    }
    {
        // start() must refuse a directory that already has history.
        Mosaicd daemon(smallConfig(dir.str(), 1));
        EXPECT_EQ(daemon.start().code(),
                  StatusCode::InvalidArgument);
    }
    {
        // recovery under a different configuration must refuse.
        ServeConfig config = smallConfig(dir.str(), 1);
        config.tlbEntries = 64;
        Mosaicd daemon(config);
        EXPECT_EQ(daemon.recoverAndStart().code(),
                  StatusCode::DataLoss);
    }
    {
        // matching config recovers cleanly.
        Mosaicd daemon(smallConfig(dir.str(), 1));
        ASSERT_TRUE(daemon.recoverAndStart().ok());
        EXPECT_EQ(daemon.totals().recoveredSessions, 1u);
        daemon.stop();
    }
}

TEST(Mosaicd, ConnectValidatesClientNames)
{
    const TempDir dir("mosaicd_names");
    Mosaicd daemon(smallConfig(dir.str(), 1));
    ASSERT_TRUE(daemon.start().ok());
    EXPECT_EQ(daemon.connect("").status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(daemon.connect("has space").status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(daemon.attach("nobody").status().code(),
              StatusCode::NotFound);
    daemon.stop();
}
