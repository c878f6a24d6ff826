/**
 * @file
 * Deterministic fault injection (DESIGN.md §11).
 *
 * A FaultPlan names *injection sites* — fixed strings compiled into
 * the components (knownSites below) — and for each site a firing
 * rule. Components consult a FaultInjector at their site; the
 * injector decides from (plan, its seed, the site's hit count) alone,
 * never from ambient randomness or wall clock, so a given plan
 * replays bit-identically on any machine and at any MOSAIC_THREADS
 * setting, provided injectors are scoped the way the rest of the
 * determinism story scopes RNGs: one injector per sweep cell, worker
 * slot or client session, seeded from that scope.
 *
 * Plan syntax (the MOSAIC_FAULTS environment variable):
 *
 *     site:key=value[,key=value][;site:key=value...]
 *
 * e.g.  MOSAIC_FAULTS="serve.admit:every=50;serve.crash:p=0.01"
 *
 * Keys per site:
 *     every=N   fire on every Nth hit (N >= 1)
 *     p=X       fire each hit with probability X in [0, 1],
 *               decided by hashing (seed, site, hit index)
 *     after=N   suppress the first N hits
 *     limit=K   fire at most K times
 * A site needs `every` or `p` (or both; either firing counts once).
 *
 * When no plan is set, every injector is inert: shouldFail() is
 * false without touching any site state.
 *
 * A site exists only where its firing changes an outcome a check can
 * see. The sweep site (DESIGN.md §11):
 *     cell.run           the cell throws before its body runs; it
 *                        lands in the sweep's failure manifest and
 *                        a resumed run recomputes it
 * Serving sites (mosaicd, DESIGN.md §16) — every firing must surface
 * as a typed Status or a crash the next incarnation recovers, never
 * a silent drop:
 *     serve.admit        admission rejects the request (shed,
 *                        Status Injected, before acceptance)
 *     serve.log.append   the write-ahead append fails (shed,
 *                        IoError, before acceptance)
 *     serve.crash        consulted at epoch boundaries; firing
 *                        crashes the daemon, which must recover
 *                        from checkpoint + request-log replay
 */

#ifndef MOSAIC_FAULT_FAULT_HH_
#define MOSAIC_FAULT_FAULT_HH_

#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace mosaic::fault
{

/** Every site a component consults: the only names fromEnv()
 *  accepts. */
inline constexpr std::array<std::string_view, 4> knownSites = {
    "cell.run", "serve.admit", "serve.log.append", "serve.crash"};

/** Firing rule for one injection site. */
struct FaultSpec
{
    std::string site;

    /** Fire on every Nth hit; 0 = disabled. */
    std::uint64_t every = 0;

    /** Per-hit firing probability; 0 = disabled. */
    double p = 0.0;

    /** Hits suppressed before the rule becomes active. */
    std::uint64_t after = 0;

    /** Maximum firings; ~0 = unlimited. */
    std::uint64_t limit = ~std::uint64_t{0};
};

/** A parsed set of site rules (immutable once built). */
class FaultPlan
{
  public:
    /** Parse the MOSAIC_FAULTS syntax; Status on malformed input. */
    static Result<FaultPlan> parse(const std::string &text);

    /**
     * The process's plan from $MOSAIC_FAULTS ("" when unset).
     * A malformed plan, or one naming a site outside knownSites, is
     * a bad user configuration: fatal().
     */
    static FaultPlan fromEnv();

    bool empty() const { return specs_.empty(); }

    /** The rule for a site, or nullptr when the plan has none. */
    const FaultSpec *spec(std::string_view site) const;

    const std::vector<FaultSpec> &specs() const { return specs_; }

  private:
    std::vector<FaultSpec> specs_;
};

/**
 * Thrown by components whose site failure surfaces as an exception
 * (sweep cells). Carries the site so manifests can attribute it.
 */
class FaultInjectedError : public std::runtime_error
{
  public:
    explicit FaultInjectedError(const std::string &site)
        : std::runtime_error("injected fault at site '" + site + "'"),
          site_(site)
    {
    }

    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/**
 * Per-scope fault decision state: one per experiment cell, trace
 * run, or component instance. NOT thread-safe — scope it like an RNG
 * stream (each concurrently-running cell owns its own), which is
 * exactly what makes injection thread-count invariant.
 */
class FaultInjector
{
  public:
    /** Inert injector: shouldFail() is always false. */
    FaultInjector() = default;

    /** @p plan must outlive the injector. */
    FaultInjector(const FaultPlan *plan, std::uint64_t seed)
        : plan_(plan), seed_(seed)
    {
    }

    /**
     * Record one hit of @p site and decide whether it fails.
     * Deterministic: a pure function of (plan, seed, site, hit
     * index).
     */
    bool shouldFail(std::string_view site);

  private:
    struct SiteState
    {
        const FaultSpec *spec = nullptr; // null: site not in plan
        std::uint64_t hits = 0;
        std::uint64_t fired = 0;
    };

    SiteState &state(std::string_view site);

    const FaultPlan *plan_ = nullptr;
    std::uint64_t seed_ = 0;
    std::map<std::string, SiteState, std::less<>> sites_;
};

/** FNV-1a of a string; the site/scope hash used for seeding. */
std::uint64_t hashString(std::string_view s);

/**
 * The Status form of a fired site, for components that degrade via
 * the error taxonomy instead of throwing (mosaicd's admission path):
 * same message as FaultInjectedError, StatusCode::Injected.
 */
inline Status
injectedStatus(std::string_view site)
{
    return Status::injected("injected fault at site '" +
                            std::string(site) + "'");
}

} // namespace mosaic::fault

#endif // MOSAIC_FAULT_FAULT_HH_
