/**
 * @file
 * Deterministic fault injection (DESIGN.md §11).
 *
 * A FaultPlan names *injection sites* — fixed strings compiled into
 * the hot layers ("swap.write", "vm.place", ...) —
 * and for each site a firing rule. Components consult a FaultInjector
 * at their site; the injector decides from (plan, its seed, the
 * site's hit count) alone, never from ambient randomness or wall
 * clock, so a given plan replays bit-identically on any machine and
 * at any MOSAIC_THREADS setting, provided injectors are scoped the
 * way the rest of the determinism story scopes RNGs: one injector
 * per experiment cell / per trace run, seeded from the cell or trace
 * seed.
 *
 * Plan syntax (the MOSAIC_FAULTS environment variable):
 *
 *     site:key=value[,key=value][;site:key=value...]
 *
 * e.g.  MOSAIC_FAULTS="swap.write:every=1000;vm.place:p=1e-4"
 *
 * Keys per site:
 *     every=N   fire on every Nth hit (N >= 1)
 *     p=X       fire each hit with probability X in [0, 1],
 *               decided by hashing (seed, site, hit index)
 *     after=N   suppress the first N hits
 *     limit=K   fire at most K times
 * A site needs `every` or `p` (or both; either firing counts once).
 *
 * When no plan is set, components hold a null injector pointer and
 * skip the site check entirely: the zero-overhead / no-behavior-
 * change guarantee.
 *
 * Serving sites (mosaicd, DESIGN.md §16) — every firing must surface
 * as a typed Status or a recovered restart, never a silent drop:
 *     serve.admit        admission rejects the request (shed,
 *                        Status Injected, before acceptance)
 *     serve.log.append   the write-ahead append fails (shed,
 *                        IoError, before acceptance)
 *     serve.worker.stall a worker wedges until the watchdog
 *                        restarts it (requests stay queued)
 *     serve.crash        consulted at epoch boundaries; firing
 *                        crashes the daemon, which must recover
 *                        from checkpoint + request-log replay
 */

#ifndef MOSAIC_FAULT_FAULT_HH_
#define MOSAIC_FAULT_FAULT_HH_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace mosaic::fault
{

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
     * A malformed plan is a bad user configuration: fatal().
     */
    static FaultPlan fromEnv();

    /** True when $MOSAIC_FAULTS is set and non-empty. */
    static bool envActive();

    bool empty() const { return specs_.empty(); }

    /** The rule for a site, or nullptr when the plan has none. */
    const FaultSpec *spec(std::string_view site) const;

    const std::vector<FaultSpec> &specs() const { return specs_; }

    /** Canonical one-line form (for manifests and logs). */
    std::string toString() const;

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

    /** True when a plan with at least one site is attached. */
    bool
    active() const
    {
        return plan_ != nullptr && !plan_->empty();
    }

    /**
     * Record one hit of @p site and decide whether it fails.
     * Deterministic: a pure function of (plan, seed, site, hit
     * index).
     */
    bool shouldFail(std::string_view site);

    /** Hits recorded at the site so far. */
    std::uint64_t hits(std::string_view site) const;

    /** Failures injected at the site so far. */
    std::uint64_t fired(std::string_view site) const;

    /** Failures injected across all sites. */
    std::uint64_t totalFired() const;

    /** Visit (site, firedCount) for every site that fired. */
    template <typename Fn>
    void
    forEachFired(Fn &&fn) const
    {
        for (const auto &[site, state] : sites_) {
            if (state.fired > 0)
                fn(site, state.fired);
        }
    }

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
