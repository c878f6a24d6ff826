#include "fault/fault.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "hash/mix.hh"
#include "util/log.hh"

namespace mosaic::fault
{

namespace
{

/** Parse a decimal unsigned integer; Status on anything else. */
Result<std::uint64_t>
parseUint(std::string_view text, const std::string &what)
{
    std::uint64_t out = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::invalidArgument(
            "fault plan: " + what + " is not an unsigned integer: '" +
            std::string(text) + "'");
    }
    return out;
}

/** Parse a double (strtod accepts 1e-4 etc.); Status otherwise. */
Result<double>
parseDouble(std::string_view text, const std::string &what)
{
    const std::string copy(text);
    char *end = nullptr;
    const double out = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || copy.empty()) {
        return Status::invalidArgument(
            "fault plan: " + what + " is not a number: '" + copy + "'");
    }
    return out;
}

/** Uniform double in [0, 1) from a mixed 64-bit word. */
double
u01(std::uint64_t x)
{
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

} // namespace

std::uint64_t
hashString(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull; // FNV prime
    }
    return h;
}

Result<FaultPlan>
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = text.find(';', pos);
        const std::string_view entry(
            text.data() + pos,
            (end == std::string::npos ? text.size() : end) - pos);
        pos = end == std::string::npos ? text.size() : end + 1;
        if (entry.empty())
            continue; // tolerate "a:p=1;;b:p=1" and trailing ';'

        const std::size_t colon = entry.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            return Status::invalidArgument(
                "fault plan: entry '" + std::string(entry) +
                "' is not site:key=value[,key=value]");
        }
        FaultSpec spec;
        spec.site = std::string(entry.substr(0, colon));

        std::string_view rest = entry.substr(colon + 1);
        while (!rest.empty()) {
            const std::size_t comma = rest.find(',');
            const std::string_view kv = rest.substr(
                0, comma == std::string_view::npos ? rest.size() : comma);
            rest = comma == std::string_view::npos
                       ? std::string_view{}
                       : rest.substr(comma + 1);
            const std::size_t eq = kv.find('=');
            if (eq == std::string_view::npos || eq == 0 ||
                    eq + 1 >= kv.size()) {
                return Status::invalidArgument(
                    "fault plan: '" + std::string(kv) + "' in site '" +
                    spec.site + "' is not key=value");
            }
            const std::string_view key = kv.substr(0, eq);
            const std::string_view value = kv.substr(eq + 1);
            if (key == "every") {
                auto r = parseUint(value, spec.site + ".every");
                if (!r.ok())
                    return r.status();
                if (r.value() == 0) {
                    return Status::invalidArgument(
                        "fault plan: " + spec.site + ".every must be >= 1");
                }
                spec.every = r.value();
            } else if (key == "p") {
                auto r = parseDouble(value, spec.site + ".p");
                if (!r.ok())
                    return r.status();
                if (r.value() < 0.0 || r.value() > 1.0) {
                    return Status::invalidArgument(
                        "fault plan: " + spec.site +
                        ".p must be in [0, 1]");
                }
                spec.p = r.value();
            } else if (key == "after") {
                auto r = parseUint(value, spec.site + ".after");
                if (!r.ok())
                    return r.status();
                spec.after = r.value();
            } else if (key == "limit") {
                auto r = parseUint(value, spec.site + ".limit");
                if (!r.ok())
                    return r.status();
                spec.limit = r.value();
            } else {
                return Status::invalidArgument(
                    "fault plan: unknown key '" + std::string(key) +
                    "' for site '" + spec.site +
                    "' (expected every, p, after, or limit)");
            }
        }
        if (spec.every == 0 && spec.p == 0.0) {
            return Status::invalidArgument(
                "fault plan: site '" + spec.site +
                "' needs every=N or p=X to ever fire");
        }
        for (const FaultSpec &existing : plan.specs_) {
            if (existing.site == spec.site) {
                return Status::invalidArgument(
                    "fault plan: site '" + spec.site +
                    "' specified twice");
            }
        }
        plan.specs_.push_back(std::move(spec));
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = std::getenv("MOSAIC_FAULTS");
    if (env == nullptr || *env == '\0')
        return FaultPlan{};
    Result<FaultPlan> plan = parse(env);
    if (!plan.ok())
        fatal("MOSAIC_FAULTS: " + plan.status().toString());
    for (const FaultSpec &spec : plan.value().specs()) {
        if (std::ranges::find(knownSites, spec.site) != knownSites.end())
            continue;
        std::string known;
        for (const std::string_view site : knownSites)
            known += (known.empty() ? "" : ", ") + std::string(site);
        fatal("MOSAIC_FAULTS: " +
              Status::invalidArgument("fault plan: unknown site '" +
                                      spec.site + "' (known sites: " +
                                      known + ")")
                  .toString());
    }
    return plan.value();
}

const FaultSpec *
FaultPlan::spec(std::string_view site) const
{
    for (const FaultSpec &s : specs_) {
        if (s.site == site)
            return &s;
    }
    return nullptr;
}

FaultInjector::SiteState &
FaultInjector::state(std::string_view site)
{
    const auto it = sites_.find(site);
    if (it != sites_.end())
        return it->second;
    SiteState fresh;
    fresh.spec = plan_ != nullptr ? plan_->spec(site) : nullptr;
    return sites_.emplace(std::string(site), fresh).first->second;
}

bool
FaultInjector::shouldFail(std::string_view site)
{
    if (plan_ == nullptr || plan_->empty())
        return false;
    SiteState &s = state(site);
    const std::uint64_t hit = ++s.hits;
    if (s.spec == nullptr)
        return false;
    if (hit <= s.spec->after || s.fired >= s.spec->limit)
        return false;
    const std::uint64_t active_hit = hit - s.spec->after;
    bool fire = s.spec->every > 0 && active_hit % s.spec->every == 0;
    if (!fire && s.spec->p > 0.0) {
        const std::uint64_t word =
            mix64(seed_ ^ mix64(hashString(site) ^ mix64(hit)));
        fire = u01(word) < s.spec->p;
    }
    if (fire)
        ++s.fired;
    return fire;
}

} // namespace mosaic::fault
