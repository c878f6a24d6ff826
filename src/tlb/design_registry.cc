#include "tlb/design_registry.hh"

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "tlb/base_designs.hh"
#include "tlb/pwc_tlb.hh"
#include "tlb/range_tlb.hh"
#include "tlb/stride_tlb.hh"
#include "util/parse.hh"

namespace mosaic
{

namespace
{

constexpr std::array<const char *, 7> kKinds = {
    "vanilla", "mosaic", "coalesced", "perforated",
    "stride",  "pwc",    "range",
};

Status
badSpec(const std::string &spec, const std::string &what)
{
    return Status::invalidArgument("design spec '" + spec + "': " + what);
}

Status
numericKey(const std::string &spec, const std::string &key,
           const std::string &value, std::uint64_t min, std::uint64_t max,
           std::uint64_t *out)
{
    std::uint64_t v = 0;
    if (!parseU64(value, &v))
        return badSpec(spec, "value of '" + key +
                                 "' is not an unsigned integer: '" + value +
                                 "'");
    if (v < min || v > max)
        return badSpec(spec, "value of '" + key + "' is out of range: '" +
                                 value + "'");
    *out = v;
    return Status();
}

/** Which keys each kind accepts (typo'd or inapplicable keys are
 *  errors, not silently ignored). */
bool
keyAppliesTo(const std::string &kind, const std::string &key)
{
    const bool wrapper = kind == "stride" || kind == "pwc";
    if (key == "entries" || key == "ways")
        return kind != "range";
    if (key == "arity")
        return kind == "mosaic" || wrapper;
    if (key == "base")
        return wrapper;
    if (key == "mode" || key == "degree")
        return kind == "stride";
    if (key == "l1" || key == "l2")
        return kind == "pwc";
    if (key == "ranges" || key == "maxrun")
        return kind == "range" || wrapper;
    return false;
}

Status
applyKey(const std::string &spec, const std::string &kind,
         const std::string &key, const std::string &value, DesignSpec *opt)
{
    if (!keyAppliesTo(kind, key)) {
        for (const char *known :
             {"entries", "ways", "arity", "base", "mode", "degree",
              "ranges", "maxrun", "l1", "l2"}) {
            if (key == known)
                return badSpec(spec, "key '" + key +
                                         "' does not apply to kind '" +
                                         kind + "'");
        }
        return badSpec(spec, "unknown key '" + key + "'");
    }

    std::uint64_t v = 0;
    if (key == "base") {
        opt->base = value;
        return Status();
    }
    if (key == "mode") {
        if (value == "fixed")
            opt->arbitrary = false;
        else if (value == "arbitrary")
            opt->arbitrary = true;
        else
            return badSpec(spec, "mode must be 'fixed' or 'arbitrary', "
                                 "got '" +
                                     value + "'");
        return Status();
    }
    if (key == "entries" || key == "ways" || key == "ranges" ||
        key == "degree" || key == "l1" || key == "l2") {
        const Status s =
            numericKey(spec, key, value, 1, 1u << 20, &v);
        if (!s.ok())
            return s;
        if (key == "entries")
            opt->geometry.entries = static_cast<unsigned>(v);
        else if (key == "ways")
            opt->geometry.ways = static_cast<unsigned>(v);
        else if (key == "ranges")
            opt->ranges = static_cast<unsigned>(v);
        else if (key == "degree")
            opt->degree = static_cast<unsigned>(v);
        else if (key == "l1")
            opt->l1 = static_cast<unsigned>(v);
        else
            opt->l2 = static_cast<unsigned>(v);
        return Status();
    }
    if (key == "arity") {
        const Status s = numericKey(spec, key, value, 1, maxArity, &v);
        if (!s.ok())
            return s;
        if (!std::has_single_bit(v))
            return badSpec(spec, "arity must be a power of two, got '" +
                                     value + "'");
        opt->arity = static_cast<unsigned>(v);
        return Status();
    }
    // maxrun
    {
        const Status s =
            numericKey(spec, key, value, 1, std::uint64_t{1} << 32, &v);
        if (!s.ok())
            return s;
        opt->maxRun = v;
        return Status();
    }
}

Status
checkGeometry(const std::string &spec, const TlbGeometry &geometry)
{
    if (geometry.ways > geometry.entries)
        return badSpec(spec, "more ways than entries");
    if (geometry.entries % geometry.ways != 0)
        return badSpec(spec, "entries must divide into sets");
    return Status();
}

/** Build a non-wrapper design; wrappers recurse here for their base. */
std::unique_ptr<TranslationDesign>
buildLeaf(const std::string &kind, const DesignSpec &spec)
{
    if (kind == "range")
        return std::make_unique<RangeDesign>(
            RangeTlbConfig{spec.ranges, spec.maxRun});
    if (kind == "vanilla")
        return std::make_unique<VanillaDesign>(spec.geometry);
    if (kind == "mosaic")
        return std::make_unique<MosaicDesign>(spec.geometry, spec.arity);
    if (kind == "coalesced")
        return std::make_unique<CoalescedDesign>(spec.geometry);
    if (kind == "perforated")
        return std::make_unique<PerforatedDesign>(spec.geometry);
    panic("design registry: unknown leaf kind '" + kind + "'");
}

} // namespace

std::span<const char *const>
translationDesignKinds()
{
    return {kKinds.data(), kKinds.size()};
}

bool
translationDesignKindKnown(const std::string &kind)
{
    for (const char *known : kKinds) {
        if (kind == known)
            return true;
    }
    return false;
}

Result<DesignSpec>
parseDesignSpec(const std::string &spec, const DesignParams &defaults)
{
    DesignSpec opt;
    opt.geometry = defaults.geometry;
    opt.arity = defaults.arity;

    const std::string::size_type colon = spec.find(':');
    opt.kind = spec.substr(0, colon);
    const std::string &kind = opt.kind;
    if (kind.empty())
        return badSpec(spec, "empty design kind");
    if (!translationDesignKindKnown(kind))
        return badSpec(spec, "unknown design kind '" + kind + "'");

    if (colon != std::string::npos) {
        std::string_view rest(spec);
        rest.remove_prefix(colon + 1);
        while (!rest.empty()) {
            const std::string_view::size_type comma = rest.find(',');
            const std::string_view pair = rest.substr(0, comma);
            rest = comma == std::string_view::npos
                       ? std::string_view{}
                       : rest.substr(comma + 1);
            const std::string_view::size_type eq = pair.find('=');
            if (eq == std::string_view::npos || eq == 0 ||
                eq + 1 == pair.size())
                return badSpec(spec, "expected key=value, got '" +
                                         std::string(pair) + "'");
            const Status s =
                applyKey(spec, kind, std::string(pair.substr(0, eq)),
                         std::string(pair.substr(eq + 1)), &opt);
            if (!s.ok())
                return s;
        }
    }

    const bool wrapper = kind == "stride" || kind == "pwc";
    if (wrapper) {
        // Wrappers take a bare non-wrapper kind as their base;
        // stacking wrappers is rejected rather than silently
        // mis-modeled.
        if (opt.base == "stride" || opt.base == "pwc")
            return badSpec(spec, "base '" + opt.base +
                                     "' is itself a wrapper; wrap a "
                                     "concrete kind instead");
        if (!translationDesignKindKnown(opt.base))
            return badSpec(spec, "unknown base kind '" + opt.base + "'");
    }
    if ((wrapper ? opt.base : kind) != "range") {
        const Status geom = checkGeometry(spec, opt.geometry);
        if (!geom.ok())
            return geom;
    }
    if (kind == "stride" && opt.degree > 64)
        return badSpec(spec, "degree larger than 64");
    return opt;
}

std::unique_ptr<TranslationDesign>
makeTranslationDesign(const DesignSpec &spec)
{
    if (spec.kind == "stride")
        return std::make_unique<StrideDesign>(
            StrideConfig{spec.arbitrary, spec.degree},
            buildLeaf(spec.base, spec));
    if (spec.kind == "pwc")
        return std::make_unique<PwcDesign>(PwcConfig{spec.l1, spec.l2},
                                           buildLeaf(spec.base, spec));
    return buildLeaf(spec.kind, spec);
}

Result<std::unique_ptr<TranslationDesign>>
makeTranslationDesign(const std::string &spec, const DesignParams &defaults)
{
    Result<DesignSpec> parsed = parseDesignSpec(spec, defaults);
    if (!parsed.ok())
        return parsed.status();
    return makeTranslationDesign(parsed.value());
}

} // namespace mosaic
