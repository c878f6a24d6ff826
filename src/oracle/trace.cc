#include "oracle/trace.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string_view>
#include <utility>

#include "oracle/fuzzer.hh"
#include "util/log.hh"

namespace mosaic
{

std::string
Trace::cfgValue(const std::string &key, const std::string &fallback) const
{
    for (const auto &[k, v] : cfg) {
        if (k == key)
            return v;
    }
    return fallback;
}

std::uint64_t
Trace::cfgUint(const std::string &key, std::uint64_t fallback) const
{
    const std::string v = cfgValue(key);
    if (v.empty())
        return fallback;
    std::uint64_t out = 0;
    const auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc() || ptr != v.data() + v.size()) {
        // Trace cfg is external input, so a bad value is not a
        // library bug: fatal, not panic.
        fatal("trace: cfg '" + key +
              "' is not an unsigned integer: '" + v + "'");
    }
    return out;
}

void
Trace::setCfg(const std::string &key, const std::string &value)
{
    for (auto &[k, v] : cfg) {
        if (k == key) {
            v = value;
            return;
        }
    }
    cfg.emplace_back(key, value);
}

void
Trace::setCfgUint(const std::string &key, std::uint64_t value)
{
    setCfg(key, std::to_string(value));
}

std::string
serializeTrace(const Trace &trace)
{
    std::ostringstream out;
    out << Trace::magic << '\n';
    out << "component " << trace.component << '\n';
    for (const auto &[k, v] : trace.cfg)
        out << "cfg " << k << ' ' << v << '\n';
    for (const TraceOp &op : trace.ops) {
        out << "op " << op.kind;
        for (unsigned i = 0; i < op.nargs; ++i)
            out << ' ' << op.args[i];
        out << '\n';
    }
    out << "end\n";
    return out.str();
}

Result<Trace>
tryParseTrace(const std::string &text)
{
    std::istringstream in(text);
    std::string line;

    if (!std::getline(in, line) || line != Trace::magic)
        return Status::invalidArgument(
            "trace: missing or wrong magic line");

    Trace trace;
    bool ended = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string word;
        fields >> word;
        if (word == "end") {
            ended = true;
            break;
        }
        if (word == "component") {
            fields >> trace.component;
            if (trace.component.empty())
                return Status::invalidArgument(
                    "trace: empty component name");
            continue;
        }
        if (word == "cfg") {
            std::string key, value;
            fields >> key >> value;
            if (key.empty() || value.empty())
                return Status::invalidArgument(
                    "trace: malformed cfg line: '" + line + "'");
            trace.cfg.emplace_back(key, value);
            continue;
        }
        if (word == "op") {
            std::string kind;
            fields >> kind;
            if (kind.size() != 1)
                return Status::invalidArgument(
                    "trace: op kind must be one letter: '" + line +
                    "'");
            TraceOp op;
            op.kind = kind[0];
            std::uint64_t arg = 0;
            while (op.nargs < TraceOp::maxArgs && fields >> arg)
                op.args[op.nargs++] = arg;
            if (!fields.eof())
                return Status::invalidArgument(
                    "trace: too many op args: '" + line + "'");
            trace.ops.push_back(op);
            continue;
        }
        return Status::invalidArgument("trace: unknown line: '" +
                                       line + "'");
    }
    // No "end" marker means the file was cut off mid-write:
    // truncation, not malformation.
    if (!ended)
        return Status::dataLoss("trace: missing 'end' line "
                                "(truncated input)");
    if (trace.component.empty())
        return Status::invalidArgument(
            "trace: missing component line");
    return trace;
}

Status
tryWriteTraceFile(const std::string &path, const Trace &trace)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.good())
        return Status::ioError("trace: cannot open '" + path +
                               "' for writing");
    out << serializeTrace(trace);
    out.flush();
    if (!out.good())
        return Status::ioError("trace: write to '" + path +
                               "' failed");
    return Status();
}

namespace
{

/** invalidArgument unless @p key's value is one of @p allowed; an
 *  absent key takes the first, the harnesses' default. */
Status
checkCfgEnum(const Trace &trace, const std::string &key,
             std::initializer_list<std::string_view> allowed)
{
    const std::string value =
        trace.cfgValue(key, std::string(*allowed.begin()));
    if (std::ranges::find(allowed, value) != allowed.end())
        return Status();
    return Status::invalidArgument("trace: unsupported 'cfg " + key +
                                   " " + value + "'");
}

} // namespace

Status
checkTraceCfg(const Trace &trace)
{
    // The vm harnesses read these keys as enums (DESIGN.md §10): a
    // value they do not know is unreadable input, not a crash.
    if (trace.component != "vm" && trace.component != "vm-shard")
        return Status();
    Status status = checkCfgEnum(trace, "kind", {"mosaic", "linux"});
    if (status.ok())
        status = checkCfgEnum(trace, "policy",
                              {"horizon", "local", "shrunken"});
    if (status.ok())
        status = checkCfgEnum(trace, "sharing", {"pageid"});
    return status;
}

Result<Trace>
tryReadTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return Status::notFound("trace: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        return Status::ioError("trace: read from '" + path +
                               "' failed");
    Result<Trace> parsed = tryParseTrace(buffer.str());
    if (!parsed.ok())
        return parsed;
    const Trace &trace = parsed.value();
    if (!isTraceComponent(trace.component))
        return Status::invalidArgument(
            "trace: unknown component '" + trace.component + "' in '" +
            path + "'");
    if (const Status status = checkTraceCfg(trace); !status.ok())
        return Status::invalidArgument(status.message() + " in '" +
                                       path + "'");
    return parsed;
}

Trace
parseTrace(const std::string &text)
{
    Result<Trace> parsed = tryParseTrace(text);
    if (!parsed.ok())
        fatal(parsed.status().toString());
    return std::move(parsed.value());
}

void
writeTraceFile(const std::string &path, const Trace &trace)
{
    const Status status = tryWriteTraceFile(path, trace);
    if (!status.ok())
        fatal(status.toString());
}

Trace
readTraceFile(const std::string &path)
{
    Result<Trace> read = tryReadTraceFile(path);
    if (!read.ok())
        fatal(read.status().toString());
    return std::move(read.value());
}

} // namespace mosaic
