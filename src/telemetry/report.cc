#include "telemetry/report.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "telemetry/json_writer.hh"
#include "util/log.hh"

namespace mosaic::telemetry
{

namespace
{

/** Current telemetry schema identifier (DESIGN.md §9). */
constexpr const char *schemaName = "mosaic-telemetry-v1";

} // namespace

BenchReport::BenchReport(std::string bench)
{
    manifest_.bench = std::move(bench);
    ensure(!manifest_.bench.empty(), "telemetry: empty bench name");
}

void
BenchReport::config(const std::string &name, const std::string &v)
{
    manifest_.config[name] = v;
}

void
BenchReport::config(const std::string &name, const char *v)
{
    config(name, std::string{v});
}

void
BenchReport::config(const std::string &name, double v)
{
    config(name, jsonDouble(v));
}

void
BenchReport::config(const std::string &name, bool v)
{
    config(name, std::string{v ? "true" : "false"});
}

void
BenchReport::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", schemaName);
    w.field("bench", manifest_.bench);
    w.field("seed", manifest_.seed);
    w.field("threads", manifest_.threads);
    w.key("config");
    w.beginObject();
    for (const auto &[name, value] : manifest_.config)
        w.field(name, value);
    w.endObject();
    w.key("timing");
    w.beginObject();
    w.field("wallSeconds", timing_.wallSeconds);
    w.field("serialEquivalentSeconds", timing_.serialSeconds);
    w.field("speedup", timing_.speedup());
    w.endObject();
    w.key("metrics");
    metrics_.writeTo(w);
    w.endObject();
    os << '\n';
}

std::string
BenchReport::metricsJson() const
{
    std::ostringstream os;
    JsonWriter w(os);
    metrics_.writeTo(w);
    return os.str();
}

bool
BenchReport::jsonEnabled()
{
    const char *no_json = std::getenv("MOSAIC_NO_JSON");
    return no_json == nullptr || *no_json == '\0' ||
           std::string_view{no_json} == "0";
}

std::string
BenchReport::path() const
{
    std::string dir;
    if (const char *env = std::getenv("MOSAIC_JSON_DIR");
            env != nullptr && *env != '\0') {
        dir = env;
        if (dir.back() != '/')
            dir += '/';
    }
    return dir + "BENCH_" + manifest_.bench + ".json";
}

Result<std::string>
BenchReport::tryWrite() const
{
    if (!jsonEnabled())
        return Status::notFound("telemetry: JSON artifacts disabled "
                                "by MOSAIC_NO_JSON");
    const std::string file = path();
    std::ofstream os(file);
    if (!os)
        return Status::ioError("telemetry: cannot write " + file);
    writeJson(os);
    if (!os)
        return Status::ioError("telemetry: short write to " + file);
    return file;
}

} // namespace mosaic::telemetry
