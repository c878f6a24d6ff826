/**
 * @file
 * Performance-regression gate for the google-benchmark micros.
 *
 * Runs each given micro_* binary several times (min-of-N filters the
 * additive noise of a loaded CI machine), extracts per-benchmark CPU
 * times from the google-benchmark JSON output, and compares them
 * against checked-in baselines in bench/baselines/<bench>.json:
 *
 *   perf_gate --baseline-dir bench/baselines build/bench/micro_vm ...
 *
 * A benchmark regresses when its best measured CPU time exceeds
 * baseline * (1 + tolerance); any regression — or any benchmark
 * missing from either side, which means the baseline is stale —
 * fails the gate with exit code 1.
 *
 * Knobs (flag overrides env overrides default):
 *   --tolerance F | MOSAIC_PERF_TOL   allowed slowdown fraction
 *                                     (default 0.30; CI machines are
 *                                     noisy, pick per-runner)
 *   --runs N      | MOSAIC_PERF_RUNS  repetitions per binary, best
 *                                     time wins (default 3)
 *   --filter RE                       forwarded as
 *                                     --benchmark_filter=RE
 *   --min-time S                      forwarded as
 *                                     --benchmark_min_time=S (CI
 *                                     uses a reduced scale; per-
 *                                     iteration times stay
 *                                     comparable, just noisier)
 *   --update                          rewrite the baselines from
 *                                     this run instead of comparing
 *                                     (the refresh recipe, see
 *                                     DESIGN.md §12)
 *   --max-ratio "BM_a/BM_b:F"         repeatable; assert that the
 *                                     measured CPU time of BM_a is at
 *                                     most F times that of BM_b (both
 *                                     taken from the same min-of-N
 *                                     run). Machine-relative, so it
 *                                     holds speedups in place — e.g.
 *                                     0.67 locks BM_b/BM_a >= 1.5x —
 *                                     where absolute baselines can't.
 *                                     A spec whose series never
 *                                     appear fails the gate (stale
 *                                     config). Names are split at the
 *                                     '/' that starts the denominator's
 *                                     "BM_", so either side may carry
 *                                     arguments (BM_X/1024/BM_X/4).
 *                                     Checked in compare mode only,
 *                                     not under --update.
 *
 * Baseline format (written by --update, deterministic key order):
 *   { "bench": "micro_vm",
 *     "benchmarks": { "BM_Name/50": 123.4, ... } }   // CPU ns
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace
{

/**
 * A minimal recursive-descent JSON reader, just enough for the
 * google-benchmark output and our own baseline files. Numbers are
 * doubles, objects are ordered maps; parse errors throw.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    const JsonValue *
    get(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("json: " + what + " at offset " +
                                 std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    JsonValue
    value()
    {
        switch (peek()) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't':
            if (!consume("true"))
                fail("bad literal");
            return makeBool(true);
        case 'f':
            if (!consume("false"))
                fail("bad literal");
            return makeBool(false);
        case 'n':
            if (!consume("null"))
                fail("bad literal");
            return JsonValue{};
        default: return number();
        }
    }

    static JsonValue
    makeBool(bool b)
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = b;
        return v;
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            JsonValue key = string();
            expect(':');
            v.members.emplace_back(key.text, value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.text += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
            case '"': v.text += '"'; break;
            case '\\': v.text += '\\'; break;
            case '/': v.text += '/'; break;
            case 'b': v.text += '\b'; break;
            case 'f': v.text += '\f'; break;
            case 'n': v.text += '\n'; break;
            case 'r': v.text += '\r'; break;
            case 't': v.text += '\t'; break;
            case 'u': {
                // Benchmark names are ASCII; map \uXXXX to '?' when
                // outside that range rather than carrying full UTF-16.
                if (pos_ + 4 > text_.size())
                    fail("short \\u escape");
                const unsigned code = static_cast<unsigned>(std::stoul(
                    std::string(text_.substr(pos_, 4)), nullptr, 16));
                pos_ += 4;
                v.text += code < 0x80 ? static_cast<char>(code) : '?';
                break;
            }
            default: fail("bad escape");
            }
        }
    }

    JsonValue
    number()
    {
        skipSpace();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number =
            std::stod(std::string(text_.substr(start, pos_ - start)));
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** CPU-time nanoseconds per benchmark, from gbench JSON output. */
std::map<std::string, double>
parseBenchmarkTimes(const std::string &json)
{
    const JsonValue root = JsonParser(json).parse();
    const JsonValue *benchmarks = root.get("benchmarks");
    if (!benchmarks || benchmarks->kind != JsonValue::Kind::Array)
        throw std::runtime_error("no benchmarks array in output");
    std::map<std::string, double> times;
    for (const JsonValue &b : benchmarks->items) {
        const JsonValue *run_type = b.get("run_type");
        if (run_type && run_type->text != "iteration")
            continue; // skip aggregates
        const JsonValue *name = b.get("name");
        const JsonValue *cpu = b.get("cpu_time");
        if (!name || !cpu)
            continue;
        double ns = cpu->number;
        if (const JsonValue *unit = b.get("time_unit")) {
            if (unit->text == "us")
                ns *= 1e3;
            else if (unit->text == "ms")
                ns *= 1e6;
            else if (unit->text == "s")
                ns *= 1e9;
        }
        auto [it, inserted] = times.emplace(name->text, ns);
        if (!inserted)
            it->second = std::min(it->second, ns);
    }
    return times;
}

std::map<std::string, double>
parseBaseline(const fs::path &path)
{
    const JsonValue root = JsonParser(readFile(path)).parse();
    const JsonValue *benchmarks = root.get("benchmarks");
    if (!benchmarks || benchmarks->kind != JsonValue::Kind::Object)
        throw std::runtime_error("no benchmarks object in " +
                                 path.string());
    std::map<std::string, double> times;
    for (const auto &[name, v] : benchmarks->members)
        times[name] = v.number;
    return times;
}

void
writeBaseline(const fs::path &path, const std::string &bench,
              const std::map<std::string, double> &times)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
    out << "{\n  \"bench\": \"" << bench << "\",\n"
        << "  \"unit\": \"cpu ns per iteration (min over runs)\",\n"
        << "  \"benchmarks\": {\n";
    std::size_t i = 0;
    for (const auto &[name, ns] : times) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", ns);
        out << "    \"" << name << "\": " << buf
            << (++i == times.size() ? "\n" : ",\n");
    }
    out << "  }\n}\n";
}

double
envDouble(const char *name, double fallback)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return fallback;
    try {
        return std::stod(s);
    } catch (...) {
        std::cerr << "perf_gate: ignoring bad " << name << "='" << s
                  << "'\n";
        return fallback;
    }
}

/** Run one bench binary, return per-benchmark best CPU ns. */
std::map<std::string, double>
measure(const std::string &binary, unsigned runs,
        const std::string &filter, const std::string &min_time)
{
    std::map<std::string, double> best;
    const fs::path tmp =
        fs::temp_directory_path() /
        ("perf_gate_" + fs::path(binary).filename().string() +
         ".json");
    for (unsigned r = 0; r < runs; ++r) {
        std::string cmd = binary +
                          " --benchmark_out_format=json"
                          " --benchmark_out=" +
                          tmp.string();
        if (!filter.empty())
            cmd += " --benchmark_filter=" + filter;
        if (!min_time.empty())
            cmd += " --benchmark_min_time=" + min_time;
        cmd += " > /dev/null 2>&1";
        const int rc = std::system(cmd.c_str());
        if (rc != 0)
            throw std::runtime_error(binary + " exited with " +
                                     std::to_string(rc));
        for (const auto &[name, ns] :
             parseBenchmarkTimes(readFile(tmp))) {
            auto [it, inserted] = best.emplace(name, ns);
            if (!inserted)
                it->second = std::min(it->second, ns);
        }
    }
    std::error_code ec;
    fs::remove(tmp, ec);
    return best;
}

/** One parsed --max-ratio spec: measured[num]/measured[den] <= max. */
struct RatioSpec
{
    std::string num;
    std::string den;
    double max = 0;
    bool checked = false;
};

/** Parse "BM_a/BM_b:F". The names split at the '/' that starts the
 *  denominator's "BM_", so "BM_X/1024/BM_X/4:2" compares BM_X/1024
 *  with BM_X/4. */
std::optional<RatioSpec>
parseRatioSpec(const std::string &spec)
{
    const std::size_t colon = spec.rfind(':');
    const std::size_t slash = spec.find("/BM_");
    if (colon == std::string::npos || slash == std::string::npos ||
            slash == 0 || slash + 1 >= colon)
        return std::nullopt;
    RatioSpec r;
    r.num = spec.substr(0, slash);
    r.den = spec.substr(slash + 1, colon - slash - 1);
    try {
        r.max = std::stod(spec.substr(colon + 1));
    } catch (...) {
        return std::nullopt;
    }
    if (!(r.max > 0))
        return std::nullopt;
    return r;
}

struct Options
{
    fs::path baselineDir = "bench/baselines";
    double tolerance = 0.30;
    unsigned runs = 3;
    bool update = false;
    std::string filter;
    std::string minTime;
    std::vector<RatioSpec> ratios;
    std::vector<std::string> binaries;
};

int
usage()
{
    std::cerr << "usage: perf_gate [--baseline-dir DIR]"
                 " [--tolerance F] [--runs N] [--filter RE]"
                 " [--min-time S] [--max-ratio BM_a/BM_b:F]..."
                 " [--update] <bench_binary>...\n"
                 "  --max-ratio names may carry arguments:"
                 " BM_X/1024/BM_X/4:2.0\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.tolerance = envDouble("MOSAIC_PERF_TOL", opt.tolerance);
    opt.runs = static_cast<unsigned>(
        envDouble("MOSAIC_PERF_RUNS", opt.runs));

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (++i >= argc) {
                std::cerr << "perf_gate: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[i];
        };
        if (arg == "--baseline-dir")
            opt.baselineDir = next();
        else if (arg == "--tolerance")
            opt.tolerance = std::stod(next());
        else if (arg == "--runs")
            opt.runs = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--filter")
            opt.filter = next();
        else if (arg == "--min-time")
            opt.minTime = next();
        else if (arg == "--max-ratio") {
            const std::string spec = next();
            const auto parsed = parseRatioSpec(spec);
            if (!parsed) {
                std::cerr << "perf_gate: bad --max-ratio '" << spec
                          << "' (want BM_a/BM_b:F, names may carry "
                             "/args)\n";
                return 2;
            }
            opt.ratios.push_back(*parsed);
        } else if (arg == "--update")
            opt.update = true;
        else if (arg == "--help" || arg == "-h")
            return usage();
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "perf_gate: unknown flag " << arg << "\n";
            return usage();
        } else
            opt.binaries.push_back(arg);
    }
    if (opt.binaries.empty() || opt.runs == 0)
        return usage();

    bool failed = false;
    for (const std::string &binary : opt.binaries) {
        const std::string bench = fs::path(binary).filename().string();
        const fs::path baseline_path =
            opt.baselineDir / (bench + ".json");

        std::cout << "== " << bench << " (" << opt.runs
                  << " runs, best time";
        if (!opt.update)
            std::cout << ", tolerance "
                      << static_cast<int>(opt.tolerance * 100) << "%";
        std::cout << ")\n";

        std::map<std::string, double> measured;
        try {
            measured =
                measure(binary, opt.runs, opt.filter, opt.minTime);
        } catch (const std::exception &e) {
            std::cerr << "perf_gate: " << e.what() << "\n";
            failed = true;
            continue;
        }
        if (measured.empty()) {
            std::cerr << "perf_gate: " << bench
                      << " produced no benchmarks\n";
            failed = true;
            continue;
        }

        if (opt.update) {
            fs::create_directories(opt.baselineDir);
            writeBaseline(baseline_path, bench, measured);
            std::cout << "  wrote " << baseline_path.string() << " ("
                      << measured.size() << " benchmarks)\n";
            continue;
        }

        std::map<std::string, double> baseline;
        try {
            baseline = parseBaseline(baseline_path);
        } catch (const std::exception &e) {
            std::cerr << "perf_gate: " << e.what()
                      << " (run with --update to create it)\n";
            failed = true;
            continue;
        }

        for (const auto &[name, base_ns] : baseline) {
            const auto it = measured.find(name);
            if (it == measured.end()) {
                if (!opt.filter.empty())
                    continue; // filtered out on purpose
                std::cout << "  MISSING " << name
                          << " (in baseline, not measured; "
                             "refresh with --update)\n";
                failed = true;
                continue;
            }
            const double ratio = it->second / base_ns;
            const bool regressed = ratio > 1.0 + opt.tolerance;
            char line[256];
            std::snprintf(line, sizeof line,
                          "  %-7s %-40s %10.1f -> %10.1f ns  (%+5.1f%%)",
                          regressed ? "REGRESS" : "ok", name.c_str(),
                          base_ns, it->second, (ratio - 1.0) * 100.0);
            std::cout << line << "\n";
            failed = failed || regressed;
        }
        for (const auto &[name, ns] : measured) {
            if (!baseline.contains(name)) {
                std::cout << "  NEW     " << name << " (" << ns
                          << " ns; not in baseline; add with "
                             "--update)\n";
                failed = true;
            }
        }

        // Relative gates: both series come from this binary's
        // min-of-N run, so machine speed cancels out of the ratio.
        for (RatioSpec &spec : opt.ratios) {
            const auto num = measured.find(spec.num);
            const auto den = measured.find(spec.den);
            if (num == measured.end() || den == measured.end())
                continue;
            spec.checked = true;
            const double ratio = num->second / den->second;
            const bool bad = ratio > spec.max;
            char line[256];
            std::snprintf(line, sizeof line,
                          "  %-7s %s/%s  %.3f (max %.3f)",
                          bad ? "RATIO" : "ok", spec.num.c_str(),
                          spec.den.c_str(), ratio, spec.max);
            std::cout << line << "\n";
            failed = failed || bad;
        }
    }

    for (const RatioSpec &spec : opt.ratios) {
        if (!spec.checked && !opt.update) {
            std::cerr << "perf_gate: --max-ratio " << spec.num << "/"
                      << spec.den << " matched no measured series "
                      << "(stale spec?)\n";
            failed = true;
        }
    }

    if (failed) {
        std::cout << "perf_gate: FAIL (regressions or stale "
                     "baselines; see above). To refresh after an "
                     "intentional change:\n  perf_gate --update "
                     "--baseline-dir <dir> <bench>...\n";
        return 1;
    }
    std::cout << "perf_gate: PASS\n";
    return 0;
}
