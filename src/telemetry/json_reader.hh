/**
 * @file
 * A minimal recursive-descent JSON reader, the counterpart of
 * json_writer.hh: just enough for the google-benchmark output, the
 * perf-gate baselines and the BENCH_*.json schema checks.
 *
 * Header-only on purpose, so tools that link no mosaic library
 * (perf_gate) can use it. Numbers are doubles; object members keep
 * their file order, and a duplicate key is a parse error. \uXXXX
 * escapes outside ASCII read as '?' (the writers here emit only
 * ASCII escapes). Parse errors throw std::runtime_error naming the
 * byte offset.
 */

#ifndef MOSAIC_TELEMETRY_JSON_READER_HH_
#define MOSAIC_TELEMETRY_JSON_READER_HH_

#include <cctype>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mosaic::telemetry
{

/** One parsed JSON value, a tagged tree. */
struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    /** The member named @p key, or nullptr. */
    const JsonValue *
    get(std::string_view key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }

    bool has(std::string_view key) const { return get(key) != nullptr; }

    /** The member named @p key; throws std::out_of_range if absent. */
    const JsonValue &
    at(std::string_view key) const
    {
        if (const JsonValue *v = get(key))
            return *v;
        throw std::out_of_range("json: no member '" + std::string(key) +
                                "'");
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
        v.kind = JsonValue::Bool;
        v.boolean = b;
        return v;
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            JsonValue key = string();
            if (v.has(key.text))
                fail("duplicate key " + key.text);
            expect(':');
            v.members.emplace_back(std::move(key.text), value());
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
        v.kind = JsonValue::Array;
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
        v.kind = JsonValue::String;
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
        v.kind = JsonValue::Number;
        v.number =
            std::stod(std::string(text_.substr(start, pos_ - start)));
        return v;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace mosaic::telemetry

#endif // MOSAIC_TELEMETRY_JSON_READER_HH_
