#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace ecov {

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

JsonWriter::JsonWriter(int indent) : indent_(indent) {}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
JsonWriter::formatDouble(double d)
{
    if (!std::isfinite(d))
        return "null";
    // Shortest round-trip form. to_chars never emits a leading '+' or
    // locale-dependent separators, so output is stable across hosts.
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
    if (ec != std::errc())
        fatal("JsonWriter::formatDouble: to_chars failed");
    std::string s(buf, ptr);
    // JSON has no bare "1e+30"-style integers' ambiguity to worry
    // about, but "nan"/"inf" never reach here (guarded above).
    return s;
}

void
JsonWriter::comma()
{
    if (!stack_.empty() && has_items_.back())
        out_.push_back(',');
}

void
JsonWriter::indentLine()
{
    if (indent_ <= 0)
        return;
    out_.push_back('\n');
    out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void
JsonWriter::preValue()
{
    if (stack_.empty()) {
        if (!out_.empty())
            fatal("JsonWriter: multiple top-level values");
        return;
    }
    if (stack_.back() == Frame::Object) {
        if (!key_pending_)
            fatal("JsonWriter: value inside object requires key()");
        key_pending_ = false;
    } else {
        comma();
        indentLine();
        has_items_.back() = true;
    }
}

void
JsonWriter::key(std::string_view k)
{
    if (stack_.empty() || stack_.back() != Frame::Object)
        fatal("JsonWriter: key() outside object");
    if (key_pending_)
        fatal("JsonWriter: key() with a key already pending");
    comma();
    indentLine();
    has_items_.back() = true;
    out_ += escape(k);
    out_.push_back(':');
    if (indent_ > 0)
        out_.push_back(' ');
    key_pending_ = true;
}

void
JsonWriter::beginObject()
{
    preValue();
    out_.push_back('{');
    stack_.push_back(Frame::Object);
    has_items_.push_back(false);
}

void
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Frame::Object)
        fatal("JsonWriter: endObject() without beginObject()");
    if (key_pending_)
        fatal("JsonWriter: endObject() with dangling key");
    bool had = has_items_.back();
    stack_.pop_back();
    has_items_.pop_back();
    if (had)
        indentLine();
    out_.push_back('}');
}

void
JsonWriter::beginArray()
{
    preValue();
    out_.push_back('[');
    stack_.push_back(Frame::Array);
    has_items_.push_back(false);
}

void
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Frame::Array)
        fatal("JsonWriter: endArray() without beginArray()");
    bool had = has_items_.back();
    stack_.pop_back();
    has_items_.pop_back();
    if (had)
        indentLine();
    out_.push_back(']');
}

void
JsonWriter::value(std::string_view s)
{
    preValue();
    out_ += escape(s);
}

void
JsonWriter::value(double d)
{
    preValue();
    out_ += formatDouble(d);
}

void
JsonWriter::value(std::int64_t i)
{
    preValue();
    out_ += std::to_string(i);
}

void
JsonWriter::value(std::uint64_t u)
{
    preValue();
    out_ += std::to_string(u);
}

void
JsonWriter::value(bool b)
{
    preValue();
    out_ += b ? "true" : "false";
}

std::string
JsonWriter::str() const
{
    if (!stack_.empty())
        fatal("JsonWriter::str: unclosed container");
    return out_;
}

// ---------------------------------------------------------------------
// JsonValue parser
// ---------------------------------------------------------------------

/** Recursive-descent parser over a string_view. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::optional<JsonValue> run(std::string *error)
    {
        auto v = parseValue();
        if (v) {
            skipWs();
            if (pos_ != text_.size())
                fail("trailing characters after document");
        }
        if (!error_.empty()) {
            if (error)
                *error = error_ + " at offset " + std::to_string(pos_);
            return std::nullopt;
        }
        return v;
    }

  private:
    void fail(const std::string &msg)
    {
        if (error_.empty())
            error_ = msg;
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    /** Read 4 hex digits of a \u escape into *code. */
    bool readHex4(unsigned *code)
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
        }
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9')
                value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                value |= static_cast<unsigned>(h - 'A' + 10);
            else {
                fail("bad hex digit in \\u escape");
                return false;
            }
        }
        *code = value;
        return true;
    }

    /** Append one code point as UTF-8. */
    static void appendUtf8(std::string *out, unsigned code)
    {
        if (code < 0x80) {
            out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out->push_back(static_cast<char>(0xF0 | (code >> 18)));
            out->push_back(
                static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out->push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    std::optional<JsonValue> parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return std::nullopt;
        }
        // The parser recurses per nesting level; bound it so hostile
        // or corrupt input fails with an error instead of a stack
        // overflow. Reports nest ~4 deep.
        if (depth_ >= kMaxDepth) {
            fail("nesting depth exceeds limit");
            return std::nullopt;
        }
        char c = text_[pos_];
        JsonValue v;
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"': {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            v.type_ = JsonValue::Type::String;
            v.string_ = std::move(*s);
            return v;
          }
          case 't':
            if (literal("true")) {
                v.type_ = JsonValue::Type::Bool;
                v.bool_ = true;
                return v;
            }
            break;
          case 'f':
            if (literal("false")) {
                v.type_ = JsonValue::Type::Bool;
                v.bool_ = false;
                return v;
            }
            break;
          case 'n':
            if (literal("null"))
                return v; // Null
            break;
          default:
            return parseNumber();
        }
        fail("unrecognized token");
        return std::nullopt;
    }

    std::optional<JsonValue> parseNumber()
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                c == 'E' || c == '+' || c == '-')
                ++pos_;
            else
                break;
        }
        if (pos_ == start) {
            fail("expected number");
            return std::nullopt;
        }
        double d = 0.0;
        auto [ptr, ec] =
            std::from_chars(text_.data() + start, text_.data() + pos_, d);
        if (ec != std::errc() || ptr != text_.data() + pos_) {
            fail("malformed number");
            return std::nullopt;
        }
        JsonValue v;
        v.type_ = JsonValue::Type::Number;
        v.number_ = d;
        return v;
    }

    std::optional<std::string> parseString()
    {
        if (!consume('"')) {
            fail("expected string");
            return std::nullopt;
        }
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                char e = text_[pos_++];
                switch (e) {
                  case '"':
                    out.push_back('"');
                    break;
                  case '\\':
                    out.push_back('\\');
                    break;
                  case '/':
                    out.push_back('/');
                    break;
                  case 'b':
                    out.push_back('\b');
                    break;
                  case 'f':
                    out.push_back('\f');
                    break;
                  case 'n':
                    out.push_back('\n');
                    break;
                  case 'r':
                    out.push_back('\r');
                    break;
                  case 't':
                    out.push_back('\t');
                    break;
                  case 'u': {
                    unsigned code = 0;
                    if (!readHex4(&code))
                        return std::nullopt;
                    // Combine surrogate pairs so the result is valid
                    // UTF-8; lone or mismatched surrogates are errors
                    // rather than silent CESU-8.
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        if (pos_ + 2 > text_.size() ||
                            text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            fail("high surrogate without \\u pair");
                            return std::nullopt;
                        }
                        pos_ += 2;
                        unsigned low = 0;
                        if (!readHex4(&low))
                            return std::nullopt;
                        if (low < 0xDC00 || low > 0xDFFF) {
                            fail("invalid low surrogate");
                            return std::nullopt;
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) +
                               (low - 0xDC00);
                    } else if (code >= 0xDC00 && code <= 0xDFFF) {
                        fail("lone low surrogate");
                        return std::nullopt;
                    }
                    appendUtf8(&out, code);
                    break;
                  }
                  default:
                    fail("unknown escape");
                    return std::nullopt;
                }
            } else {
                out.push_back(c);
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<JsonValue> parseArray()
    {
        consume('[');
        ++depth_;
        JsonValue v;
        v.type_ = JsonValue::Type::Array;
        v.array_ = std::make_shared<JsonValue::Array>();
        skipWs();
        if (consume(']')) {
            --depth_;
            return v;
        }
        while (true) {
            auto item = parseValue();
            if (!item)
                return std::nullopt;
            v.array_->push_back(std::move(*item));
            if (consume(','))
                continue;
            if (consume(']')) {
                --depth_;
                return v;
            }
            fail("expected ',' or ']' in array");
            return std::nullopt;
        }
    }

    std::optional<JsonValue> parseObject()
    {
        consume('{');
        ++depth_;
        JsonValue v;
        v.type_ = JsonValue::Type::Object;
        v.object_ = std::make_shared<JsonValue::Object>();
        skipWs();
        if (consume('}')) {
            --depth_;
            return v;
        }
        while (true) {
            skipWs();
            auto key = parseString();
            if (!key)
                return std::nullopt;
            if (!consume(':')) {
                fail("expected ':' after object key");
                return std::nullopt;
            }
            auto item = parseValue();
            if (!item)
                return std::nullopt;
            (*v.object_)[std::move(*key)] = std::move(*item);
            if (consume(','))
                continue;
            if (consume('}')) {
                --depth_;
                return v;
            }
            fail("expected ',' or '}' in object");
            return std::nullopt;
        }
    }

    static constexpr int kMaxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

std::optional<JsonValue>
JsonValue::parse(std::string_view text, std::string *error)
{
    return JsonParser(text).run(error);
}

bool
JsonValue::asBool() const
{
    if (type_ != Type::Bool)
        fatal("JsonValue::asBool: not a bool");
    return bool_;
}

double
JsonValue::asDouble() const
{
    if (type_ != Type::Number)
        fatal("JsonValue::asDouble: not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (type_ != Type::String)
        fatal("JsonValue::asString: not a string");
    return string_;
}

const JsonValue::Array &
JsonValue::asArray() const
{
    if (type_ != Type::Array || !array_)
        fatal("JsonValue::asArray: not an array");
    return *array_;
}

const JsonValue::Object &
JsonValue::asObject() const
{
    if (type_ != Type::Object || !object_)
        fatal("JsonValue::asObject: not an object");
    return *object_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::Object || !object_)
        return nullptr;
    auto it = object_->find(key);
    return it == object_->end() ? nullptr : &it->second;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->number_ : fallback;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->string_ : fallback;
}

} // namespace ecov
