/**
 * @file
 * Minimal JSON support for machine-readable reports.
 *
 * The ecobench runner emits perf reports as JSON so CI can archive
 * and diff them without any extra runtime (no Python, no third-party
 * JSON library). Two pieces:
 *
 *  - JsonWriter: a streaming writer with correct string escaping and
 *    stable numeric formatting (shortest round-trip form, so a value
 *    written and re-parsed compares bit-equal).
 *  - JsonValue: a small DOM parser for the same documents, used by
 *    `ecobench diff` to load baseline/current reports.
 *
 * This is not a general-purpose JSON library: no comments, no
 * trailing commas, UTF-8 passed through verbatim.
 */

#ifndef ECOV_UTIL_JSON_H
#define ECOV_UTIL_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ecov {

/**
 * Streaming JSON writer.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("name"); w.value("fig04");
 *   w.key("metrics"); w.beginArray(); ... w.endArray();
 *   w.endObject();
 *   std::string doc = w.str();
 *
 * The writer tracks nesting and inserts commas/indentation; misuse
 * (e.g. a value with no pending key inside an object) is fatal, as
 * report-writing bugs should fail loudly in CI.
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level; 0 = compact one-line */
    explicit JsonWriter(int indent = 2);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next emission must be its value. */
    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    /** Doubles use shortest round-trip form; NaN/Inf become null. */
    void value(double d);
    void value(std::int64_t i);
    void value(std::uint64_t u);
    void value(int i) { value(static_cast<std::int64_t>(i)); }
    void value(bool b);

    /** The finished document. Fatal if containers are still open. */
    std::string str() const;

    /**
     * Escape `s` as a JSON string literal including the surrounding
     * quotes. Exposed for tests and ad-hoc formatting.
     */
    static std::string escape(std::string_view s);

    /** Format a double in shortest round-trip form ("null" for NaN/Inf). */
    static std::string formatDouble(double d);

  private:
    enum class Frame { Object, Array };

    void comma();
    void indentLine();
    void preValue();

    std::string out_;
    std::vector<Frame> stack_;
    std::vector<bool> has_items_;
    bool key_pending_ = false;
    int indent_;
};

/**
 * A parsed JSON document node.
 *
 * Objects preserve no duplicate keys (last wins) and iterate in
 * sorted key order; that is sufficient for report diffing, where key
 * order carries no meaning.
 */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    JsonValue() = default;

    /**
     * Parse a complete document.
     *
     * @param text the document; trailing whitespace is permitted,
     *   trailing garbage is an error
     * @param error when non-null, receives a message on failure
     * @return the root value, or std::nullopt on malformed input
     */
    static std::optional<JsonValue> parse(std::string_view text,
                                          std::string *error = nullptr);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Value accessors; fatal on type mismatch. */
    bool asBool() const;
    double asDouble() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object lookup: nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Convenience: find(key) as a double, or `fallback`. */
    double numberOr(const std::string &key, double fallback) const;

    /** Convenience: find(key) as a string, or `fallback`. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::shared_ptr<Array> array_;
    std::shared_ptr<Object> object_;

    friend class JsonParser;
};

} // namespace ecov

#endif // ECOV_UTIL_JSON_H
