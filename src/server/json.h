#ifndef MCHECK_SERVER_JSON_H
#define MCHECK_SERVER_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mc::server {

/**
 * A parsed JSON value for the daemon's wire protocol.
 *
 * Deliberately minimal: the request protocol is line-delimited JSON
 * objects with string/number/bool scalars, string arrays, and one level
 * of nested params, so this models exactly the JSON data model and
 * nothing more (no comments, no NaN, no trailing commas). Objects
 * preserve insertion order — responses render fields in the order the
 * handler set them, which keeps wire bytes deterministic and diffable.
 *
 * Numbers remember whether their value is a whole number:
 * `asInt` refuses fractional values rather than silently truncating a
 * malformed "jobs": 1.5 (while "jobs": 3.0 reads as 3, matching JSON
 * Schema's value-based notion of integer).
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    static JsonValue boolean(bool b);
    static JsonValue number(double v);
    static JsonValue number(std::int64_t v);
    static JsonValue number(std::uint64_t v);
    static JsonValue string(std::string s);
    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool(bool dflt = false) const;
    double asDouble(double dflt = 0.0) const;
    /** Integral value; `ok` (if given) reports non-integral numbers. */
    std::int64_t asInt(std::int64_t dflt = 0, bool* ok = nullptr) const;
    const std::string& asString() const { return string_; }
    /** Move the string out of a value about to be dropped. */
    std::string takeString() { return std::move(string_); }

    /** True when the number's *value* is a representable whole number
     *  (JSON Schema's notion of integer: 3 and 3.0 qualify, 1.5 does
     *  not). Whole numbers dump without a fractional part. */
    bool isIntegral() const { return kind_ == Kind::Number && integral_; }

    // ---- arrays -------------------------------------------------------
    const std::vector<JsonValue>& items() const { return items_; }
    std::vector<JsonValue>& items() { return items_; }
    void push(JsonValue v);

    // ---- objects (insertion-ordered) ----------------------------------
    const std::vector<std::pair<std::string, JsonValue>>& members() const
    {
        return members_;
    }
    /** Member by key, or nullptr. */
    const JsonValue* get(const std::string& key) const;
    JsonValue* get(const std::string& key);
    /** Insert or overwrite a member (insertion position kept). */
    void set(std::string key, JsonValue v);

    /** Render compactly (no whitespace beyond ", " / ": " separators). */
    std::string dump() const;

    /**
     * Parse one complete JSON document. Trailing non-whitespace, control
     * characters in strings, bad escapes, and nesting deeper than 64
     * levels are all errors (reason in `error`).
     */
    static bool parse(std::string_view text, JsonValue& out,
                      std::string& error);

  private:
    /** The recursive-descent reader behind parse; it fills values in
     *  place. */
    struct Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    bool integral_ = false;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

} // namespace mc::server

#endif // MCHECK_SERVER_JSON_H
