/**
 * @file
 * Minimal JSON parser for the tools and tests, and the one string
 * quoting function the JSON writers share.
 *
 * The repo emits JSON in several places (metrics registry, Chrome
 * traces, ttreport reports); ttreport --diff and the golden-structure
 * trace tests need to read it back without an external dependency.
 * This is a small recursive-descent parser into a tagged tree value:
 * no streaming, no SAX, numbers as double -- exactly enough for the
 * documents this codebase produces.
 */

#ifndef TT_UTIL_JSON_HH
#define TT_UTIL_JSON_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tt::json {

/** One parsed JSON value (a tagged tree). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /** Object members in document order (duplicates kept as-is). */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup on an object; nullptr when absent or not one. */
    const Value *find(const std::string &key) const;

    /** Member's number, or `fallback` when absent / not a number. */
    double numberAt(const std::string &key, double fallback = 0.0) const;

    /** Member's string, or `fallback` when absent / not a string. */
    std::string stringAt(const std::string &key,
                         const std::string &fallback = {}) const;
};

/**
 * Parse one complete JSON document. Returns nullopt on malformed
 * input (and, when `error` is non-null, a human-readable reason with
 * the byte offset). Trailing non-whitespace after the document is an
 * error.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/**
 * `text` as a JSON string literal, quotes included: `"` and `\`
 * escaped, newline and tab as `\n` and `\t`, any other control
 * character as `\u00XX`, every other byte as is. The metrics
 * registry, the Chrome trace, the ttreport report and the bench
 * results quote their strings through this.
 */
std::string quote(std::string_view text);

} // namespace tt::json

#endif // TT_UTIL_JSON_HH
