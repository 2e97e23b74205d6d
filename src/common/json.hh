/**
 * @file
 * Minimal JSON support shared by the stats serializer, the timeline
 * probe, the campaign result sink, and the report tool.
 *
 * Two halves:
 *
 *  - writer helpers: jsonEscape() for string literals and jsonNum()
 *    for doubles that round-trip without printf noise;
 *  - a small recursive-descent parser producing a JsonValue tree,
 *    enough to read back everything rmtsim emits (objects, arrays,
 *    strings, numbers, booleans, null).  No external dependencies.
 */

#ifndef RMTSIM_COMMON_JSON_HH
#define RMTSIM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rmt
{

/** Escape @p s for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Format a double with enough digits to round-trip, trimming the
 *  noise printf's fixed precision leaves behind ("1.75" not
 *  "1.750000").  Non-finite values become 0 (JSON has no NaN/Inf). */
std::string jsonNum(double v);

/** Parsed JSON document node. */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isBool() const { return _kind == Kind::Bool; }

    bool boolean() const { return _bool; }
    double number() const { return _number; }
    const std::string &str() const { return _string; }
    const std::vector<JsonValue> &array() const { return _array; }

    /** Object member by key, or nullptr when absent (or not an
     *  object), so lookups chain without exceptions. */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key as a number; @p fallback when missing. */
    double numberOr(const std::string &key, double fallback) const;

    /** Member @p key as a string; @p fallback when missing. */
    std::string strOr(const std::string &key,
                      const std::string &fallback) const;

    /** Object members in document order (duplicate keys preserved). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return _members;
    }

  private:
    friend class JsonParser;

    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0;
    std::string _string;
    std::vector<JsonValue> _array;
    std::vector<std::pair<std::string, JsonValue>> _members;
};

/**
 * Parse @p text as one JSON document into @p out, replacing whatever
 * @p out held.
 * @param error receives a human-readable message on failure
 * @return the parsed value, or no value on malformed input
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/** Convenience: parse-or-false with the error discarded. */
bool parseJson(const std::string &text, JsonValue &out);

} // namespace rmt

#endif // RMTSIM_COMMON_JSON_HH
