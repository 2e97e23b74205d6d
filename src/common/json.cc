#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rmt
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : _members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->number() : fallback;
}

std::string
JsonValue::strOr(const std::string &key,
                 const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->str() : fallback;
}

/** Recursive-descent parser over an in-memory string. */
class JsonParser
{
  public:
    JsonParser(const std::string &text) : s(text) {}

    bool
    parse(JsonValue &out, std::string &error)
    {
        err = &error;
        out = JsonValue{};
        if (!value(out))
            return false;
        skipWs();
        if (pos != s.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        *err = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (s.compare(pos, len, word) != 0)
            return fail(std::string("bad literal, expected ") + word);
        pos += len;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        switch (s[pos]) {
          case '{': return object(out);
          case '[': return array(out);
          case '"':
            out._kind = JsonValue::Kind::String;
            return string(out._string);
          case 't':
            out._kind = JsonValue::Kind::Bool;
            out._bool = true;
            return literal("true", 4);
          case 'f':
            out._kind = JsonValue::Kind::Bool;
            out._bool = false;
            return literal("false", 5);
          case 'n':
            out._kind = JsonValue::Kind::Null;
            return literal("null", 4);
          default:
            return number(out);
        }
    }

    bool
    object(JsonValue &out)
    {
        out._kind = JsonValue::Kind::Object;
        ++pos;              // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':' after key");
            ++pos;
            JsonValue member;
            if (!value(member))
                return false;
            out._members.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated object");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out)
    {
        out._kind = JsonValue::Kind::Array;
        ++pos;              // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            JsonValue elem;
            if (!value(elem))
                return false;
            out._array.push_back(std::move(elem));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated array");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos;              // opening quote
        out.clear();
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= s.size())
                    return fail("unterminated escape");
                const char e = s[pos + 1];
                pos += 2;
                switch (e) {
                  case '"':  out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/':  out += '/'; break;
                  case 'b':  out += '\b'; break;
                  case 'f':  out += '\f'; break;
                  case 'n':  out += '\n'; break;
                  case 'r':  out += '\r'; break;
                  case 't':  out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > s.size())
                        return fail("short \\u escape");
                    const unsigned long cp =
                        std::strtoul(s.substr(pos, 4).c_str(), nullptr,
                                     16);
                    pos += 4;
                    // Only the BMP subset rmtsim itself emits (control
                    // characters); encode as UTF-8 for completeness.
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xc0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                continue;
            }
            out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const char *start = s.c_str() + pos;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        out._kind = JsonValue::Kind::Number;
        out._number = v;
        pos += static_cast<std::size_t>(end - start);
        return true;
    }

    const std::string &s;
    std::size_t pos = 0;
    std::string *err = nullptr;
};

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    JsonParser parser(text);
    return parser.parse(out, error);
}

bool
parseJson(const std::string &text, JsonValue &out)
{
    std::string error;
    return parseJson(text, out, error);
}

} // namespace rmt
