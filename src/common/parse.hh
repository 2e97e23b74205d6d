/**
 * @file
 * The parsers for numbers that come from outside the process:
 * command-line values of every tool, sweep settings, and the u64
 * members of the serve protocol.  Both throw the same
 * "bad value for <what>: '<text>'" on anything they refuse.
 */

#ifndef RMTSIM_COMMON_PARSE_HH
#define RMTSIM_COMMON_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rmt
{

/**
 * Parse @p text as an unsigned integer, decimal or 0x/0X hex.  Throws
 * std::invalid_argument("bad value for <what>: '<text>'") on empty
 * input, a sign, whitespace, trailing text, or a value above @p max.
 */
inline std::uint64_t
parseUnsigned(const std::string &text, const std::string &what,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    // from_chars takes no sign or whitespace for unsigned types and
    // reports overflow; it must also consume every character.
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (first == last || ec != std::errc() || end != last || v > max)
        throw std::invalid_argument("bad value for " + what + ": '" +
                                    text + "'");
    return v;
}

/** parseUnsigned bounded to the range of unsigned. */
inline unsigned
parseUnsigned32(const std::string &text, const std::string &what)
{
    return static_cast<unsigned>(
        parseUnsigned(text, what, std::numeric_limits<unsigned>::max()));
}

/**
 * Parse @p text as a finite real number (decimal, optional fraction
 * and exponent, a leading '-' only) between @p lo and @p hi; an end
 * named open is excluded.  Throws like parseUnsigned on empty input,
 * '+', whitespace, trailing text, inf, nan, or a value out of range.
 */
inline double
parseReal(const std::string &text, const std::string &what, double lo,
          double hi = std::numeric_limits<double>::infinity(),
          bool lo_open = false, bool hi_open = false)
{
    const char *first = text.data();
    const char *last = text.data() + text.size();
    double v = 0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (first == last || ec != std::errc() || end != last ||
        !std::isfinite(v) || v < lo || v > hi || (lo_open && v == lo) ||
        (hi_open && v == hi))
        throw std::invalid_argument("bad value for " + what + ": '" +
                                    text + "'");
    return v;
}

/** The items of a @p sep-separated list ("a,b" -> {"a", "b"}). */
inline std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string item; std::getline(in, item, sep);)
        out.push_back(item);
    return out;
}

} // namespace rmt

#endif // RMTSIM_COMMON_PARSE_HH
