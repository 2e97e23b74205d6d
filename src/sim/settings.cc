/**
 * @file
 * The settings table: one row per timing-relevant SimOptions field.
 * Every tool names settings through it, and optionsCanonicalJson, the
 * pre-image of the options fingerprint, writes its rows in order.
 */

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/parse.hh"
#include "sim/simulator.hh"

namespace rmt
{

namespace
{

constexpr std::array modeNames = {"base", "base2", "srt", "lockstep", "crt"};
constexpr std::array frontendNames = {"lpq", "boq", "sharedlp"};

/** The value names of an enum-valued field, indexed by the enum. */
template <typename T>
constexpr std::span<const char *const> namesOf;
template <>
constexpr std::span<const char *const> namesOf<SimMode> = modeNames;
template <>
constexpr std::span<const char *const> namesOf<TrailingFetchMode> =
    frontendNames;

/** A SimOptions field read and written as a number: an enum as its
 *  index into its names, a switch as 0/1. */
struct Field
{
    std::uint64_t (*get)(const SimOptions &);
    void (*set)(SimOptions &, std::uint64_t);
    std::uint64_t max;                      ///< the field type's
    std::span<const char *const> names;     ///< an enum's, else empty
};

/** The field at a member-pointer path from SimOptions. */
template <auto... Path>
constexpr Field
at()
{
    using T = std::remove_reference_t<decltype((
        std::declval<SimOptions &>() .* ... .* Path))>;
    using Limits = std::numeric_limits<T>;
    const std::uint64_t max = std::is_enum_v<T> ? namesOf<T>.size() - 1
                                                : std::uint64_t(Limits::max());
    return {[](const SimOptions &o) {
                return static_cast<std::uint64_t>((o .* ... .* Path));
            },
            [](SimOptions &o, std::uint64_t v) {
                (o .* ... .* Path) = static_cast<T>(v);
            },
            max, namesOf<T>};
}

struct Setting
{
    const char *key;
    Field field;
    std::uint64_t min = 0;                  ///< smallest legal value
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    /** Written only off its default, so adding the row left the
     *  pre-image (and every stored key) of a default machine alone. */
    bool sparse = false;
    const char *flag = nullptr;             ///< tool flag spelling it
};

/** Renaming needs more physical registers than the architectural
 *  registers of every hardware context. */
constexpr unsigned minPhysRegs = numArchRegs * SmtParams{}.num_threads + 1;
/** The IQ and the ROB keep a reserved slice for every other hardware
 *  context (deadlock avoidance, Section 4.3): one context needs an
 *  entry past them, or it never dispatches. */
constexpr unsigned minIqEntries =
    SmtParams{}.iq_reserved_per_thread * (SmtParams{}.num_threads - 1) + 1;
constexpr unsigned minRobEntries =
    SmtParams{}.rob_reserved_per_thread * (SmtParams{}.num_threads - 1) + 1;
/** Split among the hardware contexts, the store queue gives each one
 *  entry at least. */
constexpr unsigned minStoreQueueEntries = SmtParams{}.num_threads;

// In canonical-JSON order.  A queue or window a machine hangs on is no
// machine, nor is a register file PhysRegIndex cannot number.
constexpr Setting settings[] = {
    {.key = "mode", .field = at<&SimOptions::mode>(), .flag = "--mode"},
    {.key = "warmup_insts", .field = at<&SimOptions::warmup_insts>(),
     .flag = "--warmup"},
    {.key = "measure_insts", .field = at<&SimOptions::measure_insts>(),
     .flag = "--insts"},
    {"checker_penalty", at<&SimOptions::checker_penalty>()},
    {"ptsq", at<&SimOptions::per_thread_store_queues>()},
    {"store_comparison", at<&SimOptions::store_comparison>()},
    {"psr", at<&SimOptions::preferential_space_redundancy>()},
    {"frontend", at<&SimOptions::trailing_fetch>()},
    {"slack", at<&SimOptions::slack_fetch>()},
    {"lvq_ecc", at<&SimOptions::lvq_ecc>()},
    {"lpq_ecc", at<&SimOptions::lpq_ecc>()},
    {"boq_ecc", at<&SimOptions::boq_ecc>()},
    {"merge_ecc", at<&SimOptions::merge_buffer_ecc>()},
    {"hang", at<&SimOptions::hang_cycles>()},
    {"storeq", at<&SimOptions::cpu, &SmtParams::store_queue_entries>(),
     minStoreQueueEntries},
    {"lvq", at<&SimOptions::cpu, &SmtParams::lvq_entries>(), 1},
    {"lpq", at<&SimOptions::cpu, &SmtParams::lpq_entries>(), 1},
    {"rob", at<&SimOptions::cpu, &SmtParams::rob_entries>(), minRobEntries},
    {"iq", at<&SimOptions::cpu, &SmtParams::iq_entries>(), minIqEntries},
    {"recovery", at<&SimOptions::recovery>()},
    {.key = "snapshot_every", .field = at<&SimOptions::snapshot_every>(),
     .flag = "--snapshot-every"},
    {"physregs", at<&SimOptions::cpu, &SmtParams::phys_regs>(), minPhysRegs,
     std::numeric_limits<PhysRegIndex>::max(), true},
    {.key = "dynlsq",
     .field = at<&SimOptions::cpu, &SmtParams::dynamic_lsq_partition>(),
     .sparse = true},
    {.key = "recovery_interval",
     .field =
         at<&SimOptions::recovery_params, &RecoveryParams::interval_insts>(),
     .sparse = true},
};

/** @p value's name, or "?" for a value outside the enum. */
const char *
nameOf(std::span<const char *const> names, std::uint64_t value)
{
    return value < names.size() ? names[value] : "?";
}

} // namespace

const char *
modeName(SimMode mode)
{
    return nameOf(modeNames, static_cast<std::uint64_t>(mode));
}

void
applySetting(SimOptions &options, std::string_view key,
             const std::string &value)
{
    const Setting *s =
        std::find_if(std::begin(settings), std::end(settings),
                     [&](const Setting &row) { return key == row.key; });
    if (s == std::end(settings))
        throw std::invalid_argument("unknown setting '" + std::string(key) +
                                    "'");
    const std::span<const char *const> names = s->field.names;
    std::uint64_t v = 0;
    if (!names.empty()) {
        const auto it = std::find(names.begin(), names.end(), value);
        if (it == names.end())
            throw std::invalid_argument("unknown " + std::string(key) +
                                        " '" + value + "'");
        v = static_cast<std::uint64_t>(it - names.begin());
    } else {
        v = parseUnsigned(value, s->key, std::min(s->max, s->field.max));
        if (v < s->min)
            throw std::invalid_argument(
                "bad value for " + std::string(key) + ": '" + value +
                "' (at least " + std::to_string(s->min) + ")");
    }
    s->field.set(options, v);
}

const char *
flagSetting(std::string_view flag)
{
    for (const Setting &s : settings) {
        if (s.flag && flag == s.flag)
            return s.key;
    }
    return nullptr;
}

std::string
settingsHelp()
{
    std::string out;
    for (const Setting &s : settings) {
        out.append(out.empty() ? "" : " ").append(s.key);
        const char *sep = "=";
        for (const char *name : s.field.names) {
            out.append(sep).append(name);
            sep = "|";
        }
        if (s.field.names.empty())
            out += s.field.max == 1 ? "=0|1" : "=N";
    }
    return out;
}

std::string
optionsCanonicalJson(const SimOptions &o)
{
    static const SimOptions defaults;
    // One string, appended to: the fingerprint is taken on every
    // snapshot restore and every rejoin compare.
    std::string out;
    out.reserve(400);
    for (const Setting &s : settings) {
        const std::uint64_t v = s.field.get(o);
        if (s.sparse && v == s.field.get(defaults))
            continue;
        out += out.empty() ? "{\"" : ",\"";
        out += s.key;
        out += "\":";
        if (!s.field.names.empty()) {
            out += '"';
            out += nameOf(s.field.names, v);
            out += '"';
        } else {
            char buf[24];
            out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        }
    }
    out += '}';
    return out;
}

} // namespace rmt
