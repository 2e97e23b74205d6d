/**
 * @file
 * Serve wire protocol (src/serve/protocol.*):
 *
 *  - the campaign codec round-trips: submitJson -> parseSubmit yields
 *    a campaign with the same per-job ids, labels and result keys,
 *    fault records and efficiency baseline options — and canonical
 *    options survive exactly (the daemon-side drift check throws
 *    otherwise);
 *  - every row of the settings table moves the options fingerprint,
 *    survives the codec and is listed by both tools' --help;
 *  - framed socket I/O over a socketpair: multiple frames in one
 *    stream, clean EOF, and the three corruption signatures — garbage
 *    bytes, an oversized length, and a connection cut mid-frame — all
 *    surface as wire::WireError, never as silent short reads;
 *  - reads are EINTR-safe: a stream of signals delivered to a blocked
 *    reader (no SA_RESTART) does not tear a frame.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "serve/result_store.hh"

using namespace rmt;
using namespace rmt::serve;

namespace
{

/** The default machine's canonical options with @p key's value
 *  replaced by the JSON text @p value. */
std::string
withMember(const std::string &key, const std::string &value)
{
    std::string canon = optionsCanonicalJson(SimOptions{});
    const std::size_t at = canon.find("\"" + key + "\":") + key.size() + 3;
    const std::size_t end = canon.find_first_of(",}", at);
    return canon.replace(at, end - at, value);
}

/** What @p tool prints for --help. */
std::string
helpText(const char *tool)
{
    std::string out;
    FILE *p = popen((std::string(tool) + " --help").c_str(), "r");
    if (!p)
        return out;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), p)) > 0;)
        out.append(buf, n);
    pclose(p);
    return out;
}

Campaign
faultyCampaign()
{
    CampaignBuilder b("proto", 11);
    SimOptions o;
    o.warmup_insts = 250;
    o.measure_insts = 2000;
    o.slack_fetch = 32;
    o.collect_stats_json = true;
    b.base(o)
        .modes({SimMode::Srt, SimMode::Crt})
        .workloads({"gcc", "compress"})
        .transientRegTrials(2, 15);
    return b.build();
}

/** Self-closing socketpair. */
struct Pair
{
    int fds[2];
    Pair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~Pair()
    {
        closeA();
        closeB();
    }
    void closeA()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
    void closeB()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

} // namespace

TEST(ServeCodec, SubmitRoundTripsCampaign)
{
    const Campaign sent = faultyCampaign();
    ASSERT_FALSE(sent.jobs.empty());

    // The efficiency member carries the baseline options through the
    // same checked canonical codec as the jobs' options.
    SimOptions base;
    base.warmup_insts = 300;
    base.measure_insts = 4000;
    base.snapshot_every = 1500;
    JsonValue msg;
    std::string error;
    ASSERT_TRUE(parseJson(submitJson(sent, &base), msg, error))
        << error;
    EXPECT_EQ(msg.find("timing"), nullptr);

    std::optional<SimOptions> efficiency;
    const Campaign got = parseSubmit(msg, efficiency);
    ASSERT_TRUE(efficiency.has_value());
    EXPECT_EQ(optionsCanonicalJson(*efficiency),
              optionsCanonicalJson(base));
    EXPECT_EQ(got.name, sent.name);
    EXPECT_EQ(got.seed, sent.seed);
    ASSERT_EQ(got.jobs.size(), sent.jobs.size());

    for (std::size_t i = 0; i < sent.jobs.size(); ++i) {
        const JobSpec &a = sent.jobs[i];
        const JobSpec &b = got.jobs[i];
        // The result key hashes every seed, workload, canonical option
        // and fault tuple; with the id and label that is everything
        // the daemon keys, renders and names the campaign by.
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(resultKeyU64(a), resultKeyU64(b));
        EXPECT_EQ(optionsCanonicalJson(a.options),
                  optionsCanonicalJson(b.options));
        EXPECT_EQ(a.options.collect_stats_json,
                  b.options.collect_stats_json);
        ASSERT_EQ(a.faults.size(), b.faults.size());
        for (std::size_t f = 0; f < a.faults.size(); ++f) {
            EXPECT_EQ(a.faults[f].kind, b.faults[f].kind);
            EXPECT_EQ(a.faults[f].when, b.faults[f].when);
            EXPECT_EQ(a.faults[f].reg, b.faults[f].reg);
            EXPECT_EQ(a.faults[f].bit, b.faults[f].bit);
            EXPECT_EQ(a.faults[f].mask, b.faults[f].mask);
        }
    }

    // Without the member there is no baseline.
    JsonValue plain;
    ASSERT_TRUE(parseJson(submitJson(sent), plain, error)) << error;
    parseSubmit(plain, efficiency);
    EXPECT_FALSE(efficiency.has_value());

    // Efficiency options that do not re-canonicalise are drift.
    const std::string canon = optionsCanonicalJson(base);
    const std::string drifted =
        "{\"type\":\"submit\",\"seed\":1,\"jobs\":[],\"efficiency\":" +
        canon.substr(0, canon.size() - 1) + ",\"extra\":1}}";
    JsonValue bad;
    ASSERT_TRUE(parseJson(drifted, bad, error)) << error;
    EXPECT_THROW(parseSubmit(bad, efficiency), std::invalid_argument);
}

TEST(ServeCodec, CanonicalOptionsSurviveExactly)
{
    SimOptions o;
    o.mode = SimMode::Crt;
    o.warmup_insts = 12345;
    o.measure_insts = 67890;
    o.checker_penalty = 4;
    o.per_thread_store_queues = true;
    o.store_comparison = false;
    o.trailing_fetch = TrailingFetchMode::BranchOutcomeQueue;
    o.slack_fetch = 64;
    o.lpq_ecc = true;
    o.merge_buffer_ecc = false;
    o.hang_cycles = 9999;
    o.cpu.rob_entries = 96;
    o.recovery = true;
    o.snapshot_every = 5000;

    const std::string canon = optionsCanonicalJson(o);
    JsonValue parsed;
    ASSERT_TRUE(parseJson(canon, parsed));
    const SimOptions back = parseCanonicalOptions(parsed);
    EXPECT_EQ(optionsCanonicalJson(back), canon);
}

TEST(ServeCodec, OffDefaultMachineMembersRoundTrip)
{
    // physregs and dynlsq join the pre-image only off their defaults,
    // so a default machine keeps its key and an ablation machine gets
    // its own.
    SimOptions o;
    const std::string plain = optionsCanonicalJson(o);
    EXPECT_EQ(plain.find("physregs"), std::string::npos);
    EXPECT_EQ(plain.find("dynlsq"), std::string::npos);
    o.cpu.phys_regs = 384;
    o.cpu.dynamic_lsq_partition = true;
    const std::string canon = optionsCanonicalJson(o);
    EXPECT_NE(canon, plain);
    JsonValue parsed;
    ASSERT_TRUE(parseJson(canon, parsed));
    const SimOptions back = parseCanonicalOptions(parsed);
    EXPECT_EQ(back.cpu.phys_regs, 384u);
    EXPECT_TRUE(back.cpu.dynamic_lsq_partition);
    EXPECT_EQ(optionsCanonicalJson(back), canon);

    // The recovery interval joined the same way: two machines that
    // differ only in it have different keys.
    EXPECT_EQ(plain.find("recovery_interval"), std::string::npos);
    SimOptions r;
    r.recovery_params.interval_insts = 500;
    EXPECT_NE(optionsFingerprintU64(r), optionsFingerprintU64(SimOptions{}));
    JsonValue interval;
    ASSERT_TRUE(parseJson(optionsCanonicalJson(r), interval));
    EXPECT_EQ(parseCanonicalOptions(interval).recovery_params.interval_insts,
              500u);
}

TEST(Settings, EveryKeyMovesTheFingerprintAndRoundTrips)
{
    // A legal value off the default for every row of the table; a row
    // added without one fails here.
    const std::map<std::string, std::string> offDefault = {
        {"mode", "srt"},           {"warmup_insts", "1234"},
        {"measure_insts", "5678"}, {"checker_penalty", "4"},
        {"ptsq", "1"},             {"store_comparison", "0"},
        {"psr", "0"},              {"frontend", "boq"},
        {"slack", "64"},           {"lvq_ecc", "0"},
        {"lpq_ecc", "1"},          {"boq_ecc", "1"},
        {"merge_ecc", "0"},        {"hang", "0"},
        {"storeq", "32"},          {"lvq", "32"},
        {"lpq", "16"},             {"rob", "96"},
        {"iq", "64"},              {"recovery", "1"},
        {"snapshot_every", "1500"}, {"physregs", "384"},
        {"dynlsq", "1"},           {"recovery_interval", "500"}};
    // settingsHelp() lists every row as key=form, in table order.
    std::vector<std::string> keys;
    std::istringstream help(settingsHelp());
    for (std::string item; help >> item;)
        keys.push_back(item.substr(0, item.find('=')));
    EXPECT_EQ(keys.size(), offDefault.size());
    EXPECT_EQ(keys.front(), "mode");
    EXPECT_EQ(keys.back(), "recovery_interval");
    const std::string cli = helpText(RMTSIM_CLI);
    const std::string batch = helpText(RMTSIM_BATCH);
    const SimOptions plain;
    for (const std::string &key : keys) {
        SCOPED_TRACE(key);
        const auto value = offDefault.find(key);
        ASSERT_NE(value, offDefault.end()) << "no off-default value";
        SimOptions o;
        applySetting(o, key, value->second);
        const std::string canon = optionsCanonicalJson(o);
        EXPECT_NE(canon, optionsCanonicalJson(plain));
        EXPECT_NE(optionsFingerprintU64(o), optionsFingerprintU64(plain));
        JsonValue parsed;
        ASSERT_TRUE(parseJson(canon, parsed));
        EXPECT_EQ(optionsCanonicalJson(parseCanonicalOptions(parsed)), canon);
        EXPECT_NE(cli.find(" " + key + "="), std::string::npos);
        EXPECT_NE(batch.find(" " + key + "="), std::string::npos);
        EXPECT_NE(canon.find("\"" + key + "\":"), std::string::npos);
    }
}

TEST(ServeCodec, U64MembersAreStrictUnsignedIntegers)
{
    const auto submit = [](const std::string &seed) {
        JsonValue v;
        EXPECT_TRUE(parseJson("{\"type\":\"submit\",\"seed\":" + seed +
                                  ",\"jobs\":[]}",
                              v));
        std::optional<SimOptions> efficiency;
        return parseSubmit(v, efficiency).seed;
    };
    EXPECT_EQ(submit("\"18446744073709551615\""), ~std::uint64_t{0});
    EXPECT_EQ(submit("\"0x10\""), 16u);
    EXPECT_EQ(submit("7"), 7u);
    for (const char *bad :
         {"\"-1\"", "\"12abc\"", "\"\"", "\" 1\"", "\"+1\"",
          "\"18446744073709551616\"", "-1", "1.5", "1e30"}) {
        EXPECT_THROW(submit(bad), std::invalid_argument) << bad;
    }

    // Options members go through applySetting: a number, a string
    // for a number, a non-scalar or an illegal size is refused.
    const auto options = [](const std::string &json) {
        JsonValue v;
        EXPECT_TRUE(parseJson(json, v)) << json;
        return parseCanonicalOptions(v);
    };
    EXPECT_EQ(options(withMember("rob", "96")).cpu.rob_entries, 96u);
    for (const char *bad :
         {"\"-1\"", "\"12abc\"", "\"\"", "\" 1\"", "\"+1\"",
          "\"18446744073709551616\"", "-1", "1.5", "1e30", "\"96\"", "0"}) {
        EXPECT_THROW(options(withMember("rob", bad)), std::invalid_argument)
            << bad;
    }
    // slack=0 is the default: a non-scalar must not pass as 0.
    for (const char *bad : {"[0]", "{}", "null", "false"}) {
        EXPECT_THROW(options(withMember("slack", bad)), std::invalid_argument)
            << bad;
    }
    SimOptions tiny;
    tiny.cpu.phys_regs = 8;
    EXPECT_THROW(options(optionsCanonicalJson(tiny)), std::invalid_argument);
}

TEST(ServeCodec, RejectsUnknownNames)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("{\"mode\":\"warp-drive\"}", v));
    EXPECT_THROW(parseCanonicalOptions(v), std::invalid_argument);
    JsonValue frontend;
    ASSERT_TRUE(parseJson(withMember("frontend", "\"warp\""), frontend));
    EXPECT_THROW(parseCanonicalOptions(frontend), std::invalid_argument);
    JsonValue extra;
    const std::string canon = optionsCanonicalJson(SimOptions{});
    ASSERT_TRUE(parseJson("{\"warp\":1," + canon.substr(1), extra));
    EXPECT_THROW(parseCanonicalOptions(extra), std::invalid_argument);

    ASSERT_TRUE(parseJson("{\"type\":\"submit\",\"jobs\":[{\"id\":0,"
                          "\"seed\":1,\"workloads\":[]}]}",
                          v));
    std::optional<SimOptions> efficiency;
    EXPECT_THROW(parseSubmit(v, efficiency), std::invalid_argument);
    // A fault kind is a known name, and a string.
    const auto submitFault = [&](const std::string &kind) {
        JsonValue msg;
        EXPECT_TRUE(parseJson(
            "{\"type\":\"submit\",\"seed\":1,\"jobs\":[{\"id\":0,\"seed\":1,"
            "\"workloads\":[\"gcc\"],\"options\":" + canon +
                ",\"faults\":[{\"kind\":" + kind + ",\"when\":9,\"core\":0,"
                "\"tid\":0,\"reg\":3,\"bit\":5,\"fu\":0,\"mask\":0,"
                "\"pair\":0}]}]}",
            msg));
        return parseSubmit(msg, efficiency);
    };
    EXPECT_EQ(submitFault("\"reg\"").jobs.at(0).faults.at(0).reg, 3u);
    for (const char *kind : {"\"warp\"", "7"})
        EXPECT_THROW(submitFault(kind), std::invalid_argument) << kind;
}

TEST(ServeFrames, StreamsMultipleFramesThenCleanEof)
{
    Pair p;
    ASSERT_TRUE(sendFrame(p.fds[0], tagControl, "{\"type\":\"one\"}"));
    ASSERT_TRUE(sendFrame(p.fds[0], tagRow, "{\"id\":0}"));
    p.closeA();

    FrameReader reader(p.fds[1]);
    std::string payload;
    ASSERT_TRUE(reader.next(payload));
    EXPECT_EQ(payload, std::string(1, tagControl) + "{\"type\":\"one\"}");
    ASSERT_TRUE(reader.next(payload));
    EXPECT_EQ(payload, std::string(1, tagRow) + "{\"id\":0}");
    EXPECT_FALSE(reader.next(payload));     // clean EOF
}

TEST(ServeFrames, GarbageStreamThrows)
{
    Pair p;
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(wire::writeAll(p.fds[0], junk, sizeof(junk) - 1));
    p.closeA();

    FrameReader reader(p.fds[1]);
    std::string payload;
    EXPECT_THROW(reader.next(payload), wire::WireError);
}

TEST(ServeFrames, OversizedLengthThrows)
{
    Pair p;
    std::string header;
    for (int i = 0; i < 4; ++i)
        header.push_back(static_cast<char>(wire::frameMagic >> (8 * i)));
    const std::uint32_t huge = wire::maxPayloadBytes + 1;
    for (int i = 0; i < 4; ++i)
        header.push_back(static_cast<char>(huge >> (8 * i)));
    ASSERT_TRUE(wire::writeAll(p.fds[0], header.data(), header.size()));

    FrameReader reader(p.fds[1]);
    std::string payload;
    EXPECT_THROW(reader.next(payload), wire::WireError);
}

TEST(ServeFrames, EofMidFrameThrows)
{
    Pair p;
    const std::string framed = wire::frame("half of this will arrive");
    ASSERT_TRUE(wire::writeAll(p.fds[0], framed.data(),
                               framed.size() / 2));
    p.closeA();

    FrameReader reader(p.fds[1]);
    std::string payload;
    EXPECT_THROW(reader.next(payload), wire::WireError);
}

namespace
{

void
onUsr1(int)
{
    // Nothing: existence without SA_RESTART makes read() return EINTR.
}

} // namespace

TEST(ServeFrames, ReadsSurviveSignalStorm)
{
    struct sigaction sa {};
    struct sigaction old {};
    sa.sa_handler = onUsr1;
    sa.sa_flags = 0;    // deliberately no SA_RESTART
    sigemptyset(&sa.sa_mask);
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    Pair p;
    std::string got;
    std::thread reader_thread([&] {
        FrameReader reader(p.fds[1]);
        std::string payload;
        if (reader.next(payload))
            got = payload;
    });

    // Let the reader block in read(), then pepper it with signals
    // while the frame trickles in one byte at a time.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::string framed = wire::frame(
        std::string(1, tagControl) + "{\"type\":\"status\"}");
    for (std::size_t i = 0; i < framed.size(); ++i) {
        pthread_kill(reader_thread.native_handle(), SIGUSR1);
        ASSERT_TRUE(wire::writeAll(p.fds[0], framed.data() + i, 1));
    }
    pthread_kill(reader_thread.native_handle(), SIGUSR1);
    p.closeA();
    reader_thread.join();

    EXPECT_EQ(got,
              std::string(1, tagControl) + "{\"type\":\"status\"}");
    sigaction(SIGUSR1, &old, nullptr);
}
