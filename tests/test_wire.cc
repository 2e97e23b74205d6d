/**
 * @file
 * Frame format and JobResult codec (src/runner/wire.*), shared by the
 * result store and the rmtsimd socket protocol:
 *
 *  - the JobResult codec round-trips every field through a frame, even
 *    delivered one byte at a time;
 *  - the decoder rejects bad magic, oversized payloads, truncation and
 *    garbage payloads (saturated element counts, out-of-range enum
 *    bytes) instead of yielding a short record or a huge allocation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "runner/wire.hh"

using namespace rmt;

namespace
{

/** A JobResult with every serialised field away from its default. */
JobResult
fullResult()
{
    JobResult r;
    r.id = 77;
    r.label = "wire \"quoted\" label";
    r.status = JobStatus::Ok;
    r.error = "non-fatal note";
    r.attempts = 2;
    r.wall_seconds = 1.25;
    r.run.total_cycles = 123456;
    r.run.completed = true;
    r.run.outcome = Outcome::Completed;
    r.run.detections = 3;
    r.run.recoveries = 1;
    r.run.store_comparisons = 999;
    r.run.store_mismatches = 2;
    r.run.branch_mispredicts = 41;
    r.run.host.build_seconds = 0.5;
    r.run.host.restore_seconds = 0.25;
    r.run.host.oracle_seconds = 0.125;
    r.run.stats_json = "{\"stats\":{\"x\":1}}";
    r.mean_efficiency = 0.875;
    r.efficiencies = {0.9, 0.85};
    r.extra = {{"snapshot_hit", 1.0}, {"snapshot_cycles_saved", 4242.0}};
    r.has_verdict = true;
    r.verdict = FaultVerdict::Detected;
    r.detection_latency = 17.5;
    return r;
}

void
expectSameResult(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(a.run.total_cycles, b.run.total_cycles);
    EXPECT_EQ(a.run.completed, b.run.completed);
    EXPECT_EQ(a.run.outcome, b.run.outcome);
    EXPECT_EQ(a.run.detections, b.run.detections);
    EXPECT_EQ(a.run.recoveries, b.run.recoveries);
    EXPECT_EQ(a.run.store_comparisons, b.run.store_comparisons);
    EXPECT_EQ(a.run.store_mismatches, b.run.store_mismatches);
    EXPECT_EQ(a.run.branch_mispredicts, b.run.branch_mispredicts);
    EXPECT_EQ(a.run.host.json(), b.run.host.json());
    EXPECT_EQ(a.run.stats_json, b.run.stats_json);
    EXPECT_DOUBLE_EQ(a.mean_efficiency, b.mean_efficiency);
    EXPECT_EQ(a.efficiencies, b.efficiencies);
    EXPECT_EQ(a.extra, b.extra);
    EXPECT_EQ(a.has_verdict, b.has_verdict);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_DOUBLE_EQ(a.detection_latency, b.detection_latency);
}

} // namespace

TEST(Wire, JobResultRoundTripsThroughAFrame)
{
    const JobResult original = fullResult();
    const std::string framed = wire::frame(wire::encodeJobResult(original));

    // Feed the frame one byte at a time: the decoder must not care how
    // the pipe chunks its reads.
    wire::FrameDecoder decoder;
    std::string payload;
    unsigned records = 0;
    for (char byte : framed) {
        decoder.feed(&byte, 1);
        std::string p;
        while (decoder.next(p)) {
            payload = p;
            ++records;
        }
    }
    ASSERT_EQ(records, 1u);
    EXPECT_FALSE(decoder.truncated());
    expectSameResult(original, wire::decodeJobResult(payload));
}

TEST(Wire, DecoderYieldsMultipleFramesFromOneBuffer)
{
    JobResult a = fullResult();
    JobResult b = fullResult();
    b.id = 78;
    b.status = JobStatus::Failed;
    b.error = "second";
    const std::string stream = wire::frame(wire::encodeJobResult(a)) +
                               wire::frame(wire::encodeJobResult(b));

    wire::FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    std::string p;
    std::vector<JobResult> out;
    while (decoder.next(p))
        out.push_back(wire::decodeJobResult(p));
    ASSERT_EQ(out.size(), 2u);
    expectSameResult(a, out[0]);
    expectSameResult(b, out[1]);
    EXPECT_FALSE(decoder.truncated());
}

TEST(Wire, DecoderRejectsCorruptStreams)
{
    // Wrong magic: provably corrupt at the first header.
    {
        wire::FrameDecoder decoder;
        const std::string junk = "JUNKJUNKJUNK";
        std::string p;
        EXPECT_THROW(
            {
                decoder.feed(junk.data(), junk.size());
                decoder.next(p);
            },
            wire::WireError);
    }

    // A length above the payload cap: rejected before buffering it.
    {
        wire::FrameDecoder decoder;
        std::string header("RMTW", 4);
        const std::uint32_t huge = wire::maxPayloadBytes + 1;
        header.append(reinterpret_cast<const char *>(&huge), 4);
        std::string p;
        EXPECT_THROW(
            {
                decoder.feed(header.data(), header.size());
                decoder.next(p);
            },
            wire::WireError);
    }

    // A frame cut mid-payload: no record, flagged as truncated.
    {
        const std::string framed =
            wire::frame(wire::encodeJobResult(fullResult()));
        wire::FrameDecoder decoder;
        decoder.feed(framed.data(), framed.size() - 5);
        std::string p;
        EXPECT_FALSE(decoder.next(p));
        EXPECT_TRUE(decoder.truncated());
    }
}

TEST(Wire, DecodeRejectsTruncatedAndGarbagePayloads)
{
    const std::string payload = wire::encodeJobResult(fullResult());
    EXPECT_THROW(wire::decodeJobResult(""), wire::WireError);
    EXPECT_THROW(wire::decodeJobResult(payload.substr(0, 3)),
                 wire::WireError);
    EXPECT_THROW(
        wire::decodeJobResult(payload.substr(0, payload.size() - 1)),
        wire::WireError);

    // A bumped codec version must be rejected, not misparsed.
    std::string bumped = payload;
    bumped[0] = static_cast<char>(wire::codecVersion + 1);
    EXPECT_THROW(wire::decodeJobResult(bumped), wire::WireError);

    // Locate a field as the first byte where two encodings differ.
    const auto offsetOf = [&](const std::function<void(JobResult &)> &f) {
        JobResult changed = fullResult();
        f(changed);
        const std::string other = wire::encodeJobResult(changed);
        std::size_t at = 0;
        while (at < payload.size() && payload[at] == other[at])
            ++at;
        return at;
    };

    // A saturated element count must fail on the bytes left, before
    // any allocation sized by it.
    const std::size_t counts[] = {
        offsetOf([](JobResult &r) { r.run.threads.resize(1); }),
        offsetOf([](JobResult &r) { r.efficiencies.pop_back(); }),
        offsetOf([](JobResult &r) { r.extra.pop_back(); }),
    };
    for (const std::size_t at : counts) {
        std::string saturated = payload;
        saturated.replace(at, 4, 4, '\xff');
        EXPECT_THROW(wire::decodeJobResult(saturated), wire::WireError)
            << "count at byte " << at;
    }

    // Enum bytes past the last enumerator are corruption too.
    const std::size_t enums[] = {
        offsetOf([](JobResult &r) { r.status = JobStatus::Failed; }),
        offsetOf([](JobResult &r) { r.run.outcome = Outcome::Hang; }),
        offsetOf([](JobResult &r) { r.verdict = FaultVerdict::Sdc; }),
    };
    for (const std::size_t at : enums) {
        std::string bad = payload;
        bad[at] = static_cast<char>(0x7f);
        EXPECT_THROW(wire::decodeJobResult(bad), wire::WireError)
            << "enum at byte " << at;
    }
}
