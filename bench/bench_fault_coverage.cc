/**
 * @file
 * Fault-coverage experiment (Sections 2.1, 4.5): deterministic fault
 * campaigns against the SRT machine, driven through the campaign
 * runner so the independent trials fan out over all host cores.
 *
 *  1. Transient register strikes: random (register, bit, cycle) flips
 *     in one redundant copy.  Outcomes: detected (store comparator /
 *     LVQ / control check), or benign (flip never reached an output —
 *     verified by comparing the final memory image against a golden
 *     run).  Silent data corruption would mean a detection miss.
 *  2. LVQ strikes with and without ECC.
 *  3. Permanent functional-unit faults with and without preferential
 *     space redundancy: without PSR both copies can use the broken
 *     unit, corrupt identically, compare equal, and silently corrupt
 *     memory — exactly the coverage hole PSR closes.
 *
 * Each trial is one JobSpec whose fault parameters are drawn at
 * campaign-build time, so the grid is identical however many workers
 * execute it; a FaultOracle chained onto post_run classifies the
 * outcome against the golden memory image while the trial's Simulation
 * is still alive, attributing detection latency to the pair the fault
 * actually landed in.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/random.hh"
#include "rmt/fault_oracle.hh"
#include "runner/runner.hh"

using namespace rmt;

namespace
{

SimOptions
campaignOptions()
{
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 0;
    o.measure_insts = 12000;
    return o;
}

struct Tally
{
    unsigned detected = 0;
    unsigned benign = 0;
    unsigned silent = 0;    ///< memory corrupted, nothing detected
    unsigned hung = 0;      ///< no forward progress / cap exceeded
    double latency_sum = 0; ///< fault activation -> first detection
    unsigned latency_n = 0; ///< trials with a valid latency
};

double
extraValue(const JobResult &r, const char *key)
{
    for (const auto &[k, v] : r.extra) {
        if (k == key)
            return v;
    }
    return 0;
}

Tally
tally(const std::vector<JobResult> &results)
{
    Tally out;
    for (const JobResult &r : results) {
        if (!r.ok())
            fatal("fault trial '%s' failed: %s", r.label.c_str(),
                  r.error.c_str());
        if (!r.has_verdict)
            fatal("fault trial '%s' has no verdict", r.label.c_str());
        switch (r.verdict) {
          case FaultVerdict::Detected:
            ++out.detected;
            if (r.detection_latency >= 0) {
                out.latency_sum += r.detection_latency;
                ++out.latency_n;
            }
            break;
          case FaultVerdict::Sdc:
            ++out.silent;
            break;
          case FaultVerdict::Hang:
            ++out.hung;
            break;
          case FaultVerdict::Masked:
            ++out.benign;
            break;
        }
    }
    return out;
}

Tally
transientRegCampaign(const std::string &workload, unsigned trials,
                     const FaultOracle &oracle, unsigned max_reg)
{
    CampaignBuilder builder("reg-strikes", 0xFA117 + max_reg);
    builder.base(campaignOptions())
        .workloads({workload})
        .transientRegTrials(trials, max_reg);
    Campaign campaign = builder.build();
    for (JobSpec &spec : campaign.jobs)
        attachFaultOracle(spec, &oracle);

    RunnerConfig cfg;
    cfg.jobs = 0;    // one worker per core
    return tally(runCampaign(campaign, cfg));
}

Tally
permanentFuCampaign(const std::string &workload, bool psr,
                    unsigned trials, const FaultOracle &oracle)
{
    // Same strike distribution as the original sequential campaign:
    // hit every integer/logic unit in turn (ids 0..15, 16..31).
    Campaign campaign;
    campaign.name = "fu-faults";
    Random rng(0xFE11);
    for (unsigned i = 0; i < trials; ++i) {
        JobSpec spec;
        spec.id = campaign.jobs.size();
        spec.label = std::string("fu:") + workload +
                     (psr ? " psr=1" : " psr=0") +
                     " trial=" + std::to_string(i);
        spec.workloads = {workload};
        spec.options = campaignOptions();
        spec.options.preferential_space_redundancy = psr;
        FaultRecord f;
        f.kind = FaultRecord::Kind::PermanentFu;
        f.when = 500;
        f.core = 0;
        f.fuIndex = static_cast<unsigned>(
            i % 2 ? 16 + rng.range(8) : rng.range(8));
        f.mask = std::uint64_t{1} << rng.range(16);
        spec.faults.push_back(f);
        attachFaultOracle(spec, &oracle);
        campaign.jobs.push_back(std::move(spec));
    }

    RunnerConfig cfg;
    cfg.jobs = 0;    // one worker per core
    return tally(runCampaign(campaign, cfg));
}

void
printOutcome(const char *label, const Tally &o)
{
    std::printf("%-38s detected %3u  benign %3u  SILENT %3u"
                "  hung %3u  mean latency %6.0f\n",
                label, o.detected, o.benign, o.silent, o.hung,
                o.latency_n ? o.latency_sum / o.latency_n : 0.0);
}

} // namespace

int
main()
{
    setInformEnabled(false);

    std::printf("Fault-coverage campaigns (SRT, 12k instructions)\n\n");

    // 1. Transient register strikes: across the full architectural
    //    file (AVF-style: most strikes land in dead state and are
    //    benign), then restricted to the kernel's live registers.
    for (const char *wl : {"compress", "gcc"}) {
        const FaultOracle oracle(
            FaultOracle::goldenImage({wl}, campaignOptions()));
        const Tally all = transientRegCampaign(wl, 40, oracle,
                                                 numArchRegs);
        printOutcome((std::string("reg strikes (all regs), ") + wl)
                         .c_str(),
                     all);
        const Tally live = transientRegCampaign(wl, 40, oracle, 14);
        printOutcome((std::string("reg strikes (live regs), ") + wl)
                         .c_str(),
                     live);
        if (all.silent + live.silent)
            std::printf("  WARNING: silent data corruption slipped "
                        "through output comparison!\n");
    }

    // 2. LVQ strikes with and without ECC: ten deterministic strike
    //    cycles per configuration, one job each.
    const FaultOracle lvq_oracle(
        FaultOracle::goldenImage({"gcc"}, campaignOptions()));
    for (bool ecc : {true, false}) {
        Campaign campaign;
        campaign.name = "lvq-strikes";
        for (unsigned i = 0; i < 10; ++i) {
            JobSpec spec;
            spec.id = campaign.jobs.size();
            spec.label = std::string("lvq:gcc ecc=") + (ecc ? "1" : "0") +
                         " trial=" + std::to_string(i);
            spec.workloads = {"gcc"};
            spec.options = campaignOptions();
            spec.options.lvq_ecc = ecc;
            FaultRecord f;
            f.kind = FaultRecord::Kind::TransientLvq;
            f.when = 1500 + 700 * i;
            f.core = 0;
            f.tid = 0;
            spec.faults.push_back(f);
            spec.post_run = [](Simulation &sim, const RunResult &,
                               JobResult &res) {
                res.extra.emplace_back(
                    "ecc_corrected",
                    static_cast<double>(sim.chip()
                                            .redundancy()
                                            .pair(0)
                                            .lvq.eccCorrections()));
            };
            attachFaultOracle(spec, &lvq_oracle);
            campaign.jobs.push_back(std::move(spec));
        }

        RunnerConfig cfg;
        cfg.jobs = 0;    // one worker per core
        const auto results = runCampaign(campaign, cfg);
        unsigned detected = 0, corrected = 0;
        for (const JobResult &r : results) {
            if (!r.ok())
                fatal("LVQ trial '%s' failed: %s", r.label.c_str(),
                      r.error.c_str());
            detected += r.has_verdict &&
                        r.verdict == FaultVerdict::Detected;
            corrected += static_cast<unsigned>(
                extraValue(r, "ecc_corrected"));
        }
        std::printf("%-38s detected %3u  ecc-corrected %3u\n",
                    ecc ? "LVQ strikes, ECC on (paper design)"
                        : "LVQ strikes, ECC off",
                    detected, corrected);
    }

    // 3. Permanent FU faults: the PSR coverage argument.
    std::printf("\n");
    const FaultOracle fu_oracle(
        FaultOracle::goldenImage({"applu"}, campaignOptions()));
    const Tally with_psr = permanentFuCampaign("applu", true, 20,
                                                 fu_oracle);
    const Tally no_psr = permanentFuCampaign("applu", false, 20,
                                               fu_oracle);
    printOutcome("permanent FU fault, PSR on", with_psr);
    printOutcome("permanent FU fault, PSR off", no_psr);
    std::printf("\npaper (Section 4.5): PSR makes corresponding "
                "instructions use distinct units, so a permanent fault "
                "corrupts only one copy and is detected; without PSR "
                "identical corruption can escape as silent data "
                "corruption.\n");
    return 0;
}
