#!/bin/sh
# Tier-1 gate plus the sanitizer passes, in one command:
#
#   tools/check.sh            # build + full ctest, then TSan, ASan and
#                             # UBSan on the `sanitize`-labelled tests,
#                             # the campaign gates and the paper's
#                             # figures with their shape claims (the
#                             # fault-coverage ones included)
#   tools/check.sh --fast     # tier-1 only (skip sanitizers + smokes)
#
# Every gate is deterministic work or output, never host wall clock, so
# a run passes or fails the same way on any host.  Simulated timing and
# heap allocations per committed instruction are pinned in tier-1
# (test_core_pins, test_steady_state_alloc); host speed is measured by
# perfbench/run.py, not gated here.
#
# Uses build/ for the normal tree and build-{tsan,asan,ubsan}/ for the
# instrumented ones so the configurations never fight over a cache.
set -e

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

echo "== tier-1: ctest =="
ctest --test-dir build -j "$jobs" --output-on-failure

if [ "$1" = "--fast" ]; then
    echo "check.sh: tier-1 OK (sanitizer passes and smokes skipped)"
    exit 0
fi

echo "== sanitize: thread-sanitizer build =="
cmake -B build-tsan -S . -DRMT_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"

echo "== sanitize: ctest -L sanitize (TSan) =="
ctest --test-dir build-tsan -j "$jobs" -L sanitize --output-on-failure

echo "== sanitize: address-sanitizer build =="
cmake -B build-asan -S . -DRMT_SANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs"

echo "== sanitize: ctest -L sanitize (ASan, pool allocator) =="
ctest --test-dir build-asan -j "$jobs" -L sanitize --output-on-failure

echo "== sanitize: undefined-behavior-sanitizer build =="
cmake -B build-ubsan -S . -DRMT_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$jobs"

echo "== sanitize: ctest -L sanitize (UBSan) =="
ctest --test-dir build-ubsan -j "$jobs" -L sanitize --output-on-failure

echo "== ckpt: snapshot round-trip determinism gate =="
cmake --build build -j "$jobs" --target rmtsim_cli rmtsim_batch >/dev/null
ckpt_args="--mode srt --workloads gcc --warmup 2000 --insts 8000
           --snapshot-every 1500"
./build/tools/rmtsim $ckpt_args --stats-json build/ckpt_straight.json \
    > build/ckpt_straight.txt
./build/tools/rmtsim $ckpt_args --save-snapshot build/ckpt.bin \
    > build/ckpt_save.txt
./build/tools/rmtsim $ckpt_args --restore-snapshot build/ckpt.bin \
    --stats-json build/ckpt_restore.json > build/ckpt_restore.txt
diff build/ckpt_straight.txt build/ckpt_save.txt
diff build/ckpt_straight.txt build/ckpt_restore.txt
# The exported stats document (counters, groups, and the commit-slot
# attribution) must survive restore byte-for-byte, host timing aside.
sed 's/,"host":{[^}]*}//' build/ckpt_straight.json \
    > build/ckpt_straight_nohost.json
sed 's/,"host":{[^}]*}//' build/ckpt_restore.json \
    > build/ckpt_restore_nohost.json
diff build/ckpt_straight_nohost.json build/ckpt_restore_nohost.json

echo "== ckpt: snapshot-forked fault campaign work counters =="
# Snapshots refuse recovery, so the forked campaign runs without it
# (unlike the faults_sphere figure).  That forked records equal
# from-scratch ones outside the snapshot bookkeeping ("extra"), and how
# many trials restore, rejoin their reference run and how many tail
# cycles they simulate, are tier-1 tests
# (Checkpoint.ForkedVerdictsMatchFromScratch,
# Checkpoint.RejoinedTrialsMatchFromScratch and
# Checkpoint.ForkedCampaignWorkIsPinned).  Work counters here: the
# campaign runs exactly one fault-free reference run per point (gcc,
# compress), which also produces the snapshots, and exactly 12 of its
# 16 trials rejoin their reference run at a barrier and stop there; a
# trial whose strike hits a register its program never reads rejoins at
# the barrier it starts from, so it simulates nothing (its rejoin_cycle
# equals its snapshot_cycle).  rmtsim_report --snapshots reads the same
# rows: 8 of the 16 trials restore, and 79140 of their 93074 cycles are
# never simulated (restored prefixes plus tails skipped after a
# rejoin); the 4 detected trials count their cycles up to their first
# detection, where they stop.
ckpt_batch="--modes srt --workloads gcc,compress --fault-trials 8
            --warmup 500 --insts 5000 --snapshot-every 1500
            --no-timing"
./build/tools/rmtsim_batch $ckpt_batch --out build/ckpt_forked.jsonl \
    2> build/ckpt_forked.log
# Image size, a host-independent work counter: stored state is sparse
# (nonzero touched pages, valid cache lines, valid line-predictor
# entries, counters off their reset value, nonzero indirect targets),
# so gcc's images read about 83 KB.  Either dense line or branch
# predictor table coming back (the line predictor alone is 280 KB)
# pushes them past the bound.
max_image=$(grep -o '"snapshot_bytes":[0-9]*' build/ckpt_forked.jsonl \
    | cut -d: -f2 | sort -n | tail -n 1)
echo "ckpt: largest snapshot image ${max_image} bytes (bound 150000)"
# Two tests, not one && list: set -e ignores a failure left of &&, so
# a campaign that restored nothing (no snapshot_bytes) would pass.
[ -n "$max_image" ]
[ "$max_image" -lt 150000 ]
grep -q '(2 fault-free reference runs)' build/ckpt_forked.log
grep -q '(12 trials rejoined their reference run)' build/ckpt_forked.log
grep -Eq '"snapshot_cycle":([0-9]+),.*"rejoin_cycle":\1[,}]' \
    build/ckpt_forked.jsonl
./build/tools/rmtsim_report --snapshots build/ckpt_forked.jsonl \
    > build/ckpt_report.txt
cat build/ckpt_report.txt
grep -Eq '^16 +8 +50% +12 ' build/ckpt_report.txt
grep -q '^79140 of 93074 cycles not simulated ' build/ckpt_report.txt

echo "== settings: one vocabulary across rmtsim and rmtsim_batch =="
# rmtsim --set and rmtsim_batch --sweep take the same keys, so the same
# setting on the same point must simulate the same machine (and one
# that differs from the default), and an illegal machine size must be a
# usage error in both tools, refused before anything panics.
set_point="--workloads compress --warmup 500 --insts 4000"
cycles_of() { sed -n 's/^total cycles \([0-9]*\),.*/\1/p'; }
cli_default=$(./build/tools/rmtsim --mode srt $set_point | cycles_of)
cli_nosc=$(./build/tools/rmtsim --mode srt $set_point \
    --set store_comparison=0 | cycles_of)
batch_nosc=$(./build/tools/rmtsim_batch --modes srt $set_point \
    --sweep store_comparison=0 --no-timing --quiet --out - \
    | grep -o '"total_cycles":[0-9]*' | cut -d: -f2)
echo "settings: store_comparison=0 ${cli_nosc} cycles (rmtsim), \
${batch_nosc} (rmtsim_batch), default ${cli_default}"
[ -n "$cli_nosc" ]
[ "$cli_nosc" = "$batch_nosc" ]
[ "$cli_nosc" != "$cli_default" ]
# A setting given by its flag or swept is the same machine, and trials
# under swept snapshot barriers restore and rejoin as under the flag.
snap_point="--modes srt --workloads gcc --fault-trials 4 --warmup 500
            --insts 4000 --no-timing --quiet --out -"
./build/tools/rmtsim_batch $snap_point --snapshot-every 1500 \
    > build/settings_flag.jsonl
./build/tools/rmtsim_batch $snap_point --sweep snapshot_every=1500 \
    | sed 's/ snapshot_every=1500//' > build/settings_sweep.jsonl
diff build/settings_flag.jsonl build/settings_sweep.jsonl
grep -q '"snapshot_hit":1' build/settings_sweep.jsonl
for tool in "rmtsim --set" "rmtsim_batch --out - --sweep"; do
    rc=0
    ./build/tools/$tool physregs=8 > /dev/null 2> build/settings_bad.err \
        || rc=$?
    [ "$rc" -eq 2 ]
    if grep -q panic build/settings_bad.err; then
        echo "check.sh: $tool physregs=8 panicked" >&2
        exit 1
    fi
done

echo "== attribution: conservation gate (all modes, gcc+compress) =="
# Every record's commit-slot buckets must sum to cycles * commit_width;
# rmtsim_report --attribution verifies the invariant on each record and
# exits nonzero on any violation.  The ctest label re-runs the unit
# suite (conservation per core, -j invariance, pipetrace validity).
ctest --test-dir build -j "$jobs" -L attribution --output-on-failure
attr_args="--modes base,base2,srt,lockstep,crt --workloads gcc,compress
           --warmup 500 --insts 4000 --embed-stats --no-timing --quiet"
./build/tools/rmtsim_batch $attr_args --out build/attr.jsonl
./build/tools/rmtsim_report --attribution build/attr.jsonl

echo "== resilience: kill mid-campaign, rerun, byte-identical =="
# A deterministic crash (the hidden --test-crash-trial hook) kills the
# whole batch process mid-campaign, past the store's 16-row fsync batch
# so synced rows survive.  Rerunning the same command must serve them
# from <out>.store (stderr reports a nonzero resumed count), produce a
# .jsonl byte-identical to an uninterrupted control, and remove the
# store after the clean finish.  The same holds for a stratified
# campaign, whose trials the hook also reaches.
resume_gate() {
    name=$1; shift
    ./build/tools/rmtsim_batch "$@" --quiet \
        --out "build/res_${name}_control.jsonl"
    rc=0
    ./build/tools/rmtsim_batch "$@" --quiet --test-crash-trial 20 \
        --out "build/res_${name}.jsonl" || rc=$?
    [ "$rc" -ne 0 ]                             # the batch really died
    [ -f "build/res_${name}.jsonl.store/store.rmtrs" ]  # rows kept
    ./build/tools/rmtsim_batch "$@" --out "build/res_${name}.jsonl" \
        2> "build/res_${name}.err"
    grep -Eq '\(([1-9][0-9]*) resumed from ' "build/res_${name}.err"
    diff "build/res_${name}_control.jsonl" "build/res_${name}.jsonl"
    [ ! -e "build/res_${name}.jsonl.store" ]   # removed on completion
}
resume_gate fault --modes srt,crt --workloads gcc,compress \
    --fault-trials 8 --warmup 500 --insts 4000 --snapshot-every 1500 \
    --no-timing -j 1
resume_gate avf --modes srt --workloads gcc,compress --stratify \
    --kinds reg,pc --windows 2 --batch 3 --fault-trials 6 \
    --warmup 500 --insts 4000 --no-timing -j 1
# A grid with the same point twice still emits one row per job.
./build/tools/rmtsim_batch --modes srt --workloads gcc,compress \
    --sweep slack=32,32 --warmup 500 --insts 4000 --no-timing --quiet \
    --out build/res_dup.jsonl
[ "$(grep -c '"slack":32' build/res_dup.jsonl)" -eq 4 ]
# A fault campaign whose reference run cannot be made (snapshots refuse
# recovery) is one error, exit 2, and it leaves no <out>.store: a rerun
# fails the same way, so there is nothing to resume.
rm -rf build/res_golden.jsonl build/res_golden.jsonl.store
rc=0
./build/tools/rmtsim_batch --modes srt --workloads gcc --warmup 500 \
    --insts 3000 --sweep recovery=1 --snapshot-every 1500 --fault-trials 2 \
    --no-timing --out build/res_golden.jsonl 2> build/res_golden.err || rc=$?
[ "$rc" -eq 2 ]
grep -q 'golden run failed:' build/res_golden.err
[ ! -e build/res_golden.jsonl.store ]

echo "== determinism: fault and stratified campaigns, -j 1 vs -j 4 =="
# Trials run on the thread pool; worker count and completion order must
# not leak into the records.  The stratified stream must end with the
# per-stratum avf_summary record.
fault_args="--modes srt,crt --workloads gcc,compress --fault-trials 8
            --warmup 500 --insts 4000 --snapshot-every 1500
            --no-timing --quiet"
./build/tools/rmtsim_batch $fault_args -j 1 --out build/fault_j1.jsonl
./build/tools/rmtsim_batch $fault_args -j 4 --out build/fault_j4.jsonl
diff build/fault_j1.jsonl build/fault_j4.jsonl
avf_args="--modes srt --workloads gcc,compress --stratify
          --kinds reg,pc --windows 2 --batch 2 --fault-trials 2
          --warmup 500 --insts 4000 --no-timing --quiet"
./build/tools/rmtsim_batch $avf_args -j 1 --out build/avf_j1.jsonl
./build/tools/rmtsim_batch $avf_args -j 4 --out build/avf_j4.jsonl
diff build/avf_j1.jsonl build/avf_j4.jsonl
grep -q '"avf_summary"' build/avf_j1.jsonl
# Trials of points without barriers start from their point's reference
# run too: perfbench's fault-campaign draws at seed 1 finish 69 trials
# whose strikes hit only registers their program never reads without
# simulating them, as under barriers, and their rows carry no "extra".
flat_args="--modes srt,crt --workloads gcc,swim,compress --fault-trials 16
           --warmup 1000 --insts 8000 --no-timing"
./build/tools/rmtsim_batch $flat_args -j 1 --out build/flat_j1.jsonl \
    2> build/flat_j1.err
./build/tools/rmtsim_batch $flat_args -j 4 --quiet --out build/flat_j4.jsonl
diff build/flat_j1.jsonl build/flat_j4.jsonl
grep -q '(69 trials rejoined their reference run)' build/flat_j1.err
if grep -q '"extra"' build/flat_j1.jsonl; then
    echo "check.sh: a barrier-less trial row carries an extra block" >&2
    exit 1
fi
# Without recovery a detected trial ends with the cycle of its first
# detection: on perfbench's fault-campaign arguments, with and without
# barriers, every detected row reads detected_unrecoverable and ends at
# faults[0].when + detection_latency, at -j 1 as at -j 4.
stops_at_detection() {
    grep '"verdict":"detected"' "$1" > build/detected_rows.txt
    [ -s build/detected_rows.txt ]
    # when, outcome, total_cycles, detection_latency
    row='.*"faults":\[{"kind":"[a-z]*","when":\([0-9]*\),'
    row=$row'.*"outcome":"\([a-z_]*\)","total_cycles":\([0-9]*\),'
    row=$row'.*"detection_latency":\([0-9]*\).*'
    sed "s/$row/\1 \2 \3 \4/" build/detected_rows.txt | awk '
        $2 != "detected_unrecoverable" || $3 != $1 + $4 {
            print "check.sh: detected row runs past its detection: " $0 \
                > "/dev/stderr"
            bad = 1
        }
        END { exit bad }'
}
./build/tools/rmtsim_batch $flat_args --snapshot-every 2000 -j 1 --quiet \
    --out build/bar_j1.jsonl
./build/tools/rmtsim_batch $flat_args --snapshot-every 2000 -j 4 --quiet \
    --out build/bar_j4.jsonl
diff build/bar_j1.jsonl build/bar_j4.jsonl
stops_at_detection build/flat_j1.jsonl
stops_at_detection build/bar_j1.jsonl

echo "== paper: every figure as one campaign, shape claims gated =="
# The paper's figures, ablations and fault-coverage experiments run as
# one store-backed campaign; rmtsim_report --figure prints their tables
# and exits 1 when any claim EXPERIMENTS.md records reads FAIL, zero
# sdc and no run out through the instruction cap for each of the ten
# fault kinds at 4 trials per kind included.  A rerun against the same
# store must be all hits, and a bad numeric flag must be a usage error
# that leaves no <out>.store behind.
rm -rf build/paper_store build/paper_bad.jsonl build/paper_bad.jsonl.store
paper_jobs=$(./build/tools/rmtsim_batch --figure all --list | tail -n 1 \
    | cut -d' ' -f1)
t0=$(date +%s%N)
./build/tools/rmtsim_batch --figure all -j "$jobs" --store build/paper_store \
    --quiet --out build/paper.jsonl
t1=$(date +%s%N)
echo "paper: $paper_jobs jobs in $(( (t1 - t0) / 1000000 )) ms at -j $jobs"
./build/tools/rmtsim_report --figure all build/paper.jsonl
./build/tools/rmtsim_batch --figure all -j "$jobs" --store build/paper_store \
    --out build/paper.jsonl 2> build/paper_rerun.err
grep -q "($paper_jobs resumed from build/paper_store)" build/paper_rerun.err
# The whole-sphere kind matrix, from the same store (all hits).
./build/tools/rmtsim_batch --figure faults_sphere --store build/paper_store \
    --quiet --out - | ./build/tools/rmtsim_report --coverage -
rc=0
./build/tools/rmtsim_batch --figure fig6 -j -1 --out build/paper_bad.jsonl \
    2> build/paper_bad.err || rc=$?
[ "$rc" -eq 2 ]
grep -q "bad value for -j: '-1'" build/paper_bad.err
[ ! -e build/paper_bad.jsonl.store ]
rc=0
./build/tools/rmtsim_batch --modes srt --stratify --confidence 1.5 \
    --out build/paper_bad.jsonl 2> build/paper_bad.err || rc=$?
[ "$rc" -eq 2 ]
grep -q "bad value for --confidence: '1.5'" build/paper_bad.err
[ ! -e build/paper_bad.jsonl.store ]
rc=0
./build/tools/rmtsim_batch --figure fig6 --modes srt --out - \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]
# A usage error is one line on stderr: nothing lands in the row stream.
rc=0
./build/tools/rmtsim_batch --bogus --out - > build/usage_out.txt \
    2> build/usage_err.txt || rc=$?
[ "$rc" -eq 2 ]
[ ! -s build/usage_out.txt ]
[ "$(wc -l < build/usage_err.txt)" -eq 1 ]
# The budget is --warmup and --insts: there is no runner-level cap.
rc=0
./build/tools/rmtsim_batch --max-insts 1 --out - > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]
# A victim register bound past the 64-entry register file is refused.
rc=0
./build/tools/rmtsim_batch --modes srt --workloads gcc --fault-trials 10 \
    --max-reg 70 --out build/paper_bad.jsonl 2> build/paper_bad.err || rc=$?
[ "$rc" -eq 2 ]
grep -q 'max_reg 70 is outside \[2, 64\]' build/paper_bad.err
[ ! -e build/paper_bad.jsonl.store ]

echo "== serve: daemon resubmission is byte-identical and simulates nothing =="
# Start rmtsimd on a fresh store, run the same client campaign twice:
# the cold pass simulates every job, the warm pass must be all store
# hits — byte-identical output, and a summary that counts every job as
# resumed from the daemon, so it simulated none — and snapshot fault,
# stratified, efficiency and failing-job campaigns must match their
# local runs, and a submit over the daemon's --max-insts is refused;
# then the daemon must drain cleanly on SIGTERM (socket + pid file
# gone).
cmake --build build -j "$jobs" --target rmtsimd >/dev/null
rm -rf build/serve_gate
mkdir -p build/serve_gate
./build/tools/rmtsimd --socket build/serve_gate/d.sock \
    --store build/serve_gate/store --pid-file build/serve_gate/d.pid \
    --max-insts 4500 -j "$jobs" &
for _ in $(seq 50); do
    [ -S build/serve_gate/d.sock ] && break
    sleep 0.1
done
serve_args="--modes base,srt,crt --workloads gcc,compress --warmup 500
            --insts 4000 --no-timing --server build/serve_gate/d.sock"
./build/tools/rmtsim_batch $serve_args --quiet \
    --out build/serve_gate/cold.jsonl
./build/tools/rmtsim_batch $serve_args --out build/serve_gate/warm.jsonl \
    2> build/serve_gate/warm.err
diff build/serve_gate/cold.jsonl build/serve_gate/warm.jsonl
grep -Eq '^6 jobs, 0 failed \(6 resumed from rmtsimd' \
    build/serve_gate/warm.err
./build/tools/rmtsim_report --serve-summary build/serve_gate/d.sock \
    | grep -q 'hits'
# A snapshot-barrier fault campaign through the daemon restores its
# trials exactly as a local run does: the rows, snapshot "extra" block
# included, must match the local ones byte for byte.
snap_args="--modes srt,crt --workloads gcc,compress --fault-trials 4
           --warmup 500 --insts 4000 --snapshot-every 1500 --no-timing
           --quiet"
./build/tools/rmtsim_batch $snap_args --server build/serve_gate/d.sock \
    --out build/serve_gate/snap_server.jsonl
./build/tools/rmtsim_batch $snap_args --out build/serve_gate/snap_local.jsonl
diff build/serve_gate/snap_local.jsonl build/serve_gate/snap_server.jsonl
grep -q '"snapshot_hit":1' build/serve_gate/snap_server.jsonl
# A --server run goes through the same emit, sink, summary and exit-code
# path as a local one: a stratified campaign (ending in its avf_summary
# record), an --efficiency campaign and a failing-job campaign (exit 3 on
# both sides) must match their local runs byte for byte.
serve_same() {
    name=$1; want_rc=$2; shift 2
    rc=0
    ./build/tools/rmtsim_batch "$@" --quiet \
        --server build/serve_gate/d.sock \
        --out "build/serve_gate/${name}_server.jsonl" || rc=$?
    [ "$rc" -eq "$want_rc" ]
    rc=0
    ./build/tools/rmtsim_batch "$@" --quiet \
        --out "build/serve_gate/${name}_local.jsonl" || rc=$?
    [ "$rc" -eq "$want_rc" ]
    diff "build/serve_gate/${name}_local.jsonl" \
        "build/serve_gate/${name}_server.jsonl"
}
avf48_args="--modes srt --workloads gcc,compress --stratify --kinds reg,pc
            --windows 2 --batch 3 --fault-trials 6 --warmup 500
            --insts 4000 --no-timing"
serve_same avf 0 $avf48_args
tail -n 1 build/serve_gate/avf_server.jsonl | grep -q '"avf_summary"'
serve_same eff 0 --modes srt,crt --workloads gcc,compress --mix gcc+swim \
    --efficiency --warmup 500 --insts 4000 --no-timing
grep -q '"mean_efficiency"' build/serve_gate/eff_server.jsonl
serve_same fail 3 --modes srt --workloads gcc,nosuch --warmup 500 \
    --insts 4000 --no-timing
# The failed row is the failure record: the report's digest names the
# job and its error.
./build/tools/rmtsim_report --failures build/serve_gate/fail_server.jsonl \
    > build/serve_gate/fail_report.txt
grep -q '^1 of 2 jobs failed$' build/serve_gate/fail_report.txt
grep -Eq "^ +1  job 1: unknown workload 'nosuch'$" \
    build/serve_gate/fail_report.txt
grep -Eq '^ +1 +1  srt:nosuch$' build/serve_gate/fail_report.txt
# The daemon refuses a submit with a job over its --max-insts, naming
# it, and runs nothing (every campaign here runs at most 4500).
rc=0
./build/tools/rmtsim_batch --modes srt --workloads gcc --warmup 500 \
    --insts 4001 --no-timing --quiet --server build/serve_gate/d.sock \
    --out build/serve_gate/over.jsonl 2> build/serve_gate/over.err || rc=$?
[ "$rc" -eq 2 ]
grep -q 'rmtsimd: job 0 (srt:gcc): warmup+measure 500+4001 exceeds --max-insts 4500' \
    build/serve_gate/over.err
[ ! -s build/serve_gate/over.jsonl ]
# Snapshots with recovery are refused per job, not by exiting the
# process: locally and through the daemon the row fails naming the
# conflict (exit 3), and the daemon answers the next campaign.
serve_same conflict 3 --modes srt --workloads gcc --warmup 500 \
    --insts 3000 --sweep recovery=1 --snapshot-every 1500 --no-timing
grep -q '"error":"job 0: snapshots are incompatible with recovery"' \
    build/serve_gate/conflict_server.jsonl
# Rerunning the stratified campaign regenerates the same rounds, and the
# daemon's store serves every one of its 48 trials.
./build/tools/rmtsim_batch $avf48_args --server build/serve_gate/d.sock \
    --out build/serve_gate/avf_rerun.jsonl 2> build/serve_gate/avf_rerun.err
grep -Eq '^48 jobs, 0 failed \(48 resumed from rmtsimd' \
    build/serve_gate/avf_rerun.err
diff build/serve_gate/avf_server.jsonl build/serve_gate/avf_rerun.jsonl
kill -TERM "$(cat build/serve_gate/d.pid)"
wait
[ ! -e build/serve_gate/d.sock ]
[ ! -e build/serve_gate/d.pid ]

echo "check.sh: all checks OK"
