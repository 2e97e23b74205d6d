#!/bin/sh
# Tier-1 gate plus the sanitizer and perf passes, in one command:
#
#   tools/check.sh            # build + full ctest, then TSan, ASan and
#                             # UBSan on the `sanitize`-labelled tests,
#                             # the perf smoke (KIPS regression gate),
#                             # and the whole-sphere fault smoke
#                             # (zero-SDC gate)
#   tools/check.sh --fast     # tier-1 only (skip sanitizers + smokes)
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
    echo "check.sh: tier-1 OK (sanitizer + perf passes skipped)"
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

echo "== perf: KIPS smoke vs BENCH_perf.json =="
if [ -f BENCH_perf.json ]; then
    cmake --build build -j "$jobs" --target bench_perf >/dev/null
    ./build/bench/bench_perf --baseline BENCH_perf.json --max-regress 10
else
    echo "check.sh: BENCH_perf.json missing; run tools/bench_perf.sh" >&2
    exit 1
fi

echo "== fault smoke: whole-sphere zero-SDC gate (SRT + recovery) =="
cmake --build build -j "$jobs" --target rmtsim_faultsmoke \
    rmtsim_report >/dev/null
./build/tools/rmtsim_faultsmoke --trials 2 --out build/fault_smoke.jsonl
./build/tools/rmtsim_report --coverage build/fault_smoke.jsonl

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

echo "== ckpt: snapshot-forked fault campaign vs from-scratch =="
# rmtsim_faultsmoke runs with recovery on, which snapshots refuse, so
# the forked smoke goes through rmtsim_batch.  Records must match the
# from-scratch control byte-for-byte once the snapshot bookkeeping
# ("extra") is stripped, and at least one trial must actually fork.
ckpt_batch="--modes srt --workloads gcc,compress --fault-trials 2
            --warmup 500 --insts 5000 --snapshot-every 1500
            --no-timing --quiet"
./build/tools/rmtsim_batch $ckpt_batch --out build/ckpt_forked.jsonl
./build/tools/rmtsim_batch $ckpt_batch --no-snapshot-fork \
    --out build/ckpt_scratch.jsonl
sed 's/,"extra":{[^}]*}//' build/ckpt_forked.jsonl \
    > build/ckpt_forked_stripped.jsonl
diff build/ckpt_forked_stripped.jsonl build/ckpt_scratch.jsonl
grep -q '"snapshot_hit":1' build/ckpt_forked.jsonl

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

echo "== resilience: kill mid-campaign, --resume, byte-identical =="
# A deterministic crash (the hidden --test-crash-trial hook) kills the
# whole batch process mid-campaign.  The write-ahead journal must carry
# every pre-crash record, the resumed run must produce a .jsonl
# byte-identical to an uninterrupted control, and the journal must be
# gone after the clean finish.
res_args="--modes base,srt --workloads gcc,compress --warmup 500
          --insts 4000 --no-timing --quiet"
./build/tools/rmtsim_batch $res_args --out build/res_control.jsonl
rc=0
./build/tools/rmtsim_batch $res_args --journal-sync 1 \
    --test-crash-trial 2 --out build/res_crash.jsonl || rc=$?
[ "$rc" -ne 0 ]                         # the batch really died
[ -f build/res_crash.jsonl.journal ]    # resumable state left behind
./build/tools/rmtsim_batch $res_args --resume --out build/res_crash.jsonl
diff build/res_control.jsonl build/res_crash.jsonl
[ ! -f build/res_crash.jsonl.journal ]  # journal removed on completion

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

echo "== serve: daemon resubmission is byte-identical and >=5x faster =="
# Start rmtsimd on a fresh store, run the same client campaign twice:
# the cold pass simulates every trial, the warm pass must be all store
# hits — byte-identical output, at least 5x faster wall clock — then
# the daemon must drain cleanly on SIGTERM (socket + pid file gone).
cmake --build build -j "$jobs" --target rmtsimd >/dev/null
rm -rf build/serve_gate
mkdir -p build/serve_gate
./build/tools/rmtsimd --socket build/serve_gate/d.sock \
    --store build/serve_gate/store --pid-file build/serve_gate/d.pid \
    -j "$jobs" &
for _ in $(seq 50); do
    [ -S build/serve_gate/d.sock ] && break
    sleep 0.1
done
serve_args="--modes base,srt,crt --workloads gcc,compress --warmup 500
            --insts 4000 --no-timing --quiet
            --server build/serve_gate/d.sock"
t0=$(date +%s%N)
./build/tools/rmtsim_batch $serve_args --out build/serve_gate/cold.jsonl
t1=$(date +%s%N)
./build/tools/rmtsim_batch $serve_args --out build/serve_gate/warm.jsonl
t2=$(date +%s%N)
diff build/serve_gate/cold.jsonl build/serve_gate/warm.jsonl
cold_ns=$((t1 - t0)); warm_ns=$((t2 - t1))
echo "serve gate: cold ${cold_ns}ns, warm ${warm_ns}ns"
[ $((warm_ns * 5)) -le "$cold_ns" ]
./build/tools/rmtsim_report --serve-summary build/serve_gate/d.sock \
    | grep -q 'hits'
kill -TERM "$(cat build/serve_gate/d.pid)"
wait
[ ! -e build/serve_gate/d.sock ]
[ ! -e build/serve_gate/d.pid ]

echo "check.sh: all checks OK"
