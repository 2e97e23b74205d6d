#!/usr/bin/env python3
"""Run one rmtsim benchmark workload and print its result.

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  The first call configures and builds the
repository plus the rmtbench program into .bench_build/; later calls only
check that the build is up to date.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones (a layer the
workload does not exercise reads 0).  The last stdout line is the JSON
result; the lines before it are a readable summary with the host
fingerprint, the per-mode/per-pass breakdown, the deterministic work
counters and failed_frac.  --out FILE also saves the whole result, for
perfbench/compare.py.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = '.bench_build'
RUN_DIR = '.bench_run'
WORKLOADS = ('sim-sweep', 'fault-campaign', 'serve-resubmit')
# A run measures for --seconds, then finishes the repeat in flight and
# its checks (the -j 1 reference, the campaign without barriers) within
# MARGIN_S.  --seconds is capped so that a run always ends within three
# minutes.
MARGIN_S = 110
MAX_SECONDS = 60


def fail(msg):
    print('run.py: ' + msg, file=sys.stderr)
    sys.exit(1)


def build(jobs):
    """Configure once, then bring rmtbench and the tools up to date."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
        steps.append(['cmake', '-S', HERE, '-B', BUILD_DIR])
    steps.append(['cmake', '--build', BUILD_DIR, '-j', str(jobs),
                  '--target', 'rmtbench'])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail('build failed: ' + ' '.join(cmd))
    return os.path.join(BUILD_DIR, 'rmtbench')


def stop_group(proc):
    """Kill what is left of proc's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def cpu_model():
    try:
        with open('/proc/cpuinfo') as f:
            for line in f:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return 'unknown'


def git_commit():
    try:
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_hash():
    """Hash of the simulator's sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ('src', 'tools', 'CMakeLists.txt'):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode() + b'\0')
            with open(name, 'rb') as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint(build_info, jobs):
    return {
        'cpu': cpu_model(),
        'nproc': jobs,
        'compiler': build_info['compiler'],
        'build_type': build_info['build_type'],
        'rmt_native': build_info['native'],
        'rmt_lto': build_info['lto'],
        'commit': git_commit(),
        'source': source_hash(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--seconds', type=float, default=30)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--out', help='also save the full result here (JSON)')
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error('--seconds must be in (0, %d]' % MAX_SECONDS)
    out_path = os.path.abspath(args.out) if args.out else None
    os.chdir(ROOT)

    with open('BENCHMARK.json') as f:
        spec = json.load(f)
    wanted = spec['per_layer'] if args.trace else spec['end_to_end']

    binary = build(len(os.sched_getaffinity(0)))

    run_dir = os.path.join(RUN_DIR, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '--trace', str(args.trace),
           '--run-dir', run_dir]
    # rmtbench and the tools it spawns share a new process group, so a
    # timed-out or crashed run cannot leave a daemon behind.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + MARGIN_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    if stdout is None:
        fail('rmtbench timed out')
    if proc.returncode != 0:
        fail('rmtbench exited with code %d' % proc.returncode)
    out = json.loads(stdout.strip().splitlines()[-1])
    report = out['report']

    metrics = {}
    for m in wanted:
        value = report['metrics'].get(m['name'],
                                      report['breakdown'].get(m['name']))
        if value is None:
            if not args.trace:
                fail('workload did not measure ' + m['name'])
            value = 0.0     # layer not exercised by this workload
        metrics[m['name']] = {'value': value, 'unit': m['unit']}

    attempted, failed = report['attempted'], report['failed']
    result = {'correct': failed == 0, 'attempted': attempted,
              'failed': failed, 'metrics': metrics}
    host = host_fingerprint(out['build'], out['jobs'])

    print('rmtbench %s  seed=%d  seconds=%g  trace=%d  jobs=%d  repeats=%d'
          % (args.workload, args.seed, args.seconds, args.trace,
             out['jobs'], report['repeats']))
    print('host: ' + '  '.join('%s=%s' % kv for kv in host.items()))
    for m in wanted:
        print('  %-32s %16.6g %-8s (%s is better)' % (
            m['name'], metrics[m['name']]['value'], m['unit'],
            m['better']))
    for name, value in sorted(report['breakdown'].items()):
        if name not in metrics:
            print('  %-32s %16.6g' % (name, value))
    print('  %-32s %16.6g (%d of %d failed)' % (
        'failed_frac', failed / max(attempted, 1), failed, attempted))
    print('counters: ' + '  '.join(
        '%s=%d' % kv for kv in sorted(report['counters'].items())))
    for err in report['errors']:
        print('error: ' + err)

    if out_path:
        with open(out_path, 'w') as f:
            json.dump({'workload': args.workload, 'seed': args.seed,
                       'seconds': args.seconds, 'trace': args.trace,
                       'host': host, 'result': result,
                       'breakdown': report['breakdown'],
                       'counters': report['counters'],
                       'errors': report['errors']}, f, indent=1)
            f.write('\n')
    print(json.dumps(result))


if __name__ == '__main__':
    main()
