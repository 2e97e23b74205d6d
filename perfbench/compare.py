#!/usr/bin/env python3
"""Compare two sets of saved benchmark results (run.py --out files).

    python3 perfbench/compare.py --old base/*.json --new change/*.json

For every workload and end-to-end metric it prints each side's median and
quartiles and flags a metric whose new median is worse than the old one by
more than its bound in BENCHMARK.json.  The deterministic work counters of
runs with the same workload, seed and trace setting must match exactly,
except that the heap-allocation counters may fall.  Results measured
on different hosts (CPU model, nproc, compiler, build type, RMT_NATIVE,
RMT_LTO) are reported as such and never scored.  Exit code 1 means a
regression, a counter mismatch or a failed run; 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ('cpu', 'nproc', 'compiler', 'build_type', 'rmt_native',
             'rmt_lto')
MAY_FALL = ('cpu.allocs', 'cpu.alloc_bytes')


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def counter_changes(old, new):
    """Counters that differ, and whether any of them may not."""
    changes, bad = [], False
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a != b:
            changes.append('%s %s -> %s' % (name, a, b))
            allowed = name in MAY_FALL and a is not None and \
                b is not None and b < a
            bad = bad or not allowed
    return changes, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--old', nargs='+', required=True)
    ap.add_argument('--new', nargs='+', required=True)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, '..', 'BENCHMARK.json')) as f:
        metrics = json.load(f)['end_to_end']
    old, new = load(args.old), load(args.new)

    hosts = {tuple(r['host'][k] for k in HOST_KEYS) for r in old + new}
    if len(hosts) > 1:
        print('different hosts, not scored:')
        for i, key in enumerate(HOST_KEYS):
            seen = sorted({str(h[i]) for h in hosts})
            if len(seen) > 1:
                print('  %s: %s' % (key, ' | '.join(seen)))
        return 0

    bad = False
    for run in old + new:
        if not run['result']['correct']:
            print('failed run: %s seed %d' % (run['workload'], run['seed']))
            bad = True

    for workload in sorted({r['workload'] for r in old} &
                           {r['workload'] for r in new}):
        o = [r for r in old if r['workload'] == workload]
        n = [r for r in new if r['workload'] == workload]
        for ro in o:
            for rn in n:
                if (ro['seed'], ro['trace']) != (rn['seed'], rn['trace']):
                    continue
                changes, wrong = counter_changes(ro['counters'],
                                                 rn['counters'])
                if changes:
                    print('%s seed %d trace %d work counters: %s' % (
                        workload, ro['seed'], ro['trace'],
                        '; '.join(changes)))
                bad = bad or wrong
        o = [r for r in o if r['trace'] == 0]
        n = [r for r in n if r['trace'] == 0]
        if not o or not n:
            continue
        print('%s (%d old runs, %d new runs)' % (workload, len(o), len(n)))
        for m in metrics:
            name = m['name']
            ov = [r['result']['metrics'][name]['value'] for r in o]
            nv = [r['result']['metrics'][name]['value'] for r in n]
            oq, nq = quartiles(ov), quartiles(nv)
            change = (nq[1] - oq[1]) / oq[1]
            worse = change if m['better'] == 'lower' else -change
            verdict = 'REGRESSION' if worse > m['bound'] else 'ok'
            bad = bad or worse > m['bound']
            print('  %-14s old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  '
                  '%+.1f%% (bound %.0f%%) %s' % (
                      name, oq[1], oq[0], oq[2], nq[1], nq[0], nq[2],
                      100 * change, 100 * m['bound'], verdict))
    return 1 if bad else 0


if __name__ == '__main__':
    sys.exit(main())
