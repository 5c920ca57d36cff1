#!/usr/bin/env python3
"""Check a fresh bench JSON against its committed twin under data/bench/.

Usage: check_bench_digests.py COMMITTED FRESH

Rows are keyed by "name" and "params" (a row without params keys on its
name alone). Every committed row that has a "digest" must reappear in
FRESH under the same key with the same "digest", and the same
"slice_digest" when the committed row has one. A bench's own gate only
compares its shard counts with each other, so a change that moves every
digest alike passes it; this check does not. It also fails when COMMITTED
holds no digest rows, since such a check would compare nothing.

Exit status: 0 when every digest matches, 1 on any mismatch, 2 on bad
usage or an unreadable file. Standard library only.
"""

import json
import sys

FIELDS = ("digest", "slice_digest")


def digest_rows(path):
    with open(path) as f:
        rows = json.load(f)["rows"]
    return {(r["name"], r.get("params")): r for r in rows if "digest" in r}


def main(argv):
    if len(argv) != 3:
        print("usage: check_bench_digests.py COMMITTED FRESH", file=sys.stderr)
        return 2
    try:
        want = digest_rows(argv[1])
        got = digest_rows(argv[2])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"cannot read bench rows: {e}", file=sys.stderr)
        return 2
    if not want:
        print(f"{argv[1]}: no committed digest rows to check")
        return 1
    bad = 0
    for (name, params), w in want.items():
        label = name if params is None else f"{name} ({params})"
        for field in FIELDS:
            if field not in w:
                continue
            have = got.get((name, params), {}).get(field)
            ok = have == w[field]
            bad += not ok
            print(f"{label} {field}: committed {w[field]}, this run {have}: "
                  f"{'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
