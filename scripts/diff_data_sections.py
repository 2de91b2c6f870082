#!/usr/bin/env python3
"""Byte-compare the deterministic `data` sections of two results files.

The campaign results pretty-printer has a fixed layout, so the raw text
between the `"data":` key and the trailing `"run":` key is exactly the
deterministic portion of `results/<figure>.json`. All CI byte-compare
jobs (trace replay vs live, step engine vs event engine, technique
subset vs full set) share this one parser so the slicing rule cannot
drift between them.

Usage: diff_data_sections.py [--common] A.json B.json [label]

Default mode compares the raw data-section text byte-for-byte. With
`--common`, both data sections are parsed as JSON and only their
*common-key projection* is compared: object keys present in both
documents must carry byte-identical values, extra keys (e.g. the columns
an extra `--techniques` selection adds) are reported and ignored. That
is the "matching data rows" check for default-set vs full-set runs.

Exits 1 when the compared content differs, and 2 (after printing the
usage) when the invocation is bad, for instance a file argument missing.
"""

import argparse
import json
import sys


def data_section(path: str) -> str:
    text = open(path).read()
    start = text.index('"data":')
    end = text.rindex('"run":')
    return text[start:end]


def data_json(path: str):
    return json.load(open(path))["data"]


def project_common(a, b, dropped, prefix):
    """The part of `a` whose keys/positions also exist in `b`."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = {}
        for k, v in a.items():
            if k in b:
                out[k] = project_common(v, b[k], dropped, f"{prefix}.{k}")
            else:
                dropped.append(f"{prefix}.{k}")
        return out
    if isinstance(a, list) and isinstance(b, list):
        n = min(len(a), len(b))
        if len(a) != n:
            dropped.append(f"{prefix}[{n}:{len(a)}]")
        return [
            project_common(x, y, dropped, f"{prefix}[{i}]")
            for i, (x, y) in enumerate(zip(a, b))
        ]
    return a


def dumps(v) -> str:
    # Insertion order is the documents' own deterministic order; float
    # repr round-trips exact f64 values, so equal text == equal bits.
    return json.dumps(v, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--common",
        action="store_true",
        help="compare only the keys both data sections carry (parsed as JSON)",
    )
    ap.add_argument("a", help="first results file")
    ap.add_argument("b", help="second results file")
    ap.add_argument("label", nargs="?", help="name of the comparison in the report")
    args = ap.parse_args()
    a, b, common = args.a, args.b, args.common
    label = args.label or f"{a} vs {b}"

    if common:
        da, db = data_json(a), data_json(b)
        dropped_a, dropped_b = [], []
        pa = dumps(project_common(da, db, dropped_a, "data"))
        pb = dumps(project_common(db, da, dropped_b, "data"))
        for side, dropped in ((a, dropped_a), (b, dropped_b)):
            if dropped:
                head = ", ".join(dropped[:4]) + ("..." if len(dropped) > 4 else "")
                print(f"note: {len(dropped)} key(s) only in {side}, ignored: {head}")
        if pa != pb:
            print(f"common data rows differ: {label}", file=sys.stderr)
            return 1
        print(f"common data rows byte-identical ({len(pa)} bytes compared): {label}")
        return 0

    sa, sb = data_section(a), data_section(b)
    if sa != sb:
        print(f"data sections differ: {label}", file=sys.stderr)
        return 1
    print(f"data sections byte-identical ({len(sa)} bytes): {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
