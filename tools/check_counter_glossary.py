#!/usr/bin/env python3
"""Check that the QueryMetrics counter list and its glossary agree.

Every `X(name, merge, ms_label)` entry of the `HD_QUERY_COUNTERS` list in
src/common/metrics.h must have a row in the "QueryMetrics counter
glossary" table of docs/OBSERVABILITY.md, and every row there must name
an entry. Exit status 0 when they agree, 1 otherwise (used by the CI docs
job).
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = os.path.join(ROOT, "src", "common", "metrics.h")
GLOSSARY = os.path.join(ROOT, "docs", "OBSERVABILITY.md")


def list_entries(text):
    lines = text.splitlines()
    starts = [i for i, l in enumerate(lines)
              if l.startswith("#define HD_QUERY_COUNTERS(X)")]
    if not starts:
        sys.exit("HD_QUERY_COUNTERS not found in " + HEADER)
    body = []
    i = starts[0]
    while lines[i].rstrip().endswith("\\"):
        i += 1
        body.append(lines[i])
    body = re.sub(r"/\*.*?\*/", "", "\n".join(body), flags=re.S)
    return re.findall(r"\bX\(\s*(\w+)\s*,", body)


def glossary_rows(text):
    m = re.search(r"^## QueryMetrics counter glossary$(.*?)^## ", text,
                  re.S | re.M)
    if m is None:
        sys.exit("counter glossary section not found in " + GLOSSARY)
    return re.findall(r"^\|\s*`(\w+)`\s*\|", m.group(1), re.M)


def main():
    with open(HEADER) as f:
        entries = list_entries(f.read())
    with open(GLOSSARY) as f:
        rows = glossary_rows(f.read())
    ok = True
    for name in entries:
        if name not in rows:
            print(f"{name}: in HD_QUERY_COUNTERS, no glossary row")
            ok = False
    for name in rows:
        if name not in entries:
            print(f"{name}: glossary row names no HD_QUERY_COUNTERS entry")
            ok = False
    for name in sorted({n for n in entries + rows
                        if entries.count(n) > 1 or rows.count(n) > 1}):
        print(f"{name}: listed more than once")
        ok = False
    print(f"{len(entries)} counters, {len(rows)} glossary rows:",
          "ok" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
