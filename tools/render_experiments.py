#!/usr/bin/env python3
"""Renders EXPERIMENTS.md's paper-vs-measured tables from BENCH_paper.json.

    python3 tools/render_experiments.py           # rewrite EXPERIMENTS.md
    python3 tools/render_experiments.py --check   # exit 1 if it would change

Each table sits between two markers in EXPERIMENTS.md:

    <!-- paper-rows: FIRST .. LAST -->
    ...table...
    <!-- /paper-rows -->

and holds every row of BENCH_paper.json's `rows` array from the first row
whose figure is FIRST through the last row whose figure is LAST, in the
JSON's order. Only the text between the markers is rewritten; the prose
around the tables, footnotes included, stays as written. The footnote
marks that rows carry live in FOOTNOTES below.
"""
import argparse
import difflib
import json
import os
import re
import sys

HEADER = ("| experiment | metric | paper | measured | band |\n"
          "|---|---|---|---|---|\n")

# (figure, metric) -> mark appended to the measured value; the footnote
# text itself is prose below the table.
FOOTNOTES = {
    ("Fig 2(a)", "mid-day vs night upload swing (x)"): "¹",
    ("Fig 3(b)", "RAR gaps within 1 day"): "²",
    ("Fig 3(c)", "files deleted within the month"): "³",
    ("Fig 3(c)", "files deleted within 8 hours"): "³",
    ("Fig 5", "attacks detected (days)"): "⁴",
    ("Fig 10", "volumes with > 1000 files"): "⁵",
    ("Fig 14", "long-term shard cv (paper: 4.9%)"): "⁶",
}

BLOCK = re.compile(
    r"(?P<open><!-- paper-rows: (?P<first>.+?) \.\. (?P<last>.+?) -->\n)"
    r".*?"
    r"(?P<close><!-- /paper-rows -->)",
    re.S)


def number(x):
    """Four significant digits, as bench_paper prints them."""
    return "∞" if x is None else "%.4g" % x


def band(row):
    b = row["band"]
    if b is None:
        return "—"
    verdict = "holds" if row["holds"] else "BREACHED"
    if b == "shape_holds":
        return "shape rule, " + verdict
    return "[%s, %s], %s" % (number(b[0]), number(b[1]), verdict)


def select(rows, first, last):
    """Rows from the first of figure `first` to the last of `last`."""
    figures = [r["figure"] for r in rows]
    if first not in figures or last not in figures:
        raise SystemExit(f"render_experiments: no rows for {first} .. {last}")
    start = figures.index(first)
    end = len(figures) - 1 - figures[::-1].index(last)
    if end < start:
        raise SystemExit(f"render_experiments: {last} precedes {first}")
    return rows[start:end + 1]


def table(rows):
    out = [HEADER]
    for r in rows:
        mark = FOOTNOTES.get((r["figure"], r["metric"]), "")
        # A null paper value is a row the paper gives no number for.
        paper = "—" if r["paper"] is None else number(r["paper"])
        out.append("| %s | %s | %s | %s%s | %s |\n" % (
            r["figure"], r["metric"], paper,
            number(r["measured"]), mark, band(r)))
    return "".join(out)


def render(text, rows):
    marked = set()

    def fill(m):
        picked = select(rows, m.group("first"), m.group("last"))
        marked.update((r["figure"], r["metric"]) for r in picked)
        return m.group("open") + table(picked) + m.group("close")

    out, n = BLOCK.subn(fill, text)
    if n == 0:
        raise SystemExit("render_experiments: no <!-- paper-rows --> markers")
    stale = set(FOOTNOTES) - marked
    if stale:
        raise SystemExit(f"render_experiments: footnote for no row: {stale}")
    return out


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 (printing a diff) if the file is stale")
    ap.add_argument("--json", default=os.path.join(root, "BENCH_paper.json"))
    ap.add_argument("--doc", default=os.path.join(root, "EXPERIMENTS.md"))
    args = ap.parse_args()

    with open(args.json, encoding="utf-8") as f:
        rows = json.load(f)["rows"]
    with open(args.doc, encoding="utf-8") as f:
        text = f.read()
    out = render(text, rows)
    if args.check:
        if out != text:
            sys.stdout.writelines(difflib.unified_diff(
                text.splitlines(True), out.splitlines(True),
                args.doc, args.doc + " (rendered)"))
            return 1
        return 0
    if out != text:
        with open(args.doc, "w", encoding="utf-8") as f:
            f.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
