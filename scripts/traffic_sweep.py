#!/usr/bin/env python3
"""Lists library `pub` items and enum variants that no production code names.

Run from the repository root: `python3 scripts/traffic_sweep.py [ROOT]`.

Production code is every `.rs` file under `crates/*/src` (icn-testkit
excluded), `src/`, `examples/` and `perfbench/src`, with `#[cfg(test)]`
items and comments removed. An item counts as used when its name appears
as a word anywhere in production code outside its own definition line;
a variant when `Enum::Variant` appears (or the bare variant, flagged).
A name inside the body of an unused function does not count, to a
fixpoint. Names are not resolved, so a common method name can hide an
unused item.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")


def strip_tests_and_comments(text):
    lines = text.split("\n")
    out = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.strip().startswith("#[cfg(test)]"):
            # Skip the gated item: to its matching close brace, or one line.
            j = i + 1
            depth = 0
            opened = False
            while j < len(lines):
                depth += lines[j].count("{") - lines[j].count("}")
                opened = opened or "{" in lines[j]
                if (opened and depth <= 0) or (not opened and lines[j].rstrip().endswith(";")):
                    break
                j += 1
            out.extend([""] * (j - i + 1))
            i = j + 1
            continue
        out.append(re.sub(r"//.*$", "", line))
        i += 1
    return "\n".join(out)


def rs_files(paths):
    for p in paths:
        yield from sorted((ROOT / p).rglob("*.rs")) if (ROOT / p).exists() else []


lib_dirs = [d / "src" for d in sorted((ROOT / "crates").iterdir())
            if d.name != "icn-testkit"]
prod_dirs = [d.relative_to(ROOT) for d in lib_dirs] + ["src", "examples"]
perfbench_dirs = ["perfbench/src"]

prod = {f: strip_tests_and_comments(f.read_text()) for f in rs_files(prod_dirs)}
perf = {f: strip_tests_and_comments(f.read_text()) for f in rs_files(perfbench_dirs)}

item_re = re.compile(r"^\s*pub (?:const )?(fn|struct|enum|const|static|type|trait|mod) ([A-Za-z_][A-Za-z0-9_]*)")
items = []  # (file, line_no, kind, name)
variants = []  # (file, line_no, enum, variant)
for f in rs_files([d.relative_to(ROOT) for d in lib_dirs]):
    text = prod[f].split("\n")
    for n, line in enumerate(text):
        m = item_re.match(line)
        if not m:
            continue
        kind, name = m.groups()
        items.append((f, n, kind, name))
        if kind == "enum":
            depth = line.count("{") - line.count("}")
            k = n + 1
            while k < len(text) and depth > 0:
                body = text[k]
                if depth == 1:
                    v = re.match(r"^\s*([A-Z][A-Za-z0-9_]*)\s*[,({]?", body)
                    if v and not body.strip().startswith("#"):
                        variants.append((f, k, name, v.group(1)))
                depth += body.count("{") - body.count("}")
                k += 1


def body_lines(f, n):
    """The lines of the item defined at line `n` of `f`, to its close."""
    text = prod[f].split("\n")
    depth, opened, k = 0, False, n
    while k < len(text):
        depth += text[k].count("{") - text[k].count("}")
        opened = opened or "{" in text[k]
        if (opened and depth <= 0) or (not opened and text[k].rstrip().endswith(";")):
            break
        k += 1
    return {(f, j) for j in range(n, k + 1)}


def uses(pattern, corpus, skip):
    count = 0
    rx = re.compile(pattern)
    for f, text in corpus.items():
        for n, line in enumerate(text.split("\n")):
            if (f, n) in skip:
                continue
            count += len(rx.findall(line))
    return count


def pattern(kind, name):
    # A module path (`distance::`) does not name a function of that name.
    return r"\b" + re.escape(name) + (r"\b(?!::)" if kind == "fn" else r"\b")


# Fixpoint: a name inside the body of an unused function is no caller,
# so deleting one dead function can expose the next.
dead = set()
while True:
    skip = set().union(*(body_lines(f, n) for f, n in dead)) if dead else set()
    now = {(f, n) for f, n, kind, name in items
           if not uses(pattern(kind, name), prod, skip | {(f, n)})}
    if now == dead:
        break
    dead = now

unused = []
for f, n, kind, name in items:
    if (f, n) not in dead:
        continue
    where = "perfbench only" if uses(pattern(kind, name), perf, set()) else "no production caller"
    unused.append(f"{f.relative_to(ROOT)}:{n + 1}: pub {kind} {name} — {where}")
for f, n, enum, var in variants:
    qualified = r"\b" + re.escape(enum) + r"::" + re.escape(var) + r"\b"
    if uses(qualified, prod, skip | {(f, n)}):
        continue
    bare = uses(r"\b" + re.escape(var) + r"\b", {f: prod[f]}, skip | {(f, n)})
    where = "perfbench only" if uses(qualified, perf, set()) else "no production caller"
    if bare:
        where = f"bare `{var}` in its own file only"
    unused.append(f"{f.relative_to(ROOT)}:{n + 1}: variant {enum}::{var} — {where}")

print(f"{len(items)} pub items and {len(variants)} enum variants swept")
for u in unused:
    print(u)
