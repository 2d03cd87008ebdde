#!/usr/bin/env python3
"""Enumerate whole function families and classify the boolean ones.

The two generators produce n^n one-argument and n^(n*n) two-argument
tables, all pairwise distinct.  At arity 2 those are exactly the 4 unary
boolean functions and all 16 binary connectives; the bundled catalog
labels are checked against the computed classification, and most of the
binary labels turn out not to match the tables they accompany.
"""

from cyclogic import (
    classify_binary,
    distinctness_report,
    enumerate_binary,
    enumerate_unary,
    label_report,
)

print("== family sizes and distinctness ==")
for n, family in [(2, "unary"), (3, "unary"), (5, "unary"), (2, "binary"), (3, "binary")]:
    total, distinct = distinctness_report(n, family)
    print(f"  n={n} {family:6}: {total:6} tables, {distinct:6} distinct")

print()
print("== the four unary tables at arity 2 ==")
for idx, table in enumerate_unary(2):
    cells = ", ".join(f"z2^{a} -> z2^{table.outputs[a]}" for a in range(2))
    print(f"  index {idx.indices}: {cells}")

print()
print("== all 16 binary connectives appear exactly once ==")
names = sorted(classify_binary(t) for _, t in enumerate_binary(2))
print(" ", names)

print()
print("== catalog labels vs computed classification ==")
print("  index        computed                 catalog label            verdict")
for check in label_report("binary"):
    verdict = "agrees" if check.agrees else "DISAGREES"
    print(f"  {str(check.index):12} {check.computed:24} {check.catalog:24} {verdict}")

disagreements = sum(1 for c in label_report("binary") if not c.agrees)
print(f"\n  {disagreements} of 16 catalog labels disagree with their own tables;")
print("  the library classifies from the table and reports both sides.")
