"""The (N, d) regime map: which method certifies which cell.

Every cell with N >= 3 qudits of dimension d admits a certified
contradiction.  The regimes track the experimental cost: regime 1 needs
N+1 operators and two measurement bases per qudit, regime 2 needs N+3
operators with a third basis on two qudits, regime 3 at least N+4
operators.  Run with --verify to re-certify every cell (a few seconds).
"""

import sys
import time
from collections import Counter

from ghzcert import classify_plane

D_MAX, N_MAX = 12, 20
verify = "--verify" in sys.argv[1:]

start = time.perf_counter()
cells = list(classify_plane(D_MAX, N_MAX, verify=verify))  # an iterator of cells
elapsed = time.perf_counter() - start

grid = {(c.d, c.n): c for c in cells}
symbols = {1: ".", 2: "o", 3: "#"}

print(f"regimes for 2 <= d <= {D_MAX}, 3 <= N <= {N_MAX}"
      + (" (every cell certified)" if verify else "") + ":\n")
header = "d\\N " + " ".join(f"{n:2d}" for n in range(3, N_MAX + 1))
print(header)
for d in range(2, D_MAX + 1):
    row = "  ".join(symbols[grid[(d, n)].regime] for n in range(3, N_MAX + 1))
    print(f"{d:3d}  {row}")

counts = Counter(c.regime for c in cells)
print(f"\n. = regime 1 ({counts[1]} cells)   o = regime 2 ({counts[2]} cells)   "
      f"# = regime 3 ({counts[3]} cells)")
print(f"computed in {elapsed:.2f}s\n")

print("regime-3 cells (gcd(N, d) = 1 and N < d, the hardest ones):")
print("  " + ", ".join(f"({c.d},{c.n})" for c in cells if c.regime == 3))

print("\nfactors certifying the d = 12 row (regime 1 throughout, except N")
print("a multiple of 12):")
row12 = [grid[(12, n)] for n in range(3, N_MAX + 1)]
print("  " + ", ".join(
    f"N={c.n}:f={c.witness_f}" if c.witness_f else f"N={c.n}:method {c.witness_method}"
    for c in row12
))

print("\nCSV rows (same data as `ghzcert classify --format csv`):")
for c in cells[:5]:
    print(f"  {c.d},{c.n},{c.regime},{c.witness_method}")
print(f"  ... ({len(cells)} rows total)")
