"""Freeze a high-precision eigenvalue oracle for the dense solver test.

Builds the same 50x50 symmetric matrix the test builds (fixed stream), then
computes its spectrum with mpmath's symmetric eigensolver at 30 digits and
writes the descending eigenvalues to tests/data/eig50.json.
"""

import json
import pathlib

import mpmath as mp

from dwedge.ensemble import GAUSSIAN, sample_wigner
from dwedge.rngstream import stream

mp.mp.dps = 30

w = sample_wigner(50, GAUSSIAN, 1.0, stream(2024, "eig50"))
a = mp.matrix([[mp.mpf(float(x)) for x in row] for row in w])
ev = mp.mp.eigsy(a, eigvals_only=True)
vals = sorted((float(ev[i]) for i in range(50)), reverse=True)

out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "eig50.json"
out.parent.mkdir(parents=True, exist_ok=True)
out.write_text(json.dumps({"seed": 2024, "purpose": "eig50", "n": 50,
                           "eigenvalues_desc": vals}, indent=1))
print(f"wrote {out}")
