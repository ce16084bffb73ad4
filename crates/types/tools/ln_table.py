#!/usr/bin/env python3
"""Prints the 128-entry table of the eight-lane `ln` kernel in
`crates/types/src/simd.rs` (`LN_INVC`, `LN_LOGC_HI`, `LN_LOGC_LO`).

Entry i covers the reduced argument z in [0x1.6p-1, 0x1.6p0) whose
bit pattern minus 0x3fe6000000000000 has i in bits 45..52: z in
[0.6875 + i/256, +1/256) for i < 80 and [1 + (i-80)/128, +1/128) above.
`invc` is the double nearest 1/center (exactly 1.0 for the interval just
below 1, so ln s near 1 has no table term), and `logc` = -ln(invc) of
that double, split into a double-double with mpmath at 200 bits.

Run: python3 crates/types/tools/ln_table.py
"""
from mpmath import mp, mpf, log

mp.prec = 200
invc, hi, lo = [], [], []
for i in range(128):
    if i < 80:
        lo_z = mpf(0.6875) + mpf(i) / 256
        w = mpf(1) / 256
    else:
        lo_z = 1 + mpf(i - 80) / 128
        w = mpf(1) / 128
    c = lo_z + w / 2
    v = 1.0 if i == 79 else float(1 / c)
    l = -log(mpf(v))
    h = float(l)
    invc.append(v)
    hi.append(h)
    lo.append(float(l - mpf(h)))


def emit(name, doc, xs):
    print(f"/// {doc}")
    print(f"static {name}: [f64; 128] = [")
    for k in range(0, 128, 2):
        print("    " + " ".join(f"{x!r}," for x in xs[k:k + 2]))
    print("];")


emit("LN_INVC", "`invc` of each interval: the double nearest 1/center.", invc)
emit("LN_LOGC_HI", "High half of -ln(invc).", hi)
emit("LN_LOGC_LO", "Low half of -ln(invc).", lo)
