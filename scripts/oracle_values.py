#!/usr/bin/env python3
"""Extended-precision oracle for the frozen expected values in tests/.

Evaluates every closed-form kernel term-by-term with mpmath at 50
significant digits and prints the results rounded to 17 digits.  The
library itself never imports this; tests freeze the printed literals.

Run:  python3 scripts/oracle_values.py
"""

import mpmath as mp

mp.mp.dps = 50


def p2h(x, h):
    """|x|^(2h) with the 0^(2h) = 0 convention."""
    x = abs(mp.mpf(x))
    return mp.mpf(0) if x == 0 else x ** (2 * mp.mpf(h))


def fbm_cov(h, s, t):
    return (p2h(t, h) + p2h(s, h) - p2h(t - s, h)) / 2


def sfbm_cov(h, s, t):
    return p2h(s, h) + p2h(t, h) - (p2h(s + t, h) + p2h(t - s, h)) / 2


def msfbm_cov(coeffs, hurst, s, t):
    return mp.fsum(mp.mpf(a) ** 2 * sfbm_cov(h, s, t) for a, h in zip(coeffs, hurst))


def msfbm_var(coeffs, hurst, t):
    return mp.fsum(
        mp.mpf(a) ** 2 * (2 - 2 ** (2 * mp.mpf(h) - 1)) * p2h(t, h)
        for a, h in zip(coeffs, hurst)
    )


def mfbm_cov(coeffs, hurst, s, t):
    return mp.fsum(mp.mpf(a) ** 2 * fbm_cov(h, s, t) for a, h in zip(coeffs, hurst))


def increment_cov(coeffs, hurst, u, v, s, t):
    out = mp.mpf(0)
    for a, h in zip(coeffs, hurst):
        val = (
            p2h(t + u, h) + p2h(t - u, h) + p2h(s + v, h) + p2h(s - v, h)
            - p2h(t + v, h) - p2h(t - v, h) - p2h(s + u, h) - p2h(s - u, h)
        )
        out += mp.mpf(a) ** 2 / 2 * val
    return out


def markov_residual(coeffs, hurst, s, t, u):
    return msfbm_cov(coeffs, hurst, s, u) * msfbm_var(coeffs, hurst, t) - msfbm_cov(
        coeffs, hurst, s, t
    ) * msfbm_cov(coeffs, hurst, t, u)


def show(label, value):
    print(f"{label:58s} {mp.nstr(value, 17)}")


print("== kernels: derived example values ==")
show("fbm_cov(h=0.75, s=-1, t=1)", fbm_cov(mp.mpf(3) / 4, -1, 1))
show("sfbm_cov(h=0.75, s=1, t=2)", sfbm_cov(mp.mpf(3) / 4, 1, 2))
show("msfbm_cov(a=(1,1), H=(0.5,0.75), s=1, t=2)", msfbm_cov((1, 1), (mp.mpf(1) / 2, mp.mpf(3) / 4), 1, 2))
show("mfbm_cov(a=(1,1), H=(0.5,0.75), s=1, t=2)", mfbm_cov((1, 1), (mp.mpf(1) / 2, mp.mpf(3) / 4), 1, 2))

H34 = (mp.mpf(3) / 4,)
ONE = (1,)
var2 = msfbm_var(ONE, H34, 2)
var1 = msfbm_var(ONE, H34, 1)
cov12 = msfbm_cov(ONE, H34, 1, 2)
show("msfbm_var(a=1, H=0.75, t=2)", var2)
show("msfbm_var(a=1, H=0.75, t=1)", var1)
show("inc 2nd moment via Var(2)+Var(1)-2Cov(1,2), H=0.75", var2 + var1 - 2 * cov12)
show("increment_cov(a=1, H=0.75, w=(0,1,1,2))", increment_cov(ONE, H34, 0, 1, 1, 2))
show("increment_cov(a=1, H=0.25, w=(0,1,1,2))", increment_cov(ONE, (mp.mpf(1) / 4,), 0, 1, 1, 2))
r01 = (p2h(2, H34[0]) - 2 * p2h(1, H34[0]) + p2h(0, H34[0])) / 2
show("mfbm_lag_cov_r(a=1, H=0.75, n=1)", r01)
show("stationarity_gap(a=1, H=0.75, x=0, n=1)", increment_cov(ONE, H34, 0, 1, 1, 2) - r01)
h = H34[0]
show("lag_cov_c_asymptotic(a=1, H=0.75, p=0, n=10)", 2 * (1 - h) * h * (2 * h - 1) * 1 * mp.mpf(10) ** (2 * h - 3))
show("conditional_variance(a=1, H=0.75, t=2, s=1)", var2 - cov12 ** 2 / var1)
show("markov_residual(a=1, H=0.75, s=1, t=2, u=4)", markov_residual(ONE, H34, 1, 2, 4))

print()
print("== gram matrix (a=(1,1), H=(0.5,0.75), grid=(0,1,2)) ==")
A2 = (1, 1)
H2 = (mp.mpf(1) / 2, mp.mpf(3) / 4)
for s in (1, 2):
    for t in (1, 2):
        show(f"G entry ({s},{t})", msfbm_cov(A2, H2, s, t))

print()
print("== markov residuals at the designated proof triples ==")
for hval in (mp.mpf(1) / 4, mp.mpf(3) / 10, mp.mpf(2) / 5, mp.mpf(3) / 5, mp.mpf(3) / 4, mp.mpf(9) / 10):
    if hval > mp.mpf(1) / 2:
        t = mp.mpf(1000)
        s, u = mp.sqrt(t), t ** 2
    else:
        t = mp.mpf(1) / 1000
        s, u = t ** 2, mp.sqrt(t)
    r = markov_residual(ONE, (hval,), s, t, u)
    show(f"residual H={mp.nstr(hval, 3)} at (s,t,u)=proof triple", r)

print()
print("== lag covariance spot values (stable-evaluator checks) ==")
for hval, p, n in (
    (mp.mpf(3) / 5, 0, 1000),
    (mp.mpf(3) / 5, 0, 100000),
    (mp.mpf(3) / 4, 0, 1000),
    (mp.mpf(9) / 10, 10, 1000),
    (mp.mpf(9) / 10, 0, 100000),
):
    val = increment_cov(ONE, (hval,), p, p + 1, p + n, p + n + 1)
    show(f"C(p={p}, n={n}) at H={mp.nstr(hval, 3)}", val)

print()
print("== half second differences ((m+1)^2H - 2 m^2H + (m-1)^2H) / 2 ==")
for hval in (mp.mpf(1) / 20, mp.mpf(3) / 10, mp.mpf(3) / 4, mp.mpf(99) / 100):
    for m in (1, 10, 10 ** 3, 10 ** 5, 2 ** 17):
        val = (p2h(m + 1, hval) - 2 * p2h(m, hval) + p2h(m - 1, hval)) / 2
        show(f"half second difference H={mp.nstr(hval, 3)}, m={m}", val)

print()
print("== sampler/analysis Monte Carlo targets ==")
show("msfbm_cov(a=1, H=0.75, s=1, t=2)", cov12)
show("msfbm_var(a=1, H=0.75, t=1)", var1)
show("increment bounds gamma at H=0.75 (2-2^(2H-1))", 2 - 2 ** (2 * H34[0] - 1))
show("nu at H=0.25 (2-2^(2H-1))", 2 - 2 ** (2 * mp.mpf(0.25) - 1))
