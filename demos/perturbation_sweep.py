"""Stress the companion containment under scaling and translation.

The gap-dominance margin of the standard companion is a factor of 2, so
containment should survive any scaling within that slack.  Sweep a grid
of (lambda, t) pairs and show the certificate holding everywhere, then
push lambda past the slack and watch the failure get recorded instead of
silently ignored.
"""

from fractions import Fraction

from cantorforge import (
    Interval,
    PerturbationSpec,
    build_companion,
    check_dominance,
    middle_thirds,
    robustness_sweep,
)

k = middle_thirds(20)
kt = build_companion(k, 20, Fraction(1, 10), Fraction(1, 2))

slack = check_dominance(k, kt, 20).slack
print(f"certified scaling slack: {slack}")

pert = PerturbationSpec(
    lambda_range=Interval(Fraction(19, 20), Fraction(21, 20)),
    t_range=Interval(Fraction(-1, 25), Fraction(1, 25)),
    lambda_count=21,
    t_count=21,
)
report = robustness_sweep(k, kt, pert, 20)
print(f"grid {pert.lambda_count}x{pert.t_count}: "
      f"{sum(1 for p in report.points if p.ok)}/{len(report.points)} ok, "
      f"all_ok={report.all_ok}")

# now overshoot: lambda up to 3 is way outside the factor-2 slack
wild = PerturbationSpec(
    lambda_range=Interval(Fraction(5, 2), Fraction(3)),
    t_range=Interval(Fraction(0), Fraction(0)),
    lambda_count=5,
    t_count=1,
)
broken = robustness_sweep(k, kt, wild, 20)
bad = [p for p in broken.points if not p.ok]
print(f"overshoot grid: {len(bad)}/{len(broken.points)} rejected")
for p in bad[:3]:
    print(f"  lambda={p.lam} t={p.t}: {p.reason}")
