"""Run the built-in verification checks and a refinement study.

The same checks are available from the command line as
`mhd2tor verify [poincare linear skew order oracle]`.
"""

from mhd2tor.verify import convergence_slope, run_checks

results = run_checks(["oracle", "linear", "poincare", "skew"])
width = max(len(r.name) for r in results)
for r in results:
    flag = "PASS" if r.passed else "FAIL"
    print(f"{r.name:<{width}}  value={r.value:12.4e}  bound={r.bound:.3e}  {flag}")

print("\nrefinement study of the Lawson RK4 stepper:")
slope = convergence_slope()
print(f"observed order: {slope:.3f} (expected 4)")
