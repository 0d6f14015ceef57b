"""Separating the zeros of p-adic power series into residue disks.

A locally analytic function on a collection of residue disks has finitely
many Z_p zeros once its Newton polygon says so; the question is how far
down the p-adic tree one must look before each zero sits alone in its own
disk.  That depth is the separation modulus M: every zero is then pinned
mod p^M, which is exactly what the descent endgame needs.

Run:  python3 demos/zero_separation.py
"""

from nadescent import (
    IsolationError,
    PadicSeries,
    isolate_zeros,
    root_count_positive_valuation,
    separation_modulus,
)

P = 5


def show(label: str, coeffs) -> PadicSeries:
    f = PadicSeries.from_int_coeffs(P, coeffs)
    count = root_count_positive_valuation(f)
    print(f"{label}: zeros in pZ_p read off the Newton polygon = {count}")
    return f


def main() -> None:
    split = show("f = z(z-1)   [roots 0 and 1]", [0, -1, 1])
    close = show("g = z(z-5)   [roots 0 and 5]", [0, -5, 1])
    double = show("h = z^2      [double root]  ", [0, 0, 1])
    print()

    for label, f in (("f", split), ("g", close)):
        disks = isolate_zeros(f, chart_id=label)
        for d in disks:
            print(
                f"{label}: certified disk center={d.center_int(P)} mod {P}^{d.depth} "
                f"(digits {list(d.center_digits)})"
            )
    print()

    report = separation_modulus([("w", [split, close])])
    print(f"aggregate over both series: status={report.status.value}, "
          f"M={report.modulus}")
    print("  every zero is pinned mod "
          f"{P}^{report.modulus} = {P ** report.modulus}")
    print()

    try:
        isolate_zeros(double, chart_id="h")
    except IsolationError as exc:
        print(f"h = z^2 fails as it should: {type(exc).__name__}")
        for f_ in exc.failures:
            print(
                f"  class digits={list(f_.center_digits)} at depth {f_.depth}: "
                f"{f_.reason.value} (residual count {f_.residual_count})"
            )


if __name__ == "__main__":
    main()
