"""The descent endgame: annihilators, enlarged prime sets, and the
two-sided search.

Zero separation leaves every candidate point pinned mod p^M.  The group
of local points mod p^M has order N = #J(F_p) * p^(g(M-1)), so N kills
the local obstruction; the primes dividing N (together with the original
bad primes S) form the enlarged set T_0 where the next descent stage
lives.  Finally, a certified lower enumeration A_0 <= A_1 <= ... and an
excluding upper sieve B_0 >= B_1 >= ... are advanced alternately until
some A_n equals some B_m, at which point the point set is decided.

Run:  python3 demos/descent_endgame.py
"""

from nadescent import (
    JacobianLocalData,
    TableEnumerator,
    enlarged_prime_set,
    jacobian_order_mod,
    run_descent,
)

P = 5


def brute_count(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b, counted point by point."""
    affine = sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y - x * x * x - a * x - b) % p == 0
    )
    return affine + 1  # the point at infinity


def main() -> None:
    count = brute_count(P, 1, 1)
    print(f"E: y^2 = x^3 + x + 1 over F_{P}:  #E(F_{P}) = {count}")

    data = JacobianLocalData(p=P, g=1, count_fp=count)
    for m in (1, 2, 3):
        print(f"  #E(Z/{P}^{m}) = {jacobian_order_mod(data, m)}")

    modulus = 2  # e.g. separation pinned the zeros mod 5^2
    n_value = jacobian_order_mod(data, modulus)
    t0 = enlarged_prime_set({11}, n_value)
    print(f"separation modulus M = {modulus}  ->  annihilator N = {n_value}")
    print(f"enlarged prime set T0 = S u primes(N) = {sorted(t0)}")
    print()

    lower = TableEnumerator([[], ["P1"], ["P1", "P2"]])
    upper = TableEnumerator(
        [["P1", "P2", "P3"], ["P1", "P2", "P3"], ["P1", "P2"]]
    )
    print("two-sided search: lower certifies one point per level, the")
    print("sieve drops its spare candidate at level 2 ...")
    outcome = run_descent(lower, upper)
    print(f"  converged: {outcome.converged}")
    print(f"  decided point set: {sorted(outcome.points)}")
    print(f"  met at lower level n={outcome.lower_level}, "
          f"upper level m={outcome.upper_level}")
    print()

    stuck = run_descent(
        TableEnumerator([["P1"]]),
        TableEnumerator([["P1", "P2"]]),
        n_cap=8,
        m_cap=8,
    )
    print("with a sieve that never sheds its extra candidate the caps hit:")
    print(f"  converged: {stuck.converged}  "
          f"(last lower {sorted(stuck.last_lower)}, "
          f"last upper {sorted(stuck.last_upper)})")


if __name__ == "__main__":
    main()
