"""Independent arithmetic on [0, ∞] that the benchmark checks results against.

Values are `Fraction`s or the float `INF`.  Nothing here imports the
package under test: the four operations, the chain table, least
solutions, ⊙-finiteness and integrals are rebuilt from their
definitions, so a wrong program output cannot also be the expected one.
"""

from __future__ import annotations

from fractions import Fraction

INF = float("inf")

KINDS = ("times", "min", "chain", "float")

# The clamped-product chain {0, 1, 2, ∞} with identity 1.
CHAIN_CARRIER = (Fraction(0), Fraction(1), Fraction(2), INF)
CHAIN_IDENTITY = Fraction(1)

# Relative tolerance for the float operation.  Its solver bisects, so a
# density is right when c ⊙ τ(x) matches ν(x) to this precision.
FLOAT_TOL = 1e-9


def plain_times(a, b):
    """Product with 0 · ∞ = 0."""
    if a == 0 or b == 0:
        return Fraction(0)
    if a == INF or b == INF:
        return INF
    return a * b


def clamp_to_chain(p):
    return max(c for c in CHAIN_CARRIER if c <= p)


CHAIN_TABLE = {(a, b): clamp_to_chain(plain_times(a, b))
               for a in CHAIN_CARRIER for b in CHAIN_CARRIER}


def float_times(s: float, t: float) -> float:
    """The product on floats with the 0 · ∞ = 0 convention made explicit."""
    return 0.0 if s == 0.0 or t == 0.0 else s * t


def omul(kind: str, a, b):
    """a ⊙ b for one of the four operation kinds."""
    if kind == "times":
        return plain_times(a, b)
    if kind == "min":
        return a if a < b else b
    if kind == "chain":
        return CHAIN_TABLE[(a, b)]
    r = float_times(float(a), float(b))
    return INF if r == INF else Fraction(r)


def chain_odot_finite(t) -> bool:
    """The invertibility criterion: s ⊙ t ≤ 1 and t ⊙ s' ≤ 1 for positive s, s'."""
    if t == 0:
        return True
    pos = [s for s in CHAIN_CARRIER if s != 0]
    return (any(CHAIN_TABLE[(s, t)] <= CHAIN_IDENTITY for s in pos)
            and any(CHAIN_TABLE[(t, s)] <= CHAIN_IDENTITY for s in pos))


def odot_finite(kind: str, t) -> bool:
    if kind == "min":
        return True
    if kind == "chain":
        return chain_odot_finite(t)
    return t != INF


def least_solution(kind: str, nu_x, tau_x):
    """The least c with c ⊙ τ(x) = ν(x), or None.

    Under the product with ν(x) = τ(x) = ∞ every positive c solves and
    there is no least one; the canonical 1 is returned there.
    """
    if nu_x == 0:
        return Fraction(0)
    if kind == "chain":
        return next((c for c in CHAIN_CARRIER if CHAIN_TABLE[(c, tau_x)] == nu_x), None)
    if kind == "min":
        return nu_x if nu_x <= tau_x else None
    if tau_x == 0:
        return None
    if tau_x == INF:
        return Fraction(1) if nu_x == INF else None
    return nu_x / tau_x


def solution_unique(kind: str, nu_x, tau_x) -> bool:
    """Whether c ⊙ τ(x) = ν(x) has exactly one solution c."""
    if kind in ("times", "float"):
        return tau_x not in (0, INF)
    if kind == "min":
        return nu_x < tau_x
    return sum(CHAIN_TABLE[(c, tau_x)] == nu_x for c in CHAIN_CARRIER) == 1


def close(kind: str, a, b) -> bool:
    """Equality, exact except for the float kind."""
    if a == b:
        return True
    if kind != "float" or a == INF or b == INF:
        return False
    return abs(float(a) - float(b)) <= FLOAT_TOL * max(1.0, abs(float(a)), abs(float(b)))


def pushforward(kind: str, c, tau) -> list:
    return [omul(kind, cx, tx) for cx, tx in zip(c, tau)]


def integral(kind: str, f, nu, mask: int):
    """∫_B f ⊙ dν by the finite-space closed form max_{x ∈ B} f(x) ⊙ ν({x})."""
    return max((omul(kind, f[i], nu[i]) for i in range(len(f)) if mask >> i & 1),
               default=Fraction(0))


def abs_continuous(kind: str, nu, tau) -> bool:
    """ν(x) ≤ ∞ ⊙ τ(x) on every atom of ⊙-finite τ-mass."""
    return all(not odot_finite(kind, t) or n <= omul(kind, INF, t)
               for n, t in zip(nu, tau))


def ext_sum(values):
    """Additive total with ∞ absorbing."""
    total = Fraction(0)
    for v in values:
        if v == INF:
            return INF
        total += v
    return total


def parse(text: str):
    """Read a value as the package prints it ("inf", "3", "7/2")."""
    return INF if text == "inf" else Fraction(text)


def show(v) -> str:
    return "inf" if v == INF else str(v)
