"""Word-indexed iterated integrals and the shuffle algebra over them.

Words are tuples of 1-based letters, each letter naming a differential form
from a :class:`FormSystem` (forms are given as truncated power series in a
local coordinate z, with p-integral coefficients).  The iterated integral
attached to a word is defined recursively on a disk around z = 0:

    a_() = 1,          a_(i, w') = integral of  f_i * a_w'   (vanishing at 0)

so the word is consumed head-first and each step costs one termwise
antiderivative.  Products of these functions satisfy the shuffle relations:
a_u * a_v equals the multiplicity-weighted sum of a_w over all riffle
shuffles w of u and v, which is both a correctness oracle and the reason
linear combinations of words form an algebra of observables.

Denominators introduced by the antiderivative are the only source of
precision loss; a coefficient that degrades so far that it is not even known
modulo p raises PrecisionExhaustedError instead of silently poisoning
downstream zero counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import (
    DomainError,
    IrregularFormError,
    PrecisionExhaustedError,
    PrimeMismatchError,
    check_int,
)
from .padic_series import DEFAULT_PRECISION, PadicNumber, PadicSeries

Word = Tuple[int, ...]


def _validate_word(word, alphabet_size: Optional[int] = None) -> Word:
    word = tuple(word)
    for letter in word:
        check_int(letter, "word letter", 1)
        if alphabet_size is not None and letter > alphabet_size:
            raise DomainError(
                f"letter {letter} exceeds the {alphabet_size} available forms"
            )
    return word


# ---------------------------------------------------------------------------
# Shuffle products
# ---------------------------------------------------------------------------


@cache
def _shuffle_items(u: Word, v: Word) -> Tuple[Tuple[Word, int], ...]:
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc: Dict[Word, int] = {}
    for w, m in _shuffle_items(u[1:], v):
        key = (u[0],) + w
        acc[key] = acc.get(key, 0) + m
    for w, m in _shuffle_items(u, v[1:]):
        key = (v[0],) + w
        acc[key] = acc.get(key, 0) + m
    return tuple(sorted(acc.items()))


def shuffle(u: Iterable[int], v: Iterable[int]) -> Dict[Word, int]:
    """Riffle shuffles of u and v with multiplicities.

    The multiplicities total C(|u| + |v|, |u|); equal words are merged, so a
    word appears once with the count of distinct riffles producing it.
    """
    return dict(_shuffle_items(_validate_word(u), _validate_word(v)))


# ---------------------------------------------------------------------------
# Form systems and the integrals themselves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormSystem:
    """The tuple of differential forms f_1 .. f_k, as series in z.

    All forms share one prime and one truncation degree, and every
    coefficient must have valuation >= 0 (exact zeros included): integrating
    a form with a p in the denominator is outside this chart model and is
    rejected up front (IrregularFormError) rather than discovered through a
    corrupted precision trail.
    """

    forms: Tuple[PadicSeries, ...]

    def __post_init__(self):
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        if not forms:
            raise DomainError("a form system needs at least one form")
        p = forms[0].p
        degree = forms[0].trunc_degree
        for idx, form in enumerate(forms, start=1):
            if form.p != p:
                raise PrimeMismatchError(
                    f"form {idx} lives over p={form.p}, expected p={p}"
                )
            if form.trunc_degree != degree:
                raise DomainError(
                    f"form {idx} is truncated at degree {form.trunc_degree}, "
                    f"expected {degree}"
                )
            for i, c in enumerate(form.coeffs):
                floor = c.valuation_floor()
                if floor is not None and floor < 0:
                    raise IrregularFormError(
                        f"form {idx}, coefficient {i}: valuation "
                        f"{floor} < 0; forms must be p-integral on the chart"
                    )

    @property
    def p(self) -> int:
        return self.forms[0].p

    @property
    def size(self) -> int:
        return len(self.forms)

    @property
    def trunc_degree(self) -> int:
        return self.forms[0].trunc_degree

    @property
    def working_prec(self) -> int:
        precs = [c.prec for f in self.forms for c in f.coeffs if c.unit is not None]
        return max(precs) if precs else DEFAULT_PRECISION


def _integral(
    system: FormSystem, word: Word, trunc: int, memo: Dict[Word, PadicSeries]
) -> PadicSeries:
    got = memo.get(word)
    if got is not None:
        return got
    if not word:
        out = PadicSeries.constant(system.p, 1, trunc, system.working_prec)
    else:
        tail = _integral(system, word[1:], trunc, memo)
        integrand = (system.forms[word[0] - 1] * tail).truncate(trunc - 1)
        out = integrand.antiderivative()
        for m, c in enumerate(out.coeffs):
            if c.is_unknown_zero() and c.val <= 0:
                raise PrecisionExhaustedError(
                    f"coefficient {m} of the integral for word {word} "
                    f"degraded to O({system.p}^{c.val}); raise the working "
                    f"precision of the forms"
                )
    memo[word] = out
    return out


def iterated_integral(
    system: FormSystem, word: Iterable[int], trunc: Optional[int] = None
) -> PadicSeries:
    """The series of a_word on the chart, to degree ``trunc``.

    Coefficient m keeps valuation >= -v_p(m!) when the forms are p-integral;
    the truncation degree defaults to (and cannot exceed) the forms' own.
    """
    word = _validate_word(word, system.size)
    if trunc is None:
        trunc = system.trunc_degree
    if not 1 <= trunc <= system.trunc_degree:
        raise DomainError(
            f"truncation degree {trunc} outside 1..{system.trunc_degree}"
        )
    return _integral(system, word, trunc, {})


# ---------------------------------------------------------------------------
# Observables: finite linear combinations of words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    """sum over words w of  c_w * a_w, with p-adic coefficients c_w.

    Terms are stored sorted by word with exact zeros pruned, so structurally
    equal observables compare equal.
    """

    p: int
    terms: Tuple[Tuple[Word, PadicNumber], ...]

    @classmethod
    def from_terms(
        cls,
        p: int,
        terms: Union[Mapping, Iterable],
        prec: int = DEFAULT_PRECISION,
    ) -> "Observable":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: Dict[Word, PadicNumber] = {}
        for raw_word, raw_coeff in items:
            word = _validate_word(raw_word)
            if isinstance(raw_coeff, PadicNumber):
                coeff = raw_coeff
                if coeff.p != p:
                    raise PrimeMismatchError(
                        f"coefficient over p={coeff.p} in an observable over p={p}"
                    )
            elif isinstance(raw_coeff, int) and not isinstance(raw_coeff, bool):
                coeff = PadicNumber.from_int(p, raw_coeff, prec)
            else:
                raise DomainError(
                    f"coefficient for word {word} must be an int or "
                    f"PadicNumber, got {raw_coeff!r}"
                )
            acc[word] = acc[word] + coeff if word in acc else coeff
        kept = [(w, c) for w, c in sorted(acc.items()) if not c.is_exact_zero()]
        return cls(p=p, terms=tuple(kept))


def observable_product(a: Observable, b: Observable) -> Observable:
    """Shuffle product: the observable whose function is the pointwise
    product of the two inputs' functions."""
    if a.p != b.p:
        raise PrimeMismatchError(
            f"observables over p={a.p} and p={b.p} cannot be multiplied"
        )
    acc: Dict[Word, PadicNumber] = {}
    for u, cu in a.terms:
        for v, cv in b.terms:
            base = cu * cv
            for w, mult in _shuffle_items(u, v):
                term = base.scale_int(mult)
                acc[w] = acc[w] + term if w in acc else term
    return Observable.from_terms(a.p, acc)


def evaluate_observable(
    obs: Observable, system: FormSystem, trunc: Optional[int] = None
) -> PadicSeries:
    """The series of the observable on the chart (suffix integrals shared
    across terms).  The result carries no weierstrass bound; attach one with
    ``with_weierstrass_bound`` before any root counting, since only the
    caller knows the analytic provenance of the observable."""
    if obs.p != system.p:
        raise PrimeMismatchError(
            f"observable over p={obs.p}, forms over p={system.p}"
        )
    if trunc is None:
        trunc = system.trunc_degree
    if not 1 <= trunc <= system.trunc_degree:
        raise DomainError(
            f"truncation degree {trunc} outside 1..{system.trunc_degree}"
        )
    memo: Dict[Word, PadicSeries] = {}
    total: Optional[PadicSeries] = None
    for word, coeff in obs.terms:
        _validate_word(word, system.size)
        piece = _integral(system, word, trunc, memo).scale(coeff)
        total = piece if total is None else total + piece
    if total is None:
        return PadicSeries(system.p, [PadicNumber.zero(system.p)] * (trunc + 1))
    return total
