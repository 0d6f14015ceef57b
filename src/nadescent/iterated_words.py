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
from .padic_series import DEFAULT_PRECISION, PadicNumber, PadicSeries, weighted_sum

Word = Tuple[int, ...]


def _validate_word(word, alphabet_size: Optional[int] = None) -> Word:
    """``word`` as a tuple of letters, each an int (not a bool) of at least 1
    and at most ``alphabet_size`` when one is given.  A word that passes is
    checked by C-level scans; the loop below runs only to word the refusal."""
    word = tuple(word)
    if not word or (
        set(map(type, word)) == {int}
        and min(word) >= 1
        and (alphabet_size is None or max(word) <= alphabet_size)
    ):
        return word
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
            for i, floor in enumerate(form.vals()):
                if floor < 0:
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

    def truncation(self, trunc: Optional[int]) -> int:
        """``trunc``, or the forms' degree when None; refused outside 1..degree."""
        degree = self.trunc_degree
        if trunc is None:
            trunc = degree
        if not 1 <= trunc <= degree:
            raise DomainError(f"truncation degree {trunc} outside 1..{degree}")
        return trunc

    @property
    def working_prec(self) -> int:
        """The largest relative precision abs - v of a unit-form coefficient
        (a nonzero stored integer), or DEFAULT_PRECISION when there is none."""
        rels = (
            a - v for f in self.forms for x, a, v in zip(f.ints, f.abss, f.vals()) if x
        )
        return max(rels, default=DEFAULT_PRECISION)


class _Integrals:
    """The integrals a_w of one system to one truncation degree, each suffix
    built once.  The forms are truncated to degree trunc - 1 once, since
    product coefficient d needs operand coefficients up to d only, so each
    form's valuations are taken once however many products read it."""

    def __init__(self, system: FormSystem, trunc: int):
        self.p = system.p
        self.forms = tuple(f.truncate(trunc - 1) for f in system.forms)
        one = PadicSeries.constant(system.p, 1, trunc, system.working_prec)
        self.memo: Dict[Word, PadicSeries] = {(): one}

    def __call__(self, word: Word) -> PadicSeries:
        # start from the longest suffix in the memo, then build the longer
        # ones shortest first: a_word[k:] = integral of f_word[k] * a_word[k+1:]
        memo, known = self.memo, 0
        while word[known:] not in memo:
            known += 1
        out = memo[word[known:]]
        for k in reversed(range(known)):
            suffix = word[k:]
            # the product stops at the truncated form's trunc coefficients
            out = (self.forms[word[k] - 1] * out).antiderivative()
            # only a precision at or below 0 can be a refusal
            if min(out.abss) <= 0:
                for m, (x, prec) in enumerate(zip(out.ints, out.abss)):
                    if prec <= 0 and not x:
                        raise PrecisionExhaustedError(
                            f"coefficient {m} of the integral for word "
                            f"{suffix} degraded to O({self.p}^{prec}); raise "
                            f"the working precision of the forms"
                        )
            memo[suffix] = out
        return out


def iterated_integral(
    system: FormSystem, word: Iterable[int], trunc: Optional[int] = None
) -> PadicSeries:
    """The series of a_word on the chart, to degree ``trunc``.

    Coefficient m keeps valuation >= -v_p(m!) when the forms are p-integral;
    the truncation degree defaults to (and cannot exceed) the forms' own.
    """
    word = _validate_word(word, system.size)
    return _Integrals(system, system.truncation(trunc))(word)


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
    trunc = system.truncation(trunc)
    integral = _Integrals(system, trunc)
    terms = (
        (coeff, integral(_validate_word(word, system.size)))
        for word, coeff in obs.terms
    )
    return weighted_sum(system.p, trunc + 1, terms)
