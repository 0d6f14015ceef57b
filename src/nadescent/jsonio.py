"""JSON schemas and canonical serialization for the command-line surface.

Two rules keep the wire format trustworthy:

* Every integer is emitted as a decimal string.  The interesting numbers
  here (annihilators, group orders, bound-table entries) routinely exceed
  2^53, and a format in which some integers survive a JSON round trip
  through other tooling and some do not is worse than one uniform rule.
  Parsing accepts either form, and reads an integer coefficient straight
  into the integers a :class:`PadicSeries` stores.
* Output is canonical: keys sorted, two-space indent, trailing newline.
  Identical inputs produce byte-identical reports, whatever dict insertion
  order produced them.  A dataclass is written as the object of its
  fields, so a field name is a wire key.  One walk writes the text and
  converts its ints only at the end, so an int past the int/str digit
  limit is refused first; ``canonicalize`` is the parse of that text.

Floats are rejected outright -- nothing in this package is approximate in
the floating-point sense, so a float in a document is always a mistake.
"""

from __future__ import annotations

import enum
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from .arith import check_prime
from .errors import DigitLimitError, DomainError, InvariantError, check_int
from .iterated_words import Observable, _validate_word
from .padic_series import DEFAULT_PRECISION, PadicNumber, PadicSeries
from .two_sided_search import _display

_INT_RE = re.compile(r"^[+-]?[0-9]+$")


# ---------------------------------------------------------------------------
# Scalar parsing
# ---------------------------------------------------------------------------


def parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool):
        raise DomainError(f"{path}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not _INT_RE.match(text):
            raise DomainError(f"{path}: {value!r} is not a decimal integer")
        try:
            return int(text)
        except ValueError:  # the only way a matched decimal string fails
            raise DomainError(
                f"{path}: a decimal integer of {len(text)} digits, more than "
                f"{_digit_limit()}"
            ) from None
    if isinstance(value, float):
        raise DomainError(
            f"{path}: floats are not accepted; write the integer as a string"
        )
    raise DomainError(f"{path}: expected an integer, got {type(value).__name__}")


def _digit_limit() -> str:
    return (
        f"this interpreter's limit of {sys.get_int_max_str_digits()} for "
        f"int/str conversion (PYTHONINTMAXSTRDIGITS)"
    )


def require(doc: Any, key: str, path: str) -> Any:
    """``doc[key]``, or a DomainError naming ``path.key`` when it is absent."""
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected an object")
    if key not in doc:
        raise DomainError(f"{path}.{key}: missing required field")
    return doc[key]


@contextmanager
def at_path(path: str) -> Iterator[None]:
    """Re-raise a DomainError from the block with ``path``, the JSON path or
    flag of the value it refused, in front of its message."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _optional(doc: Any, key: str, default: Any = None) -> Any:
    if isinstance(doc, dict) and key in doc:
        return doc[key]
    return default


def _prime(value: Any, path: str) -> int:
    """A prime p: residue classes and root counts need F_p to be a field."""
    return check_prime(parse_int(value, path), path)


def _precision(doc: Any, path: str) -> int:
    """The optional default relative precision ``prec``, at least 1."""
    prec_raw = _optional(doc, "prec")
    if prec_raw is None:
        return DEFAULT_PRECISION
    return check_int(parse_int(prec_raw, f"{path}.prec"), f"{path}.prec", 1)


# ---------------------------------------------------------------------------
# Coefficients and series
# ---------------------------------------------------------------------------


def coeff_from_json(obj: Any, p: int, path: str) -> Union[int, PadicNumber]:
    """An integer (or decimal string) as that int, an exact value to be
    carried at the ambient precision, or the PadicNumber of one of the
    explicit forms
    ``{"zero": true}``, ``{"zero_to": k}``, ``{"val": v, "unit": u, "prec": n}``.
    """
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return parse_int(obj, path)
    if isinstance(obj, dict):
        if obj.get("zero") is True:
            return PadicNumber.zero(p)
        if "zero_to" in obj:
            return PadicNumber.zero_to(p, parse_int(obj["zero_to"], f"{path}.zero_to"))
        if "unit" in obj or "val" in obj:
            val = parse_int(require(obj, "val", path), f"{path}.val")
            unit = parse_int(require(obj, "unit", path), f"{path}.unit")
            cprec = parse_int(require(obj, "prec", path), f"{path}.prec")
            with at_path(path):
                return PadicNumber(p, val, unit, cprec)
    raise DomainError(
        f"{path}: expected an integer, a decimal string, or an object with "
        f'"zero"/"zero_to"/"val","unit","prec"'
    )


def coeff_to_json(x: PadicNumber) -> Dict[str, Any]:
    if x.is_exact_zero():
        return {"zero": True}
    if x.unit is None:
        return {"zero_to": x.val}
    return {"val": x.val, "unit": x.unit, "prec": x.prec}


def series_from_json(
    obj: Any, p: int, prec: int, path: str, require_bound: bool = False
) -> PadicSeries:
    coeffs_raw = require(obj, "coeffs", path)
    if not isinstance(coeffs_raw, list) or not coeffs_raw:
        raise DomainError(f"{path}.coeffs: expected a nonempty array")
    coeffs = [
        c if type(c) is int else coeff_from_json(c, p, f"{path}.coeffs[{i}]")
        for i, c in enumerate(coeffs_raw)
    ]
    bound_raw = _optional(obj, "weierstrass_bound")
    if bound_raw is None:
        if require_bound:
            raise DomainError(
                f"{path}.weierstrass_bound: missing; zero isolation needs the "
                f"caller's guarantee of which indices govern the unit disk"
            )
        bound = None
    else:
        bound = parse_int(bound_raw, f"{path}.weierstrass_bound")
    trunc_raw = _optional(obj, "trunc")
    if trunc_raw is not None:
        trunc = parse_int(trunc_raw, f"{path}.trunc")
        if trunc != len(coeffs) - 1:
            raise DomainError(
                f"{path}.trunc: {trunc} disagrees with the {len(coeffs)} "
                f"supplied coefficients"
            )
    with at_path(path):
        return PadicSeries(p, coeffs, bound, prec)


def series_to_json(f: PadicSeries) -> Dict[str, Any]:
    return {
        "p": f.p,
        "trunc": f.trunc_degree,
        "weierstrass_bound": f.weierstrass_bound,
        "coeffs": [coeff_to_json(c) for c in f.coeffs],
    }


# ---------------------------------------------------------------------------
# Charts (zero-separation input)
# ---------------------------------------------------------------------------


def charts_from_json(
    doc: Any, path: str = "$"
) -> List[Tuple[str, List[Tuple[str, PadicSeries]]]]:
    """Zero-separation payload: ``{"charts": [{chart_id, p, disks: [...]}]}``
    where each disk is ``{center_label, coeffs, trunc, weierstrass_bound}``.
    ``p`` (and an optional default ``prec``) may be given once at the top
    level instead of per chart; all charts must agree on one prime.

    Returns the ``(chart_id, [(label, series), ...])`` pairs that
    ``separation_modulus`` takes.  A disk identifier ``chart_id:label`` met
    a second time is refused with the path of that disk."""
    if isinstance(doc, list):
        doc = {"charts": doc}
    p_raw = _optional(doc, "p")
    p = _prime(p_raw, f"{path}.p") if p_raw is not None else None
    prec = _precision(doc, path)
    charts_raw = require(doc, "charts", path)
    if not isinstance(charts_raw, list) or not charts_raw:
        raise DomainError(f"{path}.charts: expected a nonempty array")
    charts = []
    first: Dict[str, str] = {}  # disk identifier -> path of its first disk
    for i, chart_obj in enumerate(charts_raw):
        cpath = f"{path}.charts[{i}]"
        chart_id = require(chart_obj, "chart_id", cpath)
        if not isinstance(chart_id, str) or not chart_id:
            raise DomainError(f"{cpath}.chart_id: expected a nonempty string")
        chart_p_raw = _optional(chart_obj, "p")
        if chart_p_raw is None:
            if p is None:
                raise DomainError(f"{cpath}.p: missing required field")
            chart_p = p
        else:
            chart_p = _prime(chart_p_raw, f"{cpath}.p")
            if p is not None and chart_p != p:
                raise DomainError(
                    f"{cpath}.p: {chart_p} disagrees with p={p} used elsewhere"
                )
            p = chart_p
        disks_raw = require(chart_obj, "disks", cpath)
        if not isinstance(disks_raw, list) or not disks_raw:
            raise DomainError(f"{cpath}.disks: expected a nonempty array")
        disks = []
        for j, disk_obj in enumerate(disks_raw):
            dpath = f"{cpath}.disks[{j}]"
            label = _optional(disk_obj, "center_label", _optional(disk_obj, "label", str(j)))
            if not isinstance(label, str):
                raise DomainError(f"{dpath}.center_label: expected a string")
            composite = f"{chart_id}:{label}"
            if composite in first:
                raise DomainError(
                    f"{dpath}: duplicate disk identifier {composite!r}, first "
                    f"at {first[composite]}"
                )
            first[composite] = dpath
            series = series_from_json(
                disk_obj, chart_p, prec, dpath, require_bound=True
            )
            disks.append((label, series))
        charts.append((chart_id, disks))
    return charts


# ---------------------------------------------------------------------------
# Form systems and observables (integration input)
# ---------------------------------------------------------------------------


def forms_from_json(doc: Any, path: str = "$") -> Tuple[List[PadicSeries], int, int]:
    """Returns (forms, p, prec).  Forms may be plain coefficient arrays or
    series objects."""
    p = _prime(require(doc, "p", path), f"{path}.p")
    prec = _precision(doc, path)
    forms_raw = require(doc, "forms", path)
    if not isinstance(forms_raw, list) or not forms_raw:
        raise DomainError(f"{path}.forms: expected a nonempty array")
    forms = []
    for i, form_obj in enumerate(forms_raw):
        fpath = f"{path}.forms[{i}]"
        if isinstance(form_obj, list):
            form_obj = {"coeffs": form_obj}
        forms.append(series_from_json(form_obj, p, prec, fpath))
    return forms, p, prec


def observable_from_json(
    doc: Any, p: int, prec: int, path: str, size: Optional[int] = None
) -> Observable:
    """The observable of ``[{word, coeff}, ...]``; a word with a letter past
    ``size``, the number of forms when one is given, is refused with its
    path."""
    if not isinstance(doc, list):
        raise DomainError(f"{path}: expected an array of word terms")
    terms = []
    for i, term_obj in enumerate(doc):
        tpath = f"{path}[{i}]"
        word_raw = require(term_obj, "word", tpath)
        if not isinstance(word_raw, list):
            raise DomainError(f"{tpath}.word: expected an array of letters")
        word = tuple(
            letter if type(letter) is int else parse_int(letter, f"{tpath}.word[{j}]")
            for j, letter in enumerate(word_raw)
        )
        with at_path(f"{tpath}.word"):
            _validate_word(word, size)
        coeff = coeff_from_json(require(term_obj, "coeff", tpath), p, f"{tpath}.coeff")
        terms.append((word, coeff))
    with at_path(path):
        return Observable.from_terms(p, terms, prec)


# ---------------------------------------------------------------------------
# Two-sided search fixtures
# ---------------------------------------------------------------------------


def descent_fixture_from_json(
    doc: Any, path: str = "$"
) -> Tuple[List[frozenset], List[frozenset]]:
    """The lower and upper levels of a fixture.  Point labels are opaque;
    they are normalized to strings on parse.

    A fixture that contradicts itself is refused with the path of the level
    at fault: a lower level that loses a point of the level before it, an
    upper level that gains one, or a last lower level outside the last upper
    level.  With both chains monotone, the last test is every A_n <= B_m.
    """

    def levels(key: str) -> List[frozenset]:
        raw = require(doc, key, path)
        if not isinstance(raw, list) or not raw:
            raise DomainError(f"{path}.{key}: expected a nonempty array of levels")
        out = []
        for i, level in enumerate(raw):
            if not isinstance(level, list):
                raise DomainError(f"{path}.{key}[{i}]: expected an array")
            elems = set()
            for j, e in enumerate(level):
                if isinstance(e, bool) or not isinstance(e, (int, str)):
                    raise DomainError(
                        f"{path}.{key}[{i}][{j}]: point labels must be "
                        f"integers or strings"
                    )
                elems.add(str(e))
            out.append(frozenset(elems))
        return out

    lower, upper = levels("lower"), levels("upper")
    for i in range(1, len(lower)):
        if not lower[i] >= lower[i - 1]:
            raise DomainError(
                f"{path}.lower[{i}]: lower level {i} loses "
                f"{_display(lower[i - 1] - lower[i])} of level {i - 1}"
            )
    for i in range(1, len(upper)):
        if not upper[i] <= upper[i - 1]:
            raise DomainError(
                f"{path}.upper[{i}]: upper level {i} gains "
                f"{_display(upper[i] - upper[i - 1])} over level {i - 1}"
            )
    if not lower[-1] <= upper[-1]:
        raise DomainError(
            f"{path}.lower[{len(lower) - 1}]: certified points "
            f"{_display(lower[-1] - upper[-1])} escape the last upper level "
            f"{path}.upper[{len(upper) - 1}]"
        )
    return lower, upper


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------


def canonical_dumps(doc: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, ASCII only,
    where value is doc with ints as decimal strings, enums as their values,
    dataclasses as the objects of their fields, tuples as arrays and sets as
    arrays sorted by their elements' canonical values (``["12", "5"]``).

    One walk appends the pieces of the text, an int as itself, and they are
    converted and joined after it (a set's elements are converted to sort
    it, once the set is walked).  An int whose bit length puts it past the
    int/str digit limit is refused when the walk reaches it, anything else
    (a float, a non-string key, an unserializable value) after the walk."""
    pieces: List[Any] = []  # strs, and ints converted when the walk is done
    faults: List[InvariantError] = []
    try:
        _walk(doc, "\n", pieces, _unprintable_bits(), faults)
        if faults:
            raise faults[0]
        pieces.append("\n")
        return "".join(map(str, pieces))
    except ValueError:  # int -> str fails only past the digit limit
        raise _digit_limit_error() from None


def canonicalize(doc: Any) -> Any:
    """The canonical value of ``doc``: the parse of its canonical text."""
    return json.loads(canonical_dumps(doc))


def _walk(
    x: Any, newline: str, out: List[Any], min_bits: float, faults: list
) -> None:
    """Append the pieces of the text of ``x`` to ``out``, ``newline`` being a
    line break and x's indent; the plain types are tested first, by type."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is int:
        if x.bit_length() >= min_bits:
            raise _digit_limit_error()
        out += ('"', x, '"')
    elif t is dict:
        inner = newline + "  "
        sep = "{" + inner
        try:
            keys = sorted(x)
        except TypeError:  # keys of unlike types, refused below
            keys = list(x)
        for key in keys:
            if type(key) is not str and not isinstance(key, str):
                message = f"non-string key {key!r} reached the serializer"
                faults.append(InvariantError(message))
                _walk(x[key], inner, [], min_bits, faults)  # for its long ints
                continue
            out.append(sep + _quote(key) + ": ")
            _walk(x[key], inner, out, min_bits, faults)
            sep = "," + inner
        out.append("{}" if sep[0] == "{" else newline + "}")
    elif t is list or t is tuple:
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            out.append(sep)
            _walk(item, inner, out, min_bits, faults)
            sep = "," + inner
        out.append("[]" if sep[0] == "[" else newline + "]")
    elif t is bool or x is None:
        out.append(_LITERALS[x])
    elif isinstance(x, enum.Enum):  # before str and int: a mixin member is its value
        _walk(x.value, newline, out, min_bits, faults)
    elif isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, int):  # a subclass, kept unconverted as an int is
        if x.bit_length() >= min_bits:
            raise _digit_limit_error()
        out += ('"', x, '"')
    elif isinstance(x, (dict, list, tuple)):
        plain = dict(x) if isinstance(x, dict) else list(x)
        _walk(plain, newline, out, min_bits, faults)
    elif isinstance(x, (set, frozenset)):
        _walk(list(x), newline, [], min_bits, faults)  # refusals before the sort
        if not faults:
            _walk(sorted(x, key=_set_order), newline, out, min_bits, faults)
    elif is_dataclass(x) and not isinstance(x, type):
        record = {name: getattr(x, name) for name in _field_names(type(x))}
        _walk(record, newline, out, min_bits, faults)
    elif isinstance(x, float):
        message = f"float {x!r} reached the serializer; all arithmetic here is exact"
        faults.append(InvariantError(message))
    else:
        faults.append(InvariantError(f"unserializable value {x!r}"))


@cache
def _field_names(cls: type) -> Tuple[str, ...]:
    """The field names of a dataclass, looked up once per class."""
    return tuple(f.name for f in fields(cls))


def _set_order(x: Any) -> Any:
    """The canonical value of a set element, by which a set is sorted."""
    return str(x) if type(x) is int else x if type(x) is str else canonicalize(x)


_LITERALS = {True: "true", False: "false", None: "null"}


def _unprintable_bits() -> float:
    """The least bit length that proves an int past the int/str digit limit
    (+inf when the limit is lifted)."""
    limit = sys.get_int_max_str_digits()
    # 2^(b-1) > 10^limit once (b - 1) * 0.30102999 >= limit, and
    # 0.30102999 < log10(2)
    return -(-limit * 10**8 // 30102999) + 1 if limit else math.inf


def refuse_unprintable(bits: int) -> None:
    """Refuse, before computing it, an output int of at least ``bits`` bits."""
    if bits >= _unprintable_bits():
        raise _digit_limit_error()


def _digit_limit_error() -> DigitLimitError:
    return DigitLimitError(
        "an output integer has more decimal digits than this "
        f"interpreter's int/str limit of {sys.get_int_max_str_digits()}; "
        "raise PYTHONINTMAXSTRDIGITS (0 lifts it) to print it"
    )


def load_json_file(filename: str) -> Any:
    """The JSON document in ``filename``; every way of failing to read it is
    a DomainError that names the file."""
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise DomainError(f"input file {filename!r} not found") from exc
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte
        raise DomainError(f"cannot read {filename!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{filename}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise DomainError(f"{filename}: arrays or objects nested too deeply") from None
    except ValueError:  # the only other one: an int literal past the digit limit
        raise DomainError(
            f"{filename}: an integer literal has more digits than {_digit_limit()}"
        ) from None
