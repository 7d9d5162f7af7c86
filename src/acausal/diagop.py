"""Exact algebra of diagonal operators on labeled bit registers.

Every object in this package is diagonal in the computational basis, so an
operator is fully described by its diagonal vector. Two interchangeable
representations are used:

* parity (monomial) form: a sparse map ``mask -> coefficient``, where the
  mask stands for the +/-1 diagonal whose entry at basis string ``b`` is
  ``(-1) ** popcount(b & mask)`` -- a tensor product of identity and
  sigma_z factors, with sigma_z on exactly the masked bits;
* dense form: the full vector of ``2 ** width`` diagonal entries.

The two are related by the parity (Walsh) transform and interconvert
losslessly. Every coefficient is an exact dyadic rational, stored as an
integer numerator over one power of two shared by the whole operator,
``nums[mask] / 2**log2den``, in canonical form: zero terms are dropped and
``log2den`` is as small as possible. Equal operators therefore have equal
representations, every equality test is exact, and no floating point
enters the core. Only this module knows the format; ``Fraction`` values
appear at its boundary (constructor, ``terms``, ``to_dense``).

One GF(2) elimination, :func:`gf2_echelon`, serves the package: it gives
``process`` its kernels, and the dense side (:func:`is_nonnegative`,
:func:`to_dense`, :func:`dense_csv`) the coordinates in which an operator
whose masks span rank r has only ``2**r`` distinct dense entries. That is
the one route from parity form to dense entries; only the inverse,
:func:`from_dense`, transforms the ``2**width`` entries it is given.

The algebra is what the package uses: entrywise products, partial
traces and :func:`channel_apply`, which feeds a state to a channel. A
deterministic local channel ``o = t[v]`` on wires ``(O, I)`` is never
built here: its coefficient at the mask ``(s_O, s_I)`` is the character
sum ``sum_v (-1)^(s_O.t[v] + s_I.v)`` over ``2**(wo + wi)``, which
``process`` values on the integer table in O(2^wi) per mask, instead of a
Walsh transform of ``2**(wo + wi)`` entries.

Bit ordering convention: the first wire declared in a layout occupies the
most significant bits of the global basis index, and within a multi-bit
wire the first bit is the most significant. Conditional distributions
``P(x|y)`` over a layout ``(X, Y)`` therefore sit at index ``x * |Y| + y``.
All case-table fixtures depend on this ordering; it is fixed.

Values are immutable after construction and all operations are pure
functions, so everything here is safe for concurrent read-only use.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import chain, islice
from types import MappingProxyType
from typing import NamedTuple

__all__ = [
    "LayoutError",
    "FormatError",
    "MAX_LOG2DEN",
    "Wire",
    "WireLayout",
    "DiagOperator",
    "point_mass",
    "multiply",
    "partial_trace",
    "channel_apply",
    "to_dense",
    "from_dense",
    "is_nonnegative",
    "gf2_echelon",
    "dyadic_json",
    "fraction_json",
    "operator_to_json",
    "operator_from_json",
    "dense_csv",
    "parse_dense_csv",
]


class LayoutError(ValueError):
    """Operands disagree about wires, or a wire is unknown/duplicated."""


class FormatError(ValueError):
    """A serialized operator does not follow the JSON schema or the dense
    CSV format."""


class _Wire(NamedTuple):
    party: int | str
    kind: str
    width: int = 1


class Wire(_Wire):
    """One named bit register owned by a party.

    ``party`` is a party index, or the string ``"env"`` for free-standing
    registers; ``kind`` is the register label ("I", "O", or any label for
    env wires). The wire name is ``kind + str(party)`` for party-owned
    wires and just ``kind`` for env wires. Every path to a wire (the
    constructor, ``_make``, ``_replace``, copy and pickle) checks the width.
    """

    __slots__ = ()

    def __new__(cls, party: int | str, kind: str, width: int = 1):
        if width < 1:
            raise LayoutError(f"wire width must be >= 1, got {width}")
        return super().__new__(cls, party, kind, width)

    @classmethod
    def _make(cls, iterable) -> Wire:
        return cls(*iterable)

    @property
    def name(self) -> str:
        if isinstance(self.party, int):
            return f"{self.kind}{self.party}"
        return self.kind


class WireLayout:
    """Ordered wires fixing the global bit order of an operator.

    The first wire occupies the most significant bits; a zero-wire layout
    is allowed and describes scalars.
    """

    __slots__ = ("wires", "width", "_pos")

    def __init__(self, wires: Iterable[Wire]):
        self.wires = tuple(wires)
        self.width = sum(w.width for w in self.wires)
        pos = {}
        hi = self.width
        for w in self.wires:
            pos[w.name] = (hi - w.width, w.width)
            hi -= w.width
        if len(pos) != len(self.wires):
            names = [w.name for w in self.wires]
            raise LayoutError(f"duplicate wire names in layout: {names}")
        self._pos = pos

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._pos)

    def field(self, name: str) -> tuple[int, int]:
        """Return ``(shift, width)`` of a wire within the global index."""
        try:
            return self._pos[name]
        except KeyError:
            raise LayoutError(f"unknown wire {name!r}") from None

    def field_mask(self, name: str) -> int:
        shift, w = self.field(name)
        return ((1 << w) - 1) << shift

    def extract(self, index: int, name: str) -> int:
        """Value of one wire inside a global basis index."""
        shift, w = self.field(name)
        return (index >> shift) & ((1 << w) - 1)

    def pack(self, values: Mapping[str, int]) -> int:
        """Global basis index from a complete per-wire assignment."""
        if set(values) != set(self.names):
            raise LayoutError("assignment must cover exactly the layout wires")
        index = 0
        for w in self.wires:
            v = values[w.name]
            if not 0 <= v < (1 << w.width):
                raise ValueError(f"value {v} out of range for wire {w.name}")
            index = (index << w.width) | v
        return index

    def unpack(self, index: int) -> tuple[int, ...]:
        """Per-wire values of a global basis index, in layout order."""
        return tuple(self.extract(index, w.name) for w in self.wires)

    def restrict(self, names: Iterable[str]) -> "WireLayout":
        keep = set(names)
        unknown = keep - set(self.names)
        if unknown:
            raise LayoutError(f"unknown wires {sorted(unknown)}")
        return WireLayout(w for w in self.wires if w.name in keep)

    def __eq__(self, other):
        if not isinstance(other, WireLayout):
            return NotImplemented
        return self.wires == other.wires

    def __hash__(self):
        return hash(self.wires)

    def __repr__(self):
        return f"WireLayout({', '.join(f'{w.name}:{w.width}' for w in self.wires)})"


def _log2den(c: Fraction) -> int:
    d = c.denominator
    if d & (d - 1):
        raise ValueError(f"coefficient {c} is not dyadic (denominator {d})")
    return d.bit_length() - 1


def _dyadic_ints(values: Iterable[Fraction | int]) -> tuple[list[int], int]:
    """Numerators of exact dyadic values over their smallest common power of
    two; rejects any other rational."""
    fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    shifts = [_log2den(c) for c in fracs]
    log2den = max(shifts, default=0)
    return [c.numerator << (log2den - k) for c, k in zip(fracs, shifts)], log2den


def _spare_twos(values: Iterable[int], log2den: int) -> int:
    """Largest ``k <= log2den`` such that ``2**k`` divides every value."""
    common = 0
    for v in values:
        common |= v
    return min((common & -common).bit_length() - 1, log2den) if common else log2den


def _canonical(nums: Mapping[int, int], log2den: int) -> tuple[dict[int, int], int]:
    """Canonical form of ``nums[mask] / 2**log2den``: zero terms dropped and
    ``log2den`` as small as possible (never negative)."""
    up = max(-log2den, 0)
    nums = {m: v << up for m, v in nums.items() if v}
    shift = _spare_twos(nums.values(), log2den + up)
    if shift:
        nums = {m: v >> shift for m, v in nums.items()}
    return nums, log2den + up - shift


def _make(layout: WireLayout, nums: Mapping[int, int], log2den: int) -> "DiagOperator":
    """Operator with coefficients ``nums[mask] / 2**log2den`` (masks trusted)."""
    op = object.__new__(DiagOperator)
    op.layout = layout
    op.nums, op.log2den = _canonical(nums, log2den)
    op._terms = None
    return op


class DiagOperator:
    """Exact diagonal operator in sparse parity form over a layout.

    The coefficient of mask ``m`` is ``nums[m] / 2**log2den``, stored in
    canonical form (see the module docstring). The constructor takes masks
    mapped to ``Fraction``/``int`` values and rejects non-dyadic ones;
    ``terms`` is the read-only ``Fraction`` view of the coefficients, built
    on first use. Instances are immutable by convention.
    """

    __slots__ = ("layout", "nums", "log2den", "_terms")

    def __init__(self, layout: WireLayout, terms: Mapping[int, Fraction | int]):
        for mask, coeff in terms.items():
            if coeff and (mask < 0 or mask.bit_length() > layout.width):
                raise LayoutError(f"mask {mask:#x} outside layout width {layout.width}")
        nums, log2den = _dyadic_ints(terms.values())
        self.layout = layout
        self.nums, self.log2den = _canonical(dict(zip(terms, nums)), log2den)
        self._terms = None

    @property
    def terms(self) -> Mapping[int, Fraction]:
        if self._terms is None:
            den = 1 << self.log2den
            # Coefficients repeat a lot; share one Fraction per value.
            shared = {v: Fraction(v, den) for v in set(self.nums.values())}
            self._terms = MappingProxyType({m: shared[v] for m, v in self.nums.items()})
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, DiagOperator):
            return NotImplemented
        return (self.layout == other.layout and self.log2den == other.log2den
                and self.nums == other.nums)

    def __repr__(self):
        return f"DiagOperator({self.layout!r}, {len(self.nums)} terms)"


def point_mass(layout: WireLayout, index: int) -> DiagOperator:
    """The distribution putting probability 1 on one basis string."""
    n = 1 << layout.width
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for width {layout.width}")
    vec = [0] * n
    vec[index] = 1
    return from_dense(layout, vec)


def multiply(a: DiagOperator, b: DiagOperator) -> DiagOperator:
    """Entrywise (matrix) product of two operators on the same layout.

    In parity form the product of two monomials is the monomial with the
    XOR of their masks.
    """
    if a.layout != b.layout:
        raise LayoutError("layout mismatch in multiply")
    nums: dict[int, int] = {}
    for ma, va in a.nums.items():
        for mb, vb in b.nums.items():
            key = ma ^ mb
            nums[key] = nums.get(key, 0) + va * vb
    return _make(a.layout, nums, a.log2den + b.log2den)


def partial_trace(a: DiagOperator, wires: Iterable[str]) -> DiagOperator:
    """Sum the diagonal over the named wires.

    Terms whose mask touches a traced wire vanish; survivors are scaled by
    ``2 ** traced_width`` and live on the restricted layout. The kept bits
    are split once per call into runs of adjacent bits, so each survivor is
    repacked with one mask and one shift per run: tracing one wire leaves
    at most two runs.
    """
    traced = set(wires)
    traced_mask = 0
    for name in traced:
        traced_mask |= a.layout.field_mask(name)  # LayoutError if unknown
    kept = ((1 << a.layout.width) - 1) & ~traced_mask
    runs = []  # (a run of kept bits, the traced bits below it), low run first
    rest = kept
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)
        runs.append((run, low.bit_length() - 1 - (kept & (low - 1)).bit_count()))
        rest ^= run
    masks = [mask for mask in a.nums if not mask & traced_mask]
    packed = [0] * len(masks)
    for run, drop in runs:
        packed = [p | (mask & run) >> drop for p, mask in zip(packed, masks)]
    nums = {p: a.nums[mask] for p, mask in zip(packed, masks)}
    out_layout = a.layout.restrict(w.name for w in a.layout.wires if w.name not in traced)
    return _make(out_layout, nums, a.log2den - traced_mask.bit_count())


def channel_apply(channel: DiagOperator, state: DiagOperator) -> DiagOperator:
    """Feed a state into the conditioning wires of a channel.

    ``channel`` is a conditional distribution whose layout contains all of
    the state's wires, at the same widths; the result is
    ``Tr_cond(channel * (1_out (x) state))`` over the remaining (output)
    wires. ``1_out (x) state`` has the state's coefficients, each mask
    moved wire by wire onto the channel's layout. The call forms one
    product per pair of channel and state terms, then traces the state's
    wires with :func:`partial_trace`; a product state is therefore cheaper
    fed one factor at a time, each call tracing only that factor's wires.
    """
    layout = channel.layout
    moves = []  # (shift in the state, field mask, shift in the channel)
    for w in state.layout.wires:
        shift, width = layout.field(w.name)  # LayoutError if the channel lacks it
        if width != w.width:
            raise LayoutError(f"wire {w.name} has width {w.width} in the state, "
                              f"{width} in the channel")
        moves.append((state.layout.field(w.name)[0], (1 << width) - 1, shift))
    nums = {sum(((m >> src) & field) << dst for src, field, dst in moves): v
            for m, v in state.nums.items()}
    return partial_trace(multiply(channel, _make(layout, nums, state.log2den)),
                         state.layout.names)


def _wht(vec: list[int]) -> None:
    """In-place unnormalized Walsh-Hadamard transform (self-inverse up to N)."""
    n = len(vec)
    h = 1
    while h < n:
        step = h << 1
        for i in range(0, n, step):
            for j in range(i, i + h):
                x = vec[j]
                y = vec[j + h]
                vec[j] = x + y
                vec[j + h] = x - y
        h = step


def _span(vectors: Iterable[int]) -> list[int]:
    """XOR of the ``vectors`` picked by the set bits of each index below
    ``2**len(vectors)``, the first vector on the least significant bit:
    the GF(2) span, listed in that order when the vectors are independent."""
    span = [0]
    for v in vectors:
        span += [s ^ v for s in span]
    return span


def _dense_tables(a: DiagOperator) -> tuple[list[int], list[int], list[int]]:
    """``(vals, high, low)`` with the dense entry at ``x`` equal to
    ``vals[high[x >> h] ^ low[x & (2**h - 1)]]`` over ``2**a.log2den``,
    ``h = width // 2``: two index tables of ``2**(width / 2)`` entries each
    place the ``2**rank`` values of :func:`_rank_transform`."""
    vals, cols = _rank_transform(a)
    h = a.layout.width // 2
    return vals, _span(cols[h:]), _span(cols[:h])


def to_dense(a: DiagOperator) -> list[Fraction]:
    """Full diagonal vector, indexed by the global basis string.

    The ``2**rank`` distinct entries come from :func:`_rank_transform` and
    are placed by table lookup, so no transform runs on ``2**width``
    entries and equal entries share one ``Fraction``.
    """
    den = 1 << a.log2den
    vals, high, low = _dense_tables(a)
    fracs = [Fraction(v, den) for v in vals]
    return [fracs[y ^ z] for y in high for z in low]


def from_dense(layout: WireLayout, values: Sequence[Fraction | int]) -> DiagOperator:
    """Parity form of a dense diagonal; exact inverse of :func:`to_dense`."""
    n = 1 << layout.width
    if len(values) != n:
        raise ValueError(f"dense vector must have length {n}, got {len(values)}")
    vec, log2den = _dyadic_ints(values)
    _wht(vec)
    return _make(layout, {m: v for m, v in enumerate(vec) if v}, log2den + layout.width)


def gf2_echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Reduced echelon basis of the GF(2) span of bit vectors: each row
    keyed by its pivot, its highest set bit, and every pivot set in its own
    row only. The number of rows is the rank."""
    rows: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p not in rows:
                break
            v ^= rows[p]
        if v:
            # v is new: clear the lower pivots from it, then its pivot p
            # from the rows above.
            for q, r in rows.items():
                if v >> q & 1:
                    v ^= r
            for q, r in list(rows.items()):
                if r >> p & 1:
                    rows[q] = r ^ v
            rows[p] = v
    return rows


def _rank_transform(a: DiagOperator, rows: dict[int, int] | None = None
                    ) -> tuple[list[int], list[int]]:
    """The ``2**rank`` distinct dense entries of ``a`` and where they sit.

    The entry at ``x`` is ``sum_s c_s (-1)**(s.x)``: it depends on ``x`` only
    through the functional ``s -> s.x`` on the span of the masks, and every
    such functional occurs. The bits at the pivots of :func:`gf2_echelon`
    map that span linearly and bijectively onto GF(2)**rank, so ``vals``,
    the Walsh transform of the coefficients in those coordinates, lists
    every dense entry, as numerators over ``2**a.log2den``. The rows being
    reduced, row j is the span element at the j-th unit vector, and the
    entry at ``x`` is ``vals[y]`` with ``y_j = parity(row_j & x)``: the XOR
    of ``cols[b]``, the coordinates whose rows hold layout bit b, over the
    set bits b of ``x``. ``rows``, when given, is ``gf2_echelon(a.nums)``
    already computed by the caller.
    """
    if rows is None:
        rows = gf2_echelon(a.nums)
    pivots = sorted(rows)
    vals = [0] * (1 << len(pivots))
    for mask, v in a.nums.items():
        vals[sum(((mask >> p) & 1) << j for j, p in enumerate(pivots))] = v
    _wht(vals)
    cols = [sum(((rows[p] >> b) & 1) << j for j, p in enumerate(pivots))
            for b in range(a.layout.width)]
    return vals, cols


def is_nonnegative(a: DiagOperator, rows: dict[int, int] | None = None) -> bool:
    """True iff every dense entry is >= 0 (positive semi-definiteness for
    diagonal operators), decided on the ``2**rank`` distinct entries of
    :func:`_rank_transform`, each repeated ``2**(width - rank)`` times in
    the dense vector. A caller that already holds ``gf2_echelon(a.nums)``
    passes it as ``rows`` and saves the elimination.

    A group sum has all-one coefficients, whose transform is ``2**rank`` at
    zero and 0 elsewhere: the sum is positive semi-definite.
    """
    return all(v >= 0 for v in _rank_transform(a, rows)[0])


# ---------------------------------------------------------------------------
# serialization: JSON operator schema and dense CSV
# ---------------------------------------------------------------------------

def dyadic_json(value: Fraction | int) -> dict:
    """``{"num", "log2den"}`` form of a dyadic rational in lowest terms."""
    value = Fraction(value)
    return {"num": value.numerator, "log2den": _log2den(value)}


def fraction_json(value: Fraction | int) -> dict:
    """``{"num", "den"}`` form of any rational in lowest terms."""
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator}


MAX_LOG2DEN = 1024
"""Largest denominator exponent the JSON and CSV parsers accept; every
operator and dense entry the package writes stays far below it. A larger
exponent is refused with :class:`FormatError` before any numerator is
shifted by it."""


def _parsed_log2den(log2den: int, where: str) -> int:
    """``log2den`` once it is known to lie in ``0..MAX_LOG2DEN``."""
    if not 0 <= log2den <= MAX_LOG2DEN:
        raise FormatError(f"{where}: log2den must lie in 0..{MAX_LOG2DEN}, got {log2den}")
    return log2den


def _field(obj, key: str, where: str, *kinds: type):
    """``obj[key]``, checked to exist and to have one of the JSON types."""
    if not isinstance(obj, Mapping) or key not in obj:
        raise FormatError(f"{where} must be an object with a {key!r} field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise FormatError(f"{where}: {key!r} must be {names}, got {type(value).__name__}")
    return value


def _wire_from_json(obj, where: str) -> Wire:
    return Wire(party=_field(obj, "party", where, int, str),
                kind=_field(obj, "kind", where, str),
                width=_field(obj, "width", where, int))


def operator_to_json(a: DiagOperator) -> dict:
    """JSON form: layout plus sorted terms with dyadic coefficients."""
    return {
        "layout": [
            {"party": w.party, "kind": w.kind, "width": w.width} for w in a.layout.wires
        ],
        "terms": [
            {"mask": f"{mask:#x}", **dyadic_json(c)}
            for mask, c in sorted(a.terms.items())
        ],
    }


def operator_from_json(obj) -> DiagOperator:
    """Operator from its JSON form; a document that breaks the schema, or
    lists one mask twice, raises :class:`FormatError`."""
    wires = _field(obj, "layout", "operator", list)
    terms = _field(obj, "terms", "operator", list)
    layout = WireLayout(_wire_from_json(w, f"layout[{i}]") for i, w in enumerate(wires))
    parsed = {}
    index = {}  # mask -> the term that gave it
    for i, t in enumerate(terms):
        where = f"terms[{i}]"
        text = _field(t, "mask", where, str)
        try:
            mask = int(text, 16)
        except ValueError:
            raise FormatError(f"{where}: mask {text!r} is not a hex string") from None
        if mask in index:
            raise FormatError(f"{where}: mask {text!r} repeats the mask of terms[{index[mask]}]")
        index[mask] = i
        num = _field(t, "num", where, int)
        log2den = _parsed_log2den(_field(t, "log2den", where, int), where)
        if num and (mask < 0 or mask.bit_length() > layout.width):
            raise LayoutError(f"mask {mask:#x} outside layout width {layout.width}")
        parsed[mask] = (num, log2den)
    log2den = max((k for _, k in parsed.values()), default=0)
    return _make(layout, {m: v << (log2den - k) for m, (v, k) in parsed.items()}, log2den)


_CSV_HEADER = "index,numerator,log2_denominator"
_CSV_BLOCK = 1000
# Row r of the first block, and row r of block p >= 1 after the prefix
# str(p): the index of row p * 1000 + r is str(p) + f"{r:03d}".
_FIRST_ROWS = [f"{r},%s\n" for r in range(_CSV_BLOCK)]
_BLOCK_ROWS = [f"{r:03d},%s\n" for r in range(_CSV_BLOCK)]


def dense_csv(a: DiagOperator) -> str:
    """Dense CSV text: the header ``index,numerator,log2_denominator``,
    then one row per dense entry, in lowest terms, each line ending in a
    newline.

    Like :func:`to_dense`, it takes the rank route: each of the ``2**rank``
    distinct entries is reduced and formatted once, and the rows take
    their texts by lookup. Rows are written 1,000 at a time with one
    ``%``-format each: block p >= 1 joins the cached rows ``000,%s`` ..
    ``999,%s`` with its prefix ``str(p)``, so no per-row string is made.
    """
    vals, high, low = _dense_tables(a)
    texts = []
    for v in vals:
        shift = _spare_twos((v,), a.log2den)
        texts.append(f"{v >> shift},{a.log2den - shift}")
    entries = chain.from_iterable([texts[y ^ z] for z in low] for y in high)
    total = len(high) * len(low)
    parts = [_CSV_HEADER + "\n"]
    for p in range((total + _CSV_BLOCK - 1) // _CSV_BLOCK):
        count = min(total - p * _CSV_BLOCK, _CSV_BLOCK)
        if p:
            prefix = str(p)
            template = prefix + prefix.join(_BLOCK_ROWS[:count])
        else:
            template = "".join(_FIRST_ROWS[:count])
        parts.append(template % tuple(islice(entries, count)))
    return "".join(parts)


def parse_dense_csv(lines: Iterable[str]) -> list[Fraction]:
    """Dense diagonal from CSV rows, skipping blank lines and the header
    when it is the first non-blank line; any other row that is not three
    integers with the next index, or whose ``log2den`` exceeds
    :data:`MAX_LOG2DEN`, raises :class:`FormatError` naming its line
    number."""
    values = []
    header = True  # no non-blank line read yet
    for row, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        if header:
            header = False
            if line == _CSV_HEADER:
                continue
        try:
            idx, num, log2den = map(int, line.split(","))
        except ValueError:
            raise FormatError(f"line {row}: expected three integers, got {line!r}") from None
        if idx != len(values):
            raise FormatError(f"line {row}: need index {len(values)}, got {line!r}")
        values.append(Fraction(num, 1 << _parsed_log2den(log2den, f"line {row}")))
    return values
