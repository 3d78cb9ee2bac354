"""Dense integer matrices with exact elimination routines.

Everything here runs on Python's arbitrary-precision int, so no entry can
overflow no matter how fast walk counts grow.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence


def check_int(value: object, what: str, least: int | None = None) -> None:
    """TypeError unless value is exactly an int (a bool, an int subclass such
    as an IntEnum member or a numpy integer, a float or a str is refused, never
    coerced), then ValueError if it is below least. what names the argument."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


def square_order(m: "IntMatrix") -> int:
    """The order of m: TypeError unless m is an IntMatrix, ValueError unless it is square."""
    if not isinstance(m, IntMatrix):
        raise TypeError(f"matrix must be an IntMatrix, got {type(m).__name__}")
    if m.rows != m.cols:
        raise ValueError(f"matrix must be square, got {m.rows}x{m.cols}")
    return m.rows


class IntMatrix:
    """Immutable dense integer matrix: a tuple of row tuples, which iterating it yields."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, data: Sequence[int]):
        check_int(rows, "matrix rows", 1)
        check_int(cols, "matrix cols", 1)
        if len(data) != rows * cols:
            raise ValueError(
                f"a {rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self._store(zip(*[iter(data)] * cols))

    def _store(self, rows: Iterable[tuple[int, ...]]) -> "IntMatrix":
        """Every constructor ends here: keep rows of one width >= 1 of exact ints; return self."""
        self._rows = tuple(rows)
        self.rows, self.cols = len(self._rows), len(self._rows[0])
        if any(len(r) != self.cols for r in self._rows):
            raise ValueError("all rows must have the same length")
        check_int(self.cols, "matrix cols", 1)
        for i, row in enumerate(self._rows):
            if set(map(type, row)) != {int}:
                j, x = next((j, x) for j, x in enumerate(row) if type(x) is not int)
                raise TypeError(f"matrix entry ({i}, {j}) must be an int, got {x!r}")
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        if not rows:
            raise ValueError("need at least one row")
        return cls.__new__(cls)._store(map(tuple, rows))

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        """The k x k identity; k as in check_int, at least 1."""
        check_int(k, "identity order", 1)
        return cls.from_rows([[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)])

    def row(self, i: int) -> tuple[int, ...]:
        if type(i) is not int:
            raise TypeError(f"row index must be an int, got {i!r}")
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} is out of range for a matrix of {self.rows} rows")
        return self._rows[i]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._rows)

    def to_rows(self) -> list[list[int]]:
        """Mutable copy as a list of row lists."""
        return [list(r) for r in self._rows]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The dense form of support_product: the product of the two
        operands' row supports, written out with its zeros."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = [[0] * other.cols for _ in range(self.rows)]
        for row, support in zip(out, support_product(row_support(self), row_support(other))):
            for j, x in support:
                row[j] = x
        return IntMatrix.from_rows(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._rows == other._rows  # every matrix has a row, so the rows fix the shape

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def row_support(m: IntMatrix) -> list[list[tuple[int, int]]]:
    """Per row, the (column, value) pairs of its nonzero entries, in
    increasing column order.

    Adjacency, characteristic and divisor matrices are mostly zeros, so
    products that walk this skip almost all of the work. The nonzero columns
    are picked by itertools.compress, so the Python loop visits only them.
    """
    cols = range(m.cols)
    return [[(j, row[j]) for j in compress(cols, row)] for row in m]


def support_product(
    left: list[list[tuple[int, int]]], right: list[list[tuple[int, int]]]
) -> list[list[tuple[int, int]]]:
    """The row supports of L·R, from the row supports of L and R.

    a * y is added to entry (i, j) for each nonzero a = L[i, k] and
    y = R[k, j], so the work is O(nnz) for sparse operands such as the
    adjacency, characteristic and divisor matrices. Each output row is in
    row_support's form: increasing columns, and no zero entry.
    """
    out = []
    for support in left:
        acc: dict[int, int] = {}
        for k, a in support:
            for j, y in right[k]:
                acc[j] = acc.get(j, 0) + a * y
        out.append([(j, x) for j, x in sorted(acc.items()) if x])
    return out


def _three_term_walk(m: IntMatrix, c: int) -> IntMatrix:
    """Matrix whose column 0 is the all-ones vector and whose column j+1 is
    m·(column j) − c·(column j−1), with column −1 zero.

    Columns are produced by sparse matrix-vector products; matrix powers are
    never formed.
    """
    k = square_order(m)
    support = row_support(m)
    prev = [0] * k
    v = [1] * k
    cols = [v]
    for _ in range(k - 1):
        nxt = []
        for row, back in zip(support, prev):
            acc = -c * back
            for j, val in row:
                acc += val * v[j]
            nxt.append(acc)
        prev, v = v, nxt
        cols.append(v)
    return IntMatrix.from_rows(list(zip(*cols)))


def walk_matrix(m: IntMatrix) -> IntMatrix:
    """The walk matrix W: its j-th column is m^j applied to the all-ones
    vector, j = 0..k-1 for a k x k matrix m."""
    return _three_term_walk(m, 0)


def chebyshev_walk_matrix(m: IntMatrix) -> IntMatrix:
    """W_E = W·U: its j-th column is E_j(m) applied to the all-ones vector,
    where E_0 = 1, E_1 = x and E_{j+1} = x·E_j − E_{j−1}, so that
    E_j(x) = U_j(x/2), the Chebyshev polynomial of the second kind.

    Each E_j is monic of degree j, so column j of U holds E_j's coefficients
    and U is upper unitriangular over Z: W_E has W's rank, its invariant
    factors and its distinct nonzero rows, one for one. When m's
    eigenvalues lie in [-2, 2], as for the extended Dynkin trees, the
    entries stay at a few bits, since |U_j(cos θ)| <= j + 1, where W's grow
    like 2^j.
    """
    return _three_term_walk(m, 1)


def _pick_pivot(a: list[list[int]], col: int, start: int, nrows: int) -> int:
    """Row index of the smallest-magnitude nonzero entry in a column, or -1."""
    best = -1
    best_abs = 0
    for i in range(start, nrows):
        v = a[i][col]
        if v:
            av = -v if v < 0 else v
            if best < 0 or av < best_abs:
                best, best_abs = i, av
                if av == 1:
                    break
    return best


def _bareiss(m: IntMatrix) -> tuple[int, int, int]:
    """Bareiss fraction-free elimination of the distinct nonzero rows of m.

    Returns (rank, sign of the row swaps, last pivot). Only the first copy of
    each row is eliminated, and zero rows are dropped: neither adds anything
    to the row space, so the rank is that of m. Walk matrices of graphs with
    automorphisms repeat many rows, so this often halves the work. A matrix
    with no repeated or zero row is eliminated exactly as given. Pivots are
    the nonzero column entries of least magnitude, which keeps the
    intermediate integers (all minors of the input) small; every division is
    exact. The sign and last pivot mean something only when the rank equals
    the number of rows of m, so that no row was dropped: for a square m,
    sign * last pivot is then the determinant.

    The elimination is left-looking. Each pivot step s leaves a record (its
    column, its pivot, the previous pivot) and its multipliers in its pivot
    column. Column c is brought up to date only when the loop reaches it, by
    replaying every earlier step on rows s+1.. of that column, in order. A
    row swap moves whole rows, and rows below every earlier pivot row are
    treated alike by those steps, so swapping before their replay is the
    same as after. Each entry therefore goes through the same divisions as
    in the right-looking order, where every step rewrites all later columns:
    the same minors, pivots, swaps and returned triple. The loop stops once
    every row holds a pivot, so the columns after the last pivot are never
    touched. In W of a graph of order k, with rank well below k, those are
    the widest columns (A^j·1 for large j).
    """
    a = [list(r) for r in dict.fromkeys(m) if any(r)]
    nrows, ncols = len(a), m.cols
    steps: list[tuple[int, int, int]] = []
    prev = 1
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for s, (cs, p, q) in enumerate(steps):
            xs = a[s][c]
            for row in a[s + 1 :]:
                f = row[cs]
                if f:
                    row[c] = (p * row[c] - f * xs) // q
                elif p != q:
                    row[c] = (p * row[c]) // q
        piv = _pick_pivot(a, c, r, nrows)
        if piv < 0:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        steps.append((c, p, prev))
        prev = p
        r += 1
    return r, sign, prev


def rank_fraction_free(m: IntMatrix) -> int:
    """Rank over the rationals via Bareiss fraction-free elimination."""
    return _bareiss(m)[0]


def det_exact(m: IntMatrix) -> int:
    """Exact integer determinant via the same fraction-free elimination."""
    k = square_order(m)
    rank, sign, last_pivot = _bareiss(m)
    return sign * last_pivot if rank == k else 0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES, the first thirteen primes
# (OEIS A014233; a product of two primes)
_MR_DETERMINISTIC_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    # deterministic Miller-Rabin for p < _MR_DETERMINISTIC_BELOW
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rank_modular(m: IntMatrix, p: int) -> int:
    """Rank of m reduced mod a prime p.

    Always a lower bound for the rational rank (strictly lower exactly when p
    divides some pivoting minor), so this is a consistency probe, not ground
    truth. Elimination runs on the distinct nonzero rows of m mod p, since a
    repeated or zero row adds nothing to the row space over GF(p). Moduli at
    or above _MR_DETERMINISTIC_BELOW are rejected, since primality is not
    certain there. The modulus is checked by check_int.
    """
    check_int(p, "modulus")
    if p >= _MR_DETERMINISTIC_BELOW:
        raise ValueError(
            f"modulus {p} is at or above {_MR_DETERMINISTIC_BELOW}, where the "
            "primality test is not deterministic"
        )
    if not _is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    # tuple() of a list: a tuple grown from a generator is resized as it
    # fills, which left 0.8 MB more peak memory over perfbench's matrix corpus
    reduced = (tuple([x % p for x in r]) for r in m)
    a = [list(r) for r in dict.fromkeys(reduced) if any(r)]
    nrows, ncols = len(a), m.cols
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), -1)
        if piv < 0:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        prow = a[r]
        for i in range(r + 1, nrows):
            f = a[i][c]
            if f:
                mult = f * inv % p
                arow = a[i]
                for j in range(c, ncols):
                    arow[j] = (arow[j] - mult * prow[j]) % p
        r += 1
    return r


def parse_ints(text: str) -> list[int]:
    """The integers of text, each ASCII `-?[0-9]+`, separated by spaces or tabs.

    int() also reads `1_000`, `+7` and non-ASCII digits such as `１`, and
    str.split() also splits at form feeds and other control characters; the
    text formats write none of these, and a text holding any raises ValueError.
    """
    if not text.isascii() or text.encode().translate(None, b"0123456789- \t"):
        raise ValueError(
            f"integers must be written as ASCII -?[0-9]+ separated by spaces or tabs, got {text!r}"
        )
    return list(map(int, text.split()))


def read_int_table(
    text: str, what: str, shape: Callable[[int, int], tuple[int, int]]
) -> tuple[int, int, list[int]]:
    """The header `a b` of a text format, and its body's integers in order.

    Blank lines and `#` lines are skipped; shape(a, b) gives the number of body
    lines and of integers on each. Lines end only at `\\n`, `\\r\\n` or
    `\\r`: str.splitlines() also ends them at a form feed, NEL or U+2028, which
    would read the tail of a comment as data. Only spaces and tabs are trimmed
    from a line's ends: str.strip() would also trim a form feed, NEL, U+2028
    or U+3000 there, hiding it from parse_ints, and skip a line of only such
    characters as blank. Every body line is parsed before the line count is
    checked, so a bad line is named even when it also makes the count wrong.
    """
    lines = [ln.strip(" \t") for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"empty {what}")
    head = parse_ints(lines[0])
    if len(head) != 2:
        raise ValueError(f"{what} header must be two integers, got {lines[0]!r}")
    count, width = shape(*head)
    data: list[int] = []
    for ln in lines[1:]:
        vals = parse_ints(ln)
        if len(vals) != width:
            raise ValueError(f"{what} lines must hold {width} integers each, got {ln!r}")
        data.extend(vals)
    if len(lines) != count + 1:
        raise ValueError(f"{what} header calls for {count} lines after it, got {len(lines) - 1}")
    return head[0], head[1], data


def format_matrix_text(m: IntMatrix) -> str:
    """Text form: header `rows cols`, then one space-separated row per line."""
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(str(x) for x in r) for r in m)
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> IntMatrix:
    """Inverse of format_matrix_text; `#` lines are ignored (see read_int_table)."""
    return IntMatrix(*read_int_table(text, "matrix text", lambda rows, cols: (rows, cols)))
