"""Exact, sieve-backed ground truth at desk scale.

Conventions, fixed once for all counting functions: counts run over integers
n <= floor(x); "prime <= y" means p <= floor(y); divisor thresholds d > z are
strict.  P+(1) = 1 and P-(1) = infinity, so n = 1 is y-smooth and y-rough for
every y, and its largest y-smooth divisor is 1.

One sieve of Eratosthenes, _mark_rough, flags the rough odd numbers of one
block at a time (Bays and Hudson, BIT 17, 1977).  The primes up to n are
those up to sqrt(n), listed one level down, and those left in the blocks
above: :func:`sieve_primes` lists them for :func:`build_sieve`, and
:func:`zeta_one_y` takes its Euler product block by block.  A
:class:`SieveTables` holds only that list and its bound, which serve a count
over any x below 2**63, and builds the smallest-prime-factor table
``SieveTables.spf`` only if read.  Counting loops are vectorized:

* smooth numbers are enumerated in O(output) by one stream, _smooth_pieces:
  walking the primes in order, a number retires once it is too large to take
  the current prime, so only the still-live numbers are multiplied (smooth
  numbers are sparse, so generation beats scanning).  s_exact,
  weighted_smooth_sum and theta_exact_decomposed read the stream piece by
  piece, smooth_numbers copies it into one array, and psi_exact counts the
  same walk without forming the products;
* theta_exact computes smooth parts one cache-sized block of o prime to 6
  at a time, in O(block) memory, each block starting from a wheel
  (Pritchard, Acta Informatica 17, 1982) kept between calls: n = 2**a *
  3**b * o has n_y = 2**a * 3**b * o_y for y >= 3, so a block serves every
  3-smooth 2**a * 3**b;
* phi_exact and theta_exact_decomposed count rough numbers one block at a
  time; theta_exact_decomposed sums phi(x/d, y) over smooth d > z, so its
  counts go only to x/(floor(z) + 1).

No count holds an array to x, so x costs time, not memory: every count first
refuses work estimated past WORK_BUDGET (:func:`_check_work`).

All reciprocal sums use exactly rounded compensated summation (math.fsum), so
results are independent of enumeration order.

The Monte Carlo oracle for the DSA risk probability uses the counter-based,
splittable Philox PRNG (numpy) with a fixed key; reruns with the same seed are
byte-identical.  Samples below 2**62 find their smooth parts in uint64 by
multiplying with inverses mod 2**64 (:func:`_smooth_parts_int64`), larger
ones by Bernstein's batch algorithm ("How to find smooth parts of
integers", 2004): one residue of the primorial modulo the product of each
group of samples, then a remainder tree down the group's product tree, so
each sample is reduced at its own size (:func:`_smooth_parts_grouped`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import special
from .convolution import DEFAULT_NUMERICS, Numerics
from .errors import DomainError, ResourceError
from .params import DsaParams, ScaledParams

#: Default sieve memory ceiling (table entries).
DEFAULT_SIEVE_CEILING = 2**31

#: The most work, in ns, a count may be estimated to need (2.5 minutes), at
#: measured ns (shared 2-vCPU VM) per integer a block covers (rough flags
#: 0.1-2, theta_exact 0.3-12 at x = 1e6-1e8 and y = 10-1e5, up to 21 at
#: x = 1e5, the Euler product 5.7) and per smooth number
#: walked (psi_exact 7-16, theta_exact_decomposed 16), summed (s_exact 33-39)
#: or weighed (weighted_smooth_sum 190-340, measured while it held every d).
WORK_BUDGET = 150e9
_NS_BLOCKED, _NS_WALKED, _NS_SUMMED, _NS_WEIGHED = 6, 16, 40, 250

#: Elements per chunk of _fsum_chunked, and products per batch of _smooth_pieces.
_CHUNK = 1 << 16

#: Entries per block: of theta_exact, integers prime to 6 (1 MB of uint32
#: smooth parts), and of _mark_rough, odd numbers (256 KB of flags, 1 MB of
#: int32 running count in theta).
_BLOCK = 1 << 18

#: Period of theta_exact's wheel, 5**2 * 7 * 11 * 13, prime to 6: its pattern
#: spans 2 * period entries, 6 * period integers, and a block starts as a copy
#: of the products of the prime powers dividing it (0.19 MiB of uint32) instead
#: of two strides each.  One wheel only: a second (19 * 23 * 29) makes each
#: block a uint32 multiply, not a copy, which costs more than the strides it
#: saves (theta_exact 2-5 % slower).
_WHEEL = 25025

#: Prime powers that hit a theta_exact block at most _BLOCK // _SPARSE times,
#: in a full block those from this one up, go in at once, by np.multiply.at.
#: So do the hits of the primes from this one up in a block of rough flags.
_SPARSE = 1 << 10

#: The 3-smooth numbers 2**a * 3**b below 2**32, ascending.
_SMOOTH3 = np.array(sorted(2**a * 3**b for a in range(32) for b in range(21)
                           if 2**a * 3**b < 2**32), dtype=np.int64)

#: The wheel pattern theta_exact last built, read-only, by its key.
_wheel_cache: dict[tuple, np.ndarray] = {}

#: The primes below 100: the fixed base of every prime list.
_SMALL_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                          67, 71, 73, 79, 83, 89, 97], dtype=np.int64)

#: Samples per block of the int64 Monte Carlo (512 KB of uint64 each).
_SAMPLE_BLOCK = 1 << 16

#: Samples per group of the big-int Monte Carlo: the primorial is reduced
#: once modulo the product of each group, then down the group's remainder tree.
_GCD_GROUP = 64


def _require_not_nan(**values) -> None:
    """NaN compares false with everything, so a NaN bound would silently
    select nothing (or everything); reject it."""
    for name, v in values.items():
        if math.isnan(v):
            raise DomainError(f"{name} must not be NaN")


class WeightKind(Enum):
    """Weight applied to the reciprocal smooth-divisor sums."""

    BUCHSTAB_OMEGA = "buchstab_omega"
    DICKMAN_RHO = "dickman_rho"


@dataclass(frozen=True, eq=False)
class SieveTables:
    """Every prime p <= ``limit``, ascending, as int64.

    No count needs more than the prime list (smooth parts are found by trial
    division over the primes that divide n), and none reads a prime above
    min(y, x): a table to that bound serves a count over any x < 2**63.
    ``primes_upto`` refuses a bound past ``limit``.  Immutable after
    construction; shareable across threads.
    """

    limit: int
    primes: np.ndarray

    def primes_upto(self, y: float) -> np.ndarray:
        """Primes p <= y from the table (requires floor(y) <= limit)."""
        _require_not_nan(y=y)
        if y >= self.limit + 1:  # floor(y) > limit; also y = +inf
            raise ResourceError(f"primes up to {y} exceed the sieve limit {self.limit}")
        if y < 2:  # also y = -inf, which has no floor
            return self.primes[:0]
        hi = int(np.searchsorted(self.primes, math.floor(y), side="right"))
        return self.primes[:hi]

    @functools.cached_property
    def spf(self) -> np.ndarray:
        """Smallest-prime-factor table, uint32, built on first access (4 bytes
        per entry): ``spf[n]`` is the least prime factor of n for
        2 <= n <= limit, spf[0] = 0 and spf[1] = 1.  No count reads it."""
        spf = np.zeros(self.limit + 1, dtype=np.uint32)
        # A composite n has its least prime factor p with p*p <= n.  Writing
        # the primes up to sqrt(limit) in descending order lets the smallest
        # prime dividing n write spf[n] last.
        for p in self.primes_upto(math.isqrt(self.limit))[::-1].tolist():
            spf[p * p :: p] = p
        spf[self.primes] = self.primes
        spf[1] = 1
        return spf


def sieve_primes(n: int) -> np.ndarray:
    """Primes p <= n (n >= 0), ascending, as int64, from :func:`_prime_blocks`
    into one array allocated first, at pi(n) < 1.25506 n / ln n (Rosser and
    Schoenfeld, 1962), so a list too large is refused at once; cut in place."""
    try:
        primes = np.empty(int(1.25506 * n / math.log(max(n, 2))) + 1, dtype=np.int64)
    except (MemoryError, ValueError):  # numpy refuses an array this large
        raise ResourceError(f"a prime sieve up to {n} does not fit in memory") from None
    k = 0
    for piece in _prime_blocks(n):
        primes[k : k + piece.size] = piece
        k += piece.size
    primes.resize(k, refcheck=False)  # no view of it is alive
    return primes


def _prime_blocks(n: int):
    """The primes p <= n as ascending int64 arrays: those up to r = sqrt(n)
    (below 100, a fixed base, so every n < 10**4 sieves one level), then
    those left in each block of flags over (r, n]."""
    if n < 100:
        yield _SMALL_PRIMES[_SMALL_PRIMES <= n]
        return
    r = math.isqrt(n)
    yield (base := sieve_primes(r))
    start = r + r % 2  # even, and start + 1 > r
    flags = np.empty(min(_BLOCK, (n + 1 - start) // 2), dtype=bool)
    for lo in range(start, n, 2 * flags.size):
        yield 2 * np.flatnonzero(_mark_rough(flags[: (n + 1 - lo) // 2], lo, base)) + (lo + 1)


def build_sieve(limit: int, ceiling: int = DEFAULT_SIEVE_CEILING) -> SieveTables:
    """The primes up to ``limit`` (deterministic); ``limit`` is at most ``ceiling``."""
    limit = int(limit)
    if limit < 2:
        raise DomainError("sieve limit must be at least 2")
    if limit > ceiling:
        raise ResourceError(f"sieve limit {limit} exceeds the ceiling {ceiling}")
    return SieveTables(limit=limit, primes=sieve_primes(limit))


def _count_bound(name: str, v: float) -> int:
    """floor(v) for a count over the integers up to v.  v must be finite,
    and below 2**63: the enumerations and trial division run in int64."""
    try:
        fv = math.floor(v)
    except (OverflowError, ValueError):  # an infinity or NaN has no floor
        raise DomainError(f"{name} must be finite") from None
    if fv >= 2**63:
        raise ResourceError(f"{name}={v} reaches 2^63, past the int64 counts")
    return fv


def smooth_part(n: int, y: float, t: SieveTables) -> int:
    """n_y: the largest y-smooth divisor of n (product of p^a || n with p <= y).

    Trial division by the primes p <= min(y, n) that divide n, found in one
    vectorized ``n % p`` over the table's primes.
    """
    _require_not_nan(y=y)
    n = _count_bound("n", n)
    if n < 1:
        raise DomainError("smooth_part requires n >= 1")
    primes = t.primes_upto(min(y, n))
    s = 1
    for p in primes[n % primes == 0].tolist():
        while n % p == 0:
            n //= p
            s *= p
    return s


def _rankin(cap: int, primes: np.ndarray) -> float:
    """Rankin's bound cap**s * prod (1 - p**-s)**-1 on the n <= cap with prime
    factors in ``primes``, at its least over 0 < s <= 1 (Newton's method in a
    bracket), or cap if less."""
    if not primes.size:  # only n = 1
        return 1.0
    logp, log_cap = np.log(primes), math.log(cap)
    lo, hi, s, best = 0.0, 1.0, 0.5, log_cap
    for _ in range(40):
        q = np.expm1(-s * logp)  # p**-s - 1
        best = min(best, s * log_cap - float(np.log(-q).sum()))
        r = -1.0 / q - 1.0  # 1 / (p**s - 1)
        slope = log_cap - float(logp @ r)  # of the log of the bound
        lo, hi = (s, hi) if slope < 0 else (lo, s)
        step = s - slope / float((logp * logp) @ (r * (1.0 + r)))
        s = step if lo < step < hi else (lo + hi) / 2
    return math.exp(best)


def _check_work(what: str, blocked: float, cap: int = 0, primes=None, ns=_NS_WALKED) -> None:
    """Refuse, before it starts, a count whose work passes WORK_BUDGET: the
    ``blocked`` integers its blocks cover and the smooth numbers up to ``cap``
    over ``primes`` it walks, at ``ns`` each.  Those are at most cap, and where
    that does not settle it, at most Rankin's bound; past 2**16 primes (p >
    8.2e5) that stays above any cap past the budget, so is not computed."""
    work = blocked * _NS_BLOCKED + cap * ns
    if work > WORK_BUDGET and cap > 0 and primes.size <= 1 << 16:
        work += (_rankin(cap, primes) - cap) * ns
    if work > WORK_BUDGET:
        raise ResourceError(f"{what} needs an estimated {work / 1e9:.3g} s of work, "
                            f"past the budget of {WORK_BUDGET / 1e9:g} s")


# -- smooth-number enumeration ---------------------------------------------------


def _split_at_sqrt(primes, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= cap (ascending), split into those with p^2 <= cap and the rest."""
    primes = np.asarray(primes, dtype=np.int64)
    primes = primes[primes <= cap]
    split = int(np.searchsorted(primes, math.isqrt(cap), side="right"))
    return primes[:split], primes[split:]


def _walk_small(small: np.ndarray, cap: int):
    """Walk the primes ``small`` (ascending, each p^2 <= cap) from the live set {1}.

    At prime p the live numbers above cap // p can take neither p nor any later
    prime, so they retire; only the rest are multiplied by p, p^2, ...  Yields
    each prime's retired numbers, then the sorted final live set, which is
    always the last array yielded.
    """
    live = np.ones(1, dtype=np.int64)
    for p in small.tolist():
        top = cap // p
        keep = live <= top
        yield live[~keep]
        pieces = [cur := live[keep]]
        while cur.size:
            cur = cur * p
            pieces.append(cur)
            cur = cur[cur <= top]
        live = np.concatenate(pieces)
    live.sort()
    yield live


def _smooth_pieces(primes, cap: int):
    """The integers in [1, cap] whose prime factors lie in ``primes``, as a
    stream of arrays: the retired numbers of the walk, the final live set,
    then ``live[:c] * p`` for each prime p above sqrt(cap) in ascending order,
    batched into pieces of about _CHUNK products (one gather and one multiply
    each).  Such a p enters a number at most once, so its products come
    straight from the sorted live set.  Memory is one piece plus the live set."""
    small, large = _split_at_sqrt(primes, cap)
    for piece in _walk_small(small, cap):
        yield piece
    live = piece  # the walk yields the final live set last
    counts = np.searchsorted(live, cap // large, side="right")  # live[:c] * p <= cap
    ends = np.cumsum(counts)
    starts = ends - counts  # each prime's first slot in the stream of products
    i = 0
    while i < large.size:
        j = max(i + 1, int(np.searchsorted(ends, starts[i] + _CHUNK, side="right")))
        idx = np.arange(starts[i], ends[j - 1]) - np.repeat(starts[i:j], counts[i:j])
        yield np.repeat(large[i:j], counts[i:j]) * live[idx]
        i = j


def _count_smooth(primes, cap: int) -> int:
    """How many integers :func:`_smooth_pieces` yields: one walk, and no
    product of a prime above sqrt(cap) is formed."""
    small, large = _split_at_sqrt(primes, cap)
    n = 0
    for piece in _walk_small(small, cap):
        n += piece.size
    live = piece  # the walk yields the final live set last
    return n + int(np.searchsorted(live, cap // large, side="right").sum())


def smooth_numbers(primes, bound: float) -> np.ndarray:
    """All integers <= bound whose prime factors all lie in ``primes`` (ascending).

    The pieces of :func:`_smooth_pieces`, copied in stream order into one
    array sized beforehand by :func:`_count_smooth`, so the peak memory is the
    output plus the largest live set or piece.  The work grows with the
    output plus the number of primes, not with their product.  Returns an
    unsorted int64 array (containing 1 when bound >= 1); order never matters
    downstream because counts ignore it and the reciprocal sums are exactly
    rounded.
    """
    cap = _count_bound("bound", bound)
    if cap < 1:
        return np.zeros(0, dtype=np.int64)
    out = np.empty(_count_smooth(primes, cap), dtype=np.int64)
    pos = 0
    for piece in _smooth_pieces(primes, cap):
        out[pos : pos + piece.size] = piece
        pos += piece.size
    return out


# -- exact counting functions ------------------------------------------------------


def psi_exact(x: float, y: float, t: SieveTables) -> int:
    """#{n <= x : P+(n) <= y}, counted by one walk of the smooth-number
    enumeration: the retired numbers, the final live set, and for each prime
    above sqrt(x) the length of the live prefix it multiplies.  No array of
    smooth numbers is formed."""
    _require_not_nan(y=y)
    fx = _count_bound("x", x)
    if fx < 1:
        return 0
    primes = t.primes_upto(min(y, fx))
    _check_work("psi(x, y)", 0, fx, primes[: np.searchsorted(primes, math.isqrt(fx), "right")])
    return _count_smooth(primes, fx)


def _mark_rough(out: np.ndarray, lo: int, primes: np.ndarray) -> np.ndarray:
    """Set out[i] to whether lo + 2i + 1 is rough, P-(lo + 2i + 1) > y (for y >= 2
    no rough n > 1 is even), and return ``out``; lo is even, and ``primes`` holds
    every prime p <= y up to the block's end, ascending.  The odd p up to the
    end's square root sieve from flag -(lo + 1) * (p + 1)/2 mod p, by strides
    below _SPARSE and one scattered write above: O(pi(sqrt(x))) at any y."""
    out.fill(True)
    end = lo + 2 * out.size
    sieving = primes[1 : int(np.searchsorted(primes, math.isqrt(end - 1), side="right"))]
    split = int(np.searchsorted(sieving, _SPARSE))
    for p in sieving[:split].tolist():
        out[-(lo + 1) * (p + 1) // 2 % p :: p] = False
    big = sieving[split:]
    if big.size:  # only a block that ends past _SPARSE**2 has any
        first = -(lo + 1) % big * ((big + 1) // 2) % big  # below p, so a short block may miss p
        hits = (out.size - 1 - first) // big + 1
        k = np.arange(hits.sum()) - np.repeat(np.cumsum(hits) - hits, hits)  # k-th hit of its prime
        out[np.repeat(first, hits) + k * np.repeat(big, hits)] = False
    a, b = np.searchsorted(primes, [lo, end]).tolist()
    out[(primes[max(a, 1) : b] - lo) // 2] = False  # the odd primes <= y left
    return out


def phi_exact(x: float, y: float, t: SieveTables) -> int:
    """#{n <= x : P-(n) > y}, one block at a time; n = 1 counts (P-(1) = inf)."""
    _require_not_nan(y=y)
    fx = _count_bound("x", x)
    if fx < 1:
        return 0
    if y < 2:  # every n is rough; the blocks flag odd n only
        return fx
    primes = t.primes_upto(min(y, fx))
    _check_work("phi(x, y)", fx)
    rough = np.empty(min(_BLOCK, (fx + 1) // 2), dtype=bool)
    return sum(int(np.count_nonzero(_mark_rough(rough[: (fx + 1 - lo) // 2], lo, primes)))
               for lo in range(0, fx, 2 * rough.size))


def _c6(t):
    """#{o <= t : gcd(o, 6) = 1} for t >= 0, an int or an int64 array: the
    odd o <= t less the odd multiples of 3."""
    return (t + 1) // 2 - (t + 3) // 6


def _hit_residues(q):
    """The residues mod 2q of the entries j whose o_j = 3j + 1 + j % 2 the
    q prime to 6 divides (an int or an int64 array): o_j is q or 5q mod 6q."""
    return q // 3, 5 * q // 3


def _wheel_pattern(period: int, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """pattern[j] = the product of p over the prime powers q = p**a in ``qs``
    that divide o_j = 3j + 1 + j % 2, the j-th integer prime to 6, for
    0 <= j < 2 * ``period``.  Every q divides ``period``, which is prime to 6,
    and o_(j + 2 period) = o_j + 6 period, so pattern[i % (2 period)] is their
    share of o_y at entry i, counted from o = 1.  The last pattern built is
    kept, read-only, and rebuilt only when its prime powers change."""
    key = (period, tuple(qs.tolist()))
    cached = _wheel_cache.get(key)
    if cached is not None:
        return cached
    pattern = np.ones(2 * period, dtype=np.uint32)
    for q, p in zip(qs.tolist(), ps.tolist()):
        for r in _hit_residues(q):
            v = pattern[r :: 2 * q]
            np.multiply(v, p, out=v)
    pattern.flags.writeable = False
    _wheel_cache.clear()
    _wheel_cache[key] = pattern
    return pattern


def _fill_from_wheel(out: np.ndarray, wheel: np.ndarray | None, start: int) -> None:
    """out[i] = wheel[(start + i) % wheel.size], one contiguous slice per
    stretch between wrap points; 1 everywhere without a wheel."""
    if wheel is None:
        out.fill(1)
        return
    i = 0
    while i < out.size:
        s = (start + i) % wheel.size
        m = min(out.size - i, wheel.size - s)
        out[i : i + m] = wheel[s : s + m]
        i += m


def theta_exact(x: float, y: float, z: float, t: SieveTables) -> int:
    """#{n <= x : n_y > z}, counted directly from smooth parts, one block at a time.

    For y >= 3, n = m * o with m = 2**a * 3**b and o prime to 6 has n_y =
    m * o_y, so n_y > z exactly when o_y > Z // m, Z = floor(z).  A block
    holds o_y for _BLOCK consecutive entries i, o = 3i + 1 + i % 2 (so
    i = o // 3), as uint32, so x must lie below 2**32 whatever the sieve
    limit; the o <= s fill the first _c6(s) entries.  Each 3-smooth m <= Z
    compares its prefix, the o <= x // m, with Z // m, and each m > Z counts
    all _c6(x // m) of its o without a block; below y = 5 every o_y is 1, so
    no block is built; for 2 <= y < 3, n_y is the 2-part of n, so the
    multiples of 2**Z.bit_length() count.  A prime power q = p**a <= x with
    5 <= p <= y multiplies by p the entries i = q // 3 and 5q // 3 mod 2q,
    whose o are q and 5q mod 6q:

    * a q dividing _WHEEL = 25025 = 5**2 * 7 * 11 * 13 through the wheel's
      pattern of 2 * _WHEEL entries, once the count has _WHEEL entries:
      each block starts as a copy of it, read from wrapped slices;
    * another q that hits a block more than _BLOCK // _SPARSE = 256 times,
      below _SPARSE * size / _BLOCK for blocks of size entries, through two
      strided slices;
    * every larger q, with all the others in two ``np.multiply.at`` per
      block: the size // 2q hits of each of its two residues in any full
      block, then the one more hit of each where that lands inside.

    The block and its compare are two buffers made once per call.  Memory
    is O(_BLOCK + number of prime powers), independent of x, plus the last
    wheel pattern built, kept between calls: 0.19 MiB.
    """
    _require_not_nan(y=y, z=z)
    fx = _count_bound("x", x)
    if fx >= 2**32:
        raise ResourceError(f"x={x} needs smooth parts beyond the uint32 blocks")
    if fx < 1 or z >= fx:  # n_y <= n <= x; also z = +inf
        return 0
    if z < 1:  # n_y >= 1
        return fx
    if y < 2:  # n_y = 1 <= z
        return 0
    fz = math.floor(z)
    if y < 3:  # n_y is the 2-part of n
        return fx >> fz.bit_length()
    m = _SMOOTH3[: int(np.searchsorted(_SMOOTH3, fx, side="right"))]
    ks = _c6(fx // m)  # the prefix of entries with o <= x // m, descending
    low = int(np.searchsorted(m, fz, side="right"))  # the m <= Z
    count = int(ks[low:].sum())  # the n whose 3-smooth part alone exceeds Z
    p = t.primes_upto(min(y, fx))[2:]  # the primes from 5
    if not p.size:  # every o_y is 1
        return count
    _check_work("theta(x, y, z)", fx)
    qs, ps = [p], [p]  # every prime power q = p**a <= fx, beside its prime
    while p.size:
        keep = qs[-1] <= fx // p
        p = p[keep]
        qs.append(qs[-1][keep] * p)
        ps.append(p)
    qs = np.concatenate(qs)
    ps = np.concatenate(ps).astype(np.uint32)
    entries = int(ks[0])  # m = 1: every o <= x
    wheel = None
    on = _WHEEL % qs == 0
    if _WHEEL <= entries and on.any():
        wheel = _wheel_pattern(_WHEEL, qs[on], ps[on])
        qs, ps = qs[~on], ps[~on]
    size = min(_BLOCK, entries)
    # q hits the entries r + 2qk for its two residues r: each residue is a
    # progression with step 2q.  Of the sparse ones, the steps below the
    # block size go first: each makes size // step hits in every full block,
    # the k-th at its first hit plus k * step.  The hit after those, like a
    # longer step's only hit, lands in some blocks only.
    dense = qs * _BLOCK < size * _SPARSE  # a sparse q hits a block at most 256 times
    strided = [(r, 2 * q, p) for q, p in zip(qs[dense].tolist(), ps[dense])
               for r in _hit_residues(q)]
    near, far = ~dense & (2 * qs < size), ~dense & (2 * qs >= size)
    steps = 2 * np.concatenate([qs[near], qs[near], qs[far], qs[far]])
    res = np.concatenate([*_hit_residues(qs[near]), *_hit_residues(qs[far])])
    ps = np.concatenate([ps[near], ps[near], ps[far], ps[far]])
    many = 2 * int(np.count_nonzero(near))
    sure = size // steps[:many]
    offset = np.arange(int(sure.sum())) - np.repeat(np.cumsum(sure) - sure, sure)
    offset *= np.repeat(steps[:many], sure)
    factor = np.repeat(ps[:many], sure)
    spill = sure * steps[:many]
    ks, thresholds = ks[:low].tolist(), fz // m[:low].astype(np.uint32)
    block = np.empty(size, dtype=np.uint32)
    above = np.empty(size, dtype=bool)
    for lo in range(0, entries, size):
        n = min(size, entries - lo)
        b = block[:n]
        _fill_from_wheel(b, wheel, lo)
        for r, s, p in strided:
            v = b[(r - lo) % s :: s]
            np.multiply(v, p, out=v)  # not `b[...] *= p`, which writes v back to b
        first = (res - lo) % steps
        at = np.repeat(first[:many], sure)
        at += offset
        if n < size:  # the last block, cut short
            keep = at < n
            np.multiply.at(b, at[keep], factor[keep])
        else:
            np.multiply.at(b, at, factor)
        first[:many] += spill
        last = first < n
        np.multiply.at(b, first[last], ps[last])
        for k, th in zip(ks, thresholds):
            if k <= lo:  # the prefixes only get shorter
                break
            e = min(n, k - lo)
            count += int(np.count_nonzero(np.greater(b[:e], th, out=above[:e])))
    return count


def theta_exact_decomposed(x: float, y: float, z: float, t: SieveTables) -> int:
    """theta via the unique decomposition n = d*e, P+(d) <= y, P-(e) > y:

        theta(x, y, z) = sum over smooth d > z of phi(x/d, y).

    Every smooth d > z is at least floor(z) + 1, so the rough counts go only
    to hi = x // (floor(z) + 1), in blocks of n = min(_BLOCK, hi // 2 + 1)
    odd numbers.  The first block's running count answers the d > x // 2n,
    streamed piece by piece; the rest, psi(x // 2n, y) of them, by binary
    search among the later blocks' rough numbers.  Must equal
    ``theta_exact`` exactly; the two routes share no counting code.
    """
    _require_not_nan(y=y, z=z)
    fx = _count_bound("x", x)
    if fx < 1 or z >= fx:  # no smooth d <= x exceeds z; also z = +inf
        return 0
    if z < 1:  # every n has a smooth divisor d = n_y >= 1 > z
        return fx
    fz = math.floor(z)
    hi = fx // (fz + 1)
    primes = t.primes_upto(min(y, fx))  # for y < 2 only d = 1 <= z is smooth
    _check_work("theta(x, y, z)", hi, fx, primes)
    rough = _mark_rough(np.empty(min(_BLOCK, hi // 2 + 1), dtype=bool), 0, primes)
    cum = np.cumsum(rough, dtype=np.int32)  # phi(m, y) = cum[(m - 1) // 2] for m < span
    span = 2 * rough.size
    cut = max(fx // span, fz)
    count = sum(int(cum[(fx // d[d > cut] - 1) // 2].sum()) for d in _smooth_pieces(primes, fx))
    if span > hi:
        return count
    d = np.concatenate(list(_smooth_pieces(primes, fx // span)))
    late = np.sort(fx // d[d > fz])  # x // d for the d the later blocks answer
    before = int(cum[-1])  # the rough numbers below the block
    for lo in range(span, hi + 1, span):
        b = _mark_rough(rough[: (hi - lo) // 2 + 1], lo, primes)
        i, j = np.searchsorted(late, [lo, lo + 2 * b.size]).tolist()
        if i < j:
            ranks = np.searchsorted(np.flatnonzero(b), (late[i:j] - lo - 1) // 2, side="right")
            count += int(ranks.sum()) + before * (j - i)
        before += int(np.count_nonzero(b))
    return count


def _euler_product(pieces) -> float:
    """The product of (1 - 1/p)^-1 over the primes in the arrays ``pieces``, as
    exp of one compensated log-sum (1 for none).  -1.0 / p is correctly rounded
    in numpy as in Python; math.log1p reads it through a memoryview."""
    return math.exp(-math.fsum(map(math.log1p, itertools.chain.from_iterable(
        memoryview(-1.0 / p) for p in pieces))))


def zeta_one_y(y: float) -> float:
    """The truncated Euler product over primes p <= y of (1 - 1/p)^-1.

    Exact finite product, evaluated as exp of a compensated log-sum; the empty
    product (y < 2) is 1.  The primes come block by block: a few MiB at any y.
    """
    if not math.isfinite(y) or y < 0:
        raise DomainError("zeta_one_y requires finite y >= 0")
    _check_work("zeta(1, y)", y)
    return _euler_product(_prime_blocks(math.floor(y)))


def _fsum_chunked(pieces, f=lambda c: c) -> float:
    """math.fsum of f over the arrays ``pieces``, each re-sliced to _CHUNK
    elements: one exactly rounded sum (not a sum of per-chunk sums).  fsum
    reads each chunk through a memoryview, one float at a time, so no Python
    list of a chunk is built (a list's floats are allocated one by one; the
    view's are recycled, which is ~3x faster)."""
    return math.fsum(itertools.chain.from_iterable(
        memoryview(f(a[i : i + _CHUNK])) for a in pieces for i in range(0, a.size, _CHUNK)))


def _batches(pieces):
    """The arrays ``pieces`` joined in order into arrays of at least _CHUNK
    elements, the last one shorter."""
    held, n = [], 0
    for piece in pieces:
        held.append(piece)
        n += piece.size
        if n >= _CHUNK:
            yield np.concatenate(held)
            held, n = [], 0
    if held:
        yield np.concatenate(held)


def s_exact(y: float, z: float, t: SieveTables) -> float:
    """S(y, z) = sum of 1/d over y-smooth d > z, exactly as
    zeta(1, y) - (finite partial sum); the infinite tail is captured
    analytically by the Euler product.

    Exact up to floating summation error: the partial sum is compensated.
    The smooth d <= z stream from the enumeration into that one sum piece by
    piece, so no array of them is formed.  The Euler product takes the
    table's primes where they reach y, and sieves its own (zeta_one_y) where
    they stop short.
    """
    _require_not_nan(y=y, z=z)
    fz = _count_bound("z", z) if z >= 1 else 0
    primes = t.primes_upto(min(y, fz))
    _check_work("S(y, z)", y if t.limit + 1 <= y < math.inf else 0, fz, primes, _NS_SUMMED)
    pieces = _smooth_pieces(primes, fz) if fz else []
    partial = _fsum_chunked(pieces, lambda c: 1.0 / c.astype(float))
    if 0 <= y < t.limit + 1:  # the table lists every prime p <= y
        return _euler_product([t.primes_upto(y)]) - partial
    return zeta_one_y(y) - partial


def weighted_smooth_sum(
    p: ScaledParams, w: WeightKind, t: SieveTables, num: Numerics = DEFAULT_NUMERICS
) -> float:
    """sum of weight(u - u_d)/d over y-smooth d in (z, x/y], u_d = log d/log y.

    The weight is the Buchstab or Dickman function; summation is exactly
    rounded, so the result does not depend on enumeration order.  The d
    stream from the enumeration into that one sum, joined into batches of
    about _CHUNK and weighed a batch at a time, so no array of them is
    formed: memory is one batch plus the walk's live set.  A sum with no d
    in range is 0.0 whatever the weight kind.
    """
    hi = _count_bound("x/y", p.x / p.y)
    primes = t.primes_upto(min(p.y, hi))
    _check_work("the weighted sum", 0, hi, primes, _NS_WEIGHED)
    weight = {WeightKind.BUCHSTAB_OMEGA: functools.partial(special.omega, table=num.omega),
              WeightKind.DICKMAN_RHO: functools.partial(special.rho, table=num.rho)}.get(w)
    u, log_y = p.u, math.log(p.y)

    def terms(d: np.ndarray) -> np.ndarray:
        d = d[d > p.z].astype(float)
        if not d.size:
            return d
        if weight is None:
            raise DomainError(f"unknown weight kind {w!r}")
        return weight(u - np.log(d) / log_y) / d

    return _fsum_chunked(_batches(_smooth_pieces(primes, hi)) if hi else [], terms)


# -- Monte Carlo oracle for the DSA risk probability -------------------------------


def _sample_kbit(rng: np.random.Generator, k: int, samples: int):
    """Uniform k-bit integers (top bit set).  numpy path for k <= 62, word
    assembly into Python ints above."""
    nbits = k - 1
    nwords = (nbits + 63) // 64
    try:
        if k <= 62:
            return rng.integers(1 << nbits, 1 << k, size=samples, dtype=np.int64)
        words = rng.integers(0, np.iinfo(np.uint64).max, size=(samples, nwords),
                             dtype=np.uint64, endpoint=True)
    except (MemoryError, ValueError, OverflowError):  # numpy refuses an array this large
        raise ResourceError(f"{samples} samples of {k} bits do not fit in memory") from None
    mask = (1 << nbits) - 1
    top = 1 << nbits
    # One void view reads each row's bytes as one bytes object, where a
    # row.tobytes() per row pays for a numpy row and a call each.
    rows = words.view((np.void, 8 * nwords)).ravel().tolist()
    return [top | (int.from_bytes(row, "little") & mask) for row in rows]


def _smooth_parts_int64(ns: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Smooth parts over ``primes`` of positive int64 samples, no division per prime.

    The 2-part of n is its lowest set bit, n & -n.  For odd p, with p' the
    inverse of p mod 2**64, p divides n exactly when n * p' mod 2**64 is at
    most (2**64 - 1) // p, and that product is then n / p (Granlund and
    Montgomery 1994): one wrapping uint64 multiply per sample and prime.  The
    test holds for even n too, so the 2-part is never divided out.  The
    inverses come from Newton's iteration p' <- p' (2 - p p'), which doubles
    the correct low bits from the 3 that p' = p has (p * p = 1 mod 8), for
    all the odd primes at once.
    """
    rem = ns.astype(np.uint64)
    sp = np.ones_like(rem)
    if primes.size and primes[0] == 2:
        sp = rem & -rem
        primes = primes[1:]
    odd = primes.astype(np.uint64)
    invs = odd.copy()
    for _ in range(5):  # 3, 6, 12, 24, 48, 96 >= 64 bits
        invs *= 2 - odd * invs
    lims = np.uint64(2**64 - 1) // odd
    # One product and one mask buffer for all primes, not two temporaries per
    # prime.
    prod = np.empty_like(rem)
    divides = np.empty(rem.shape, dtype=bool)
    for p, inv, lim in zip(odd, invs, lims):
        np.multiply(rem, inv, out=prod)
        idx = np.flatnonzero(np.less_equal(prod, lim, out=divides))
        while idx.size:
            q = rem[idx] * inv
            rem[idx] = q
            sp[idx] *= p
            idx = idx[q * inv <= lim]
    return sp.view(np.int64)  # sp <= n < 2**63


def _pair_products(values: list[int]) -> list[int]:
    """The products of ``values`` two by two, an odd last one times 1."""
    return [a * b for a, b in itertools.zip_longest(values[::2], values[1::2], fillvalue=1)]


def _product_tree(values: list[int]) -> int:
    """Product of ``values`` by pairwise products, level by level, keeping only
    the current level.  Operands of equal size keep big-int multiplication
    subquadratic, where a running left-to-right product is quadratic in the
    result's size."""
    while len(values) > 1:
        values = _pair_products(values)
    return values[0] if values else 1


def _product_levels(values: list[int]) -> list[list[int]]:
    """Every level of the product tree of the nonempty ``values``, from the
    values themselves up to the root."""
    levels = [values]
    while len(levels[-1]) > 1:
        levels.append(_pair_products(levels[-1]))
    return levels


def _remainder_tree(r: int, levels: list[list[int]]) -> list[int]:
    """r mod each leaf of the product tree ``levels``, given r mod its root.
    Each node's remainder is its parent's modulo the node, so every division
    is by a node about half its dividend's size (Bernstein 2004).  Schoolbook
    division pays a fixed cost per quotient digit, and the tree's quotients
    total about log2(leaves) times r's size, where dividing r by each leaf
    directly makes a quotient of r's size per leaf."""
    rs = [r]
    for level in levels[-2::-1]:
        rs = [rs[i >> 1] % v for i, v in enumerate(level)]
    return rs


def _packed_primes(primes: np.ndarray) -> tuple[list[int], int]:
    """The ``primes`` multiplied together in int64, as many to a product as
    keep it below 2**63, as Python ints, beside the bits each product has at
    most: a product tree or a running product over them takes a fraction of
    the big-int multiplications that one over the primes does."""
    bits = int(primes[-1]).bit_length()
    per = 63 // bits  # per primes below 2**bits multiply below 2**63
    padded = np.concatenate([primes, np.ones(-primes.size % per, dtype=np.int64)])
    return padded.reshape(-1, per).prod(axis=1).tolist(), per * bits


def _smooth_part_bigint(n: int, residue: int) -> int:
    """n_y from residue = P mod n, or P itself, for the product P of the
    primes p <= y: gcd(n, residue) = gcd(n, P) is the product of the primes
    dividing n, and each further gcd with what is left of n takes out one
    more power of them."""
    s = 1
    g = math.gcd(n, residue)
    while g > 1:
        s *= g
        n //= g
        g = math.gcd(n, g)
    return s


def _smooth_parts_grouped(ns: list[int], primes: np.ndarray) -> list[int]:
    """Smooth parts over ``primes`` of the positive ``ns`` by Bernstein's batch
    algorithm (2004).  Each group of _GCD_GROUP samples with product N takes
    one residue r = P mod N of the primorial P, and a remainder tree over the
    group's product tree gives r mod n = P mod n for each sample n, since n
    divides N.

    Where P has at most twice the bits of all the samples together, it is
    formed once, by a product tree, and r is one long division of it by N.
    Past that, forming P (4 ms at l = 16, 34 ms at l = 18, 184 ms at l = 20)
    costs more than it saves (the two broke even where the samples had 1/2
    of P's bits at l = 16 and 1/4 at l = 18 and 20), so r is reduced chunk
    by chunk, each chunk a product of primes about the size of N.  No P is
    kept between calls."""
    k = max(ns).bit_length()
    packed, bits = _packed_primes(primes)
    if float(np.log2(primes).sum()) <= 2 * len(ns) * k:
        chunks = [_product_tree(packed)]
    else:
        per_chunk = max(1, _GCD_GROUP * k // bits)
        chunks = [math.prod(packed[i : i + per_chunk]) for i in range(0, len(packed), per_chunk)]
    parts = []
    for i in range(0, len(ns), _GCD_GROUP):
        levels = _product_levels(ns[i : i + _GCD_GROUP])
        r = 1
        for c in chunks:
            r = r * c % levels[-1][0]
        parts += map(_smooth_part_bigint, levels[0], _remainder_tree(r, levels))
    return parts


def eta_empirical(
    d: DsaParams, samples: int, seed: int, t: SieveTables
) -> tuple[float, float]:
    """Monte Carlo estimate of the DSA risk probability.

    Samples n uniformly from [2**(k-1), 2**k), extracts the 2**l-smooth part
    of n over the sieved primes <= 2**l, and tests whether it exceeds 2**m.
    For k <= 62 the samples are drawn in one call, as int64, and reduced in
    blocks of _SAMPLE_BLOCK: each prime is tested and divided out by a
    multiply with its inverse mod 2**64 (the 2-part is n & -n), and the hits
    are summed over the blocks.  Above that, the smooth part is the repeated
    gcd of n with the primorial P of those primes, started from P mod n:
    each group of _GCD_GROUP samples takes one residue of P modulo its
    product, and a remainder tree over the group's product tree reduces it
    to each sample at that sample's size (:func:`_smooth_parts_grouped`).
    Returns (sample proportion, binomial standard error).
    Deterministic for a fixed seed (Philox counter-based PRNG keyed by the
    seed).
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    # 2**l > limit exactly when l reaches the limit's bit length; testing l
    # first never builds 2**l for a huge l.
    if d.l >= t.limit.bit_length():
        raise ResourceError(
            f"trial division needs primes up to 2^{d.l}, beyond the sieve limit {t.limit}")
    if d.m >= d.k:
        return 0.0, 0.0  # smooth part <= n < 2**k <= 2**m: no sample can exceed 2**m
    primes = t.primes_upto(float(1 << d.l))
    rng = np.random.Generator(np.random.Philox(key=seed))
    ns = _sample_kbit(rng, d.k, samples)
    threshold = 1 << d.m  # below 2**k, so never larger than a sample
    if isinstance(ns, np.ndarray):
        hits = sum(
            int(np.count_nonzero(_smooth_parts_int64(ns[i : i + _SAMPLE_BLOCK], primes)
                                 > threshold))
            for i in range(0, samples, _SAMPLE_BLOCK))
    else:
        hits = sum(1 for s in _smooth_parts_grouped(ns, primes) if s > threshold)
    est = hits / samples
    std_err = math.sqrt(est * (1.0 - est) / samples)
    return est, std_err
