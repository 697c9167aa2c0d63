"""Exact counting sequences, from the variety spec alone.

Every variety is the Cayley equation ``T~ = zeta * exp(T~)`` perturbed by

    zeta(z) = c * z^a * exp( sigma*(1-z)/2 + sum_{i>=2} eps_i * T(z^i)/i ),

with ``T~ = T - sigma*(1-z)/2``.  A :class:`VarietySpec` holds ``c``, ``a``,
``sigma`` and the signs ``eps_i``; it is the only table of variety data.
Since ``sigma*(1-z)/2 + T~ = T``, the equation reads
``T~ = c z^a exp(sum_{i>=1} eps_i T(z^i)/i)`` with ``eps_1 = 1``, and
``z d/dz log`` of it gives one recurrence for every spec,

    (n - a) T~_n = sum_{k=1}^{n} s(k) T~_(n-k),   s(k) = sum_{j | k} eps_(k/j) j T_j,

where the divisor sums ``s`` are maintained incrementally (when ``T_j``
becomes known, ``eps_m j T_j`` is added to ``s(m j)`` for every ``m``).
Splitting ``s(n) = S_n + n T_n``, with ``S_n`` the sum over proper
divisors, and scaling by ``d = 2`` when ``sigma != 0`` keeps it on integers
(:func:`spec_counts`):

    (d(n-a) - n U_0) T_n = sum_{k=1}^{n-1} s(k) U_(n-k) + S_n U_0,
    U_0 = -d sigma/2,  U_1 = d (T_1 + sigma/2),  U_k = d T_k  (k >= 2),

seeded with ``T_1 = 1``.  The convolution runs on the counts themselves:
``sum_k s(k) U_(n-k) = d sum_k s(k) T_(n-k) + (d sigma/2) s(n-1)``.  The
published recurrences are its instances:

* rooted unlabelled non-plane ("Polya") trees, A000081 (``a = 1``,
  ``sigma = 0``, ``eps_i = 1``): ``(n-1) T_n = sum_j s(j) T_{n-j}``;
* rooted identity trees (only the trivial root automorphism), A004111:
  the same with ``eps_i = (-1)^(i-1)``;
* hierarchies (no unary nodes, size = number of leaves), A000669
  (``c = 1/2``, ``a = 0``, ``sigma = -1``):
  ``n T_n = S_n + 2 sum_j s(j) T_{n-j} - s(n-1)``.

All divisions must be exact; every sequence value is an arbitrary-size
non-negative integer, and the recurrence raises :class:`ArithmeticError`
when a division leaves a remainder, as it does for a spec that admits no
integer counts.

Step ``n`` costs ``O(n)`` big-integer products, and the cost of
``s(k) T_(n-k)`` goes as ``k (n-k)``, so the halves ``k < n//2`` and
``k >= n//2`` of the convolution cost the same.  From step ``SPLIT_FROM``
on, :func:`spec_counts` forks one worker that sums the upper half while
the process sums the lower one.  Each step the worker sends its half over
a pipe and reads back ``T_n``, which it adds to its own copy of ``s``; the
division and its exactness check stay in the process.  The worker pins
itself to the usable CPUs other than the one the process is on, since a
guest kernel was seen to keep a freshly forked CPU-bound child on its
parent's CPU.  It forks only when ``os.fork`` and ``os.sched_getaffinity``
exist, two or more CPUs are usable and the process runs one thread.  If
the worker goes (EOF or a broken pipe), the process sums both halves
itself from that step on; every path returns the same integers and reaps
the worker before it returns or raises.

Independent product/fixpoint forms of the same sequences are provided in
:func:`product_form_oracle` for cross-validation; they extract coefficients
degree by degree from

* ``T(z) = z * prod (1 - z^n)^(-T_n)`` (Polya trees),
* ``T(z) = z * prod (1 + z^n)^(T_n)`` (identity trees),
* ``2T = z - 1 + exp(sum_i T(z^i)/i)`` solved degree by degree (hierarchies).
"""

from __future__ import annotations

import math
import operator
import os
from fractions import Fraction
from typing import Sequence

from .records import Record

#: Largest index the (cubic-ish) oracle path accepts by default.
DEFAULT_ORACLE_BOUND = 200


class CountSequence(Record):
    """Counts ``values[0..n_max]`` of one variety; values are exact ints."""

    variety: str
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


class VarietySpec(Record):
    """Data defining one variety's perturbation factor ``zeta``, and so its counts."""

    name: str
    prefactor: Fraction           # c
    z_exponent: int               # a, 0 or 1
    shift_sign: int               # sigma in {-1, 0}
    alternating_signs: bool       # eps_i = (-1)^(i-1) if True else +1

    def eps(self, i: int) -> int:
        if self.alternating_signs:
            return 1 if i % 2 == 1 else -1
        return 1

    def count_source(self, n_max: int) -> CountSequence:
        """The counts ``T_0 .. T_(n_max)`` of this variety (:func:`spec_counts`)."""
        return spec_counts(self, n_max)


POLYA = VarietySpec(
    name="polya",
    prefactor=Fraction(1),
    z_exponent=1,
    shift_sign=0,
    alternating_signs=False,
)

IDENTITY = VarietySpec(
    name="identity",
    prefactor=Fraction(1),
    z_exponent=1,
    shift_sign=0,
    alternating_signs=True,
)

HIERARCHY = VarietySpec(
    name="hierarchy",
    prefactor=Fraction(1, 2),
    z_exponent=0,
    shift_sign=-1,
    alternating_signs=False,
)

VARIETIES: dict[str, VarietySpec] = {s.name: s for s in (POLYA, IDENTITY, HIERARCHY)}

VARIETY_NAMES = tuple(VARIETIES)


def get_variety(name: str) -> VarietySpec:
    try:
        return VARIETIES[name]
    except KeyError:
        raise ValueError(f"unknown variety {name!r}; expected one of {sorted(VARIETIES)}")


def add_to_multiples(s: list, eps: Sequence[int], d: int, value: int, first: int = 1) -> None:
    """``s[m d] += eps[m] * value`` for every ``m >= first`` with ``m d`` an index of ``s``."""
    for m in range(first, (len(s) - 1) // d + 1):
        s[m * d] += eps[m] * value


#: First step whose convolution is split with a forked worker.  On a 2-CPU
#: x86-64 host the hierarchy counts to 1000 took 0.21 s with the split from
#: 600, 0.25 s from 800 and 0.35 s in one process, and the counts to 650 the
#: same 0.09 s either way: below about n = 500 a step is too short to pay for
#: its two pipe messages.  Counts to 500, the b-files' reach, never fork.
SPLIT_FROM = 600


def spec_counts(spec: VarietySpec, n_max: int) -> CountSequence:
    """Counts ``T_0 .. T_(n_max)`` of ``spec`` by the module's integer recurrence.

    From step ``SPLIT_FROM`` on, a forked worker may sum the upper half of
    each step's convolution (module docstring); the integers are the same.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    d = 2 if spec.shift_sign else 1
    half = d * spec.shift_sign // 2  # d sigma / 2 = -U_0, an integer
    eps = [spec.eps(m) for m in range(n_max + 1)]
    T = [0] * (n_max + 1)
    s = [0] * (n_max + 1)
    if n_max >= 1:
        T[1] = 1
        add_to_multiples(s, eps, 1, 1)
    worker = None
    try:
        for n in range(2, n_max + 1):
            if n == SPLIT_FROM:
                worker = _Worker.fork(s, T, eps, n, n_max)
            # the process sums k < m and a worker k >= m; without a worker the
            # step is one sum, since two cost 5-17% more at n = 100..300
            m = n // 2 if worker else n
            lower = sum(map(operator.mul, s[1:m], T[n - 1:n - m:-1]))
            upper = worker.receive() if worker else 0
            if upper is None:  # the worker has gone
                upper = _upper_half(s, T, n)
            # sum_k s(k) U_(n-k) + S_n U_0, with s[n] = S_n since T_n is unset
            total = d * (lower + upper) + half * (s[n - 1] - s[n])
            T[n] = _divide_exactly(total, d * (n - spec.z_exponent) + n * half, n)
            if worker and n < n_max:
                worker.send(T[n])
            add_to_multiples(s, eps, n, n * T[n])
    finally:
        if worker:
            worker.close()
    return CountSequence(spec.name, T)


def _upper_half(s: list, T: list, n: int) -> int:
    """``sum_{n//2 <= k < n} s(k) T_(n-k)``, the part of step ``n`` a worker sums."""
    m = n // 2
    return sum(map(operator.mul, s[n - 1:m - 1:-1], T[1:n - m + 1]))


class _Worker:
    """A forked process that sums ``k >= n//2`` of each step's convolution.

    It holds its own copies of ``s`` and ``T``; each step it sends its half
    to the parent and reads back ``T_n``.  Integers cross the pipes as an
    8-byte length and ``int.to_bytes``.  The worker leaves only through
    ``os._exit``; on EOF or a broken pipe the parent stops using it.
    """

    def __init__(self, pid: int, reader, writer):
        self.pid, self.reader, self.writer = pid, reader, writer
        self.gone = False

    @classmethod
    def fork(cls, s: list, T: list, eps: list, start: int, n_max: int) -> _Worker | None:
        """A worker for steps ``start .. n_max``, or None when none can run."""
        cpus = _worker_cpus()
        if not cpus:
            return None
        up_r, up_w = os.pipe()      # worker -> parent: the upper halves
        down_r, down_w = os.pipe()  # parent -> worker: T_n
        try:
            pid = os.fork()
        except OSError:
            for fd in (up_r, up_w, down_r, down_w):
                os.close(fd)
            return None
        if pid == 0:
            code = 1
            try:
                os.close(up_r)
                os.close(down_w)
                os.sched_setaffinity(0, cpus)
                reader, writer = open(down_r, "rb"), open(up_w, "wb")
                for n in range(start, n_max + 1):
                    _send(writer, _upper_half(s, T, n))
                    if n < n_max:
                        T[n] = _receive(reader)
                        add_to_multiples(s, eps, n, n * T[n])
                code = 0
            finally:
                os._exit(code)
        os.close(up_w)
        os.close(down_r)
        return cls(pid, open(up_r, "rb"), open(down_w, "wb"))

    def receive(self) -> int | None:
        """The worker's half of this step, or None once it has gone."""
        if not self.gone:
            try:
                return _receive(self.reader)
            except EOFError:
                self.gone = True
        return None

    def send(self, value: int) -> None:
        if not self.gone:
            try:
                _send(self.writer, value)
            except BrokenPipeError:
                self.gone = True

    def close(self) -> None:
        """Close both pipe ends, so a running worker meets EOF, and reap it."""
        self.reader.close()
        try:
            self.writer.close()
        except BrokenPipeError:  # unsent bytes of a gone worker; the fd is closed
            pass
        os.waitpid(self.pid, 0)


def _worker_cpus() -> set[int]:
    """The usable CPUs other than the one this process is on, for the worker.

    Empty unless ``os.fork`` and ``os.sched_getaffinity`` exist, two or more
    CPUs are usable and the process runs one thread (``fork`` is unsafe in a
    process with threads).  Read from ``/proc/self/stat``.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return set()
    try:
        with open("/proc/self/stat", "rb") as f:
            fields = f.read().rpartition(b")")[2].split()
    except OSError:
        return set()
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2 or int(fields[17]) != 1:  # fields 20 and 39: num_threads, processor
        return set()
    return cpus - {int(fields[36])}


def _send(stream, value: int) -> None:
    data = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
    stream.write(len(data).to_bytes(8, "little") + data)
    stream.flush()


def _receive(stream) -> int:
    head = stream.read(8)
    size = int.from_bytes(head, "little")
    data = stream.read(size)
    if len(head) < 8 or len(data) < size:
        raise EOFError("the other end of the pipe has gone")
    return int.from_bytes(data, "little", signed=True)


def _divide_exactly(total: int, divisor: int, n: int) -> int:
    q, rem = divmod(total, divisor)
    if rem:
        raise ArithmeticError(f"inexact division at n={n}: {total} / {divisor}")
    return q


_RECURRENCES = {name: spec.count_source for name, spec in VARIETIES.items()}


def counts_for(variety: str, n_max: int) -> CountSequence:
    """Dispatch to the counts of ``variety`` (see ``VARIETY_NAMES``)."""
    try:
        return _RECURRENCES[variety](n_max)
    except KeyError:
        raise ValueError(f"unknown variety {variety!r}; expected one of {VARIETY_NAMES}")


def product_form_oracle(
    variety: str, n_max: int, *, bound: int = DEFAULT_ORACLE_BOUND
) -> CountSequence:
    """Recompute a counting sequence from its product/fixpoint definition.

    This path exists for cross-validation of the recurrence and is slower;
    ``n_max`` beyond ``bound`` is rejected.
    """
    if n_max > bound:
        raise ValueError(f"oracle bound exceeded: n_max={n_max} > bound={bound}")
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    if variety == "polya":
        values = _product_extraction(n_max, negative_exponent=True)
    elif variety == "identity":
        values = _product_extraction(n_max, negative_exponent=False)
    elif variety == "hierarchy":
        values = _hierarchy_fixpoint(n_max)
    else:
        raise ValueError(f"unknown variety {variety!r}; expected one of {VARIETY_NAMES}")
    return CountSequence(variety, values)


def _product_extraction(n_max: int, negative_exponent: bool) -> list[int]:
    """Degree-by-degree coefficient extraction from ``z * prod (1 -+ z^n)^(+-T_n)``.

    ``T_n`` is the degree ``n-1`` coefficient of the partial product over
    factors with index below ``n``; factors of index ``>= n`` cannot touch it.
    """
    T = [0] * (n_max + 1)
    if n_max < 1:
        return T
    A = [0] * n_max  # partial product, degrees 0 .. n_max-1
    A[0] = 1
    for n in range(1, n_max + 1):
        T[n] = A[n - 1]
        if n == n_max or T[n] == 0:
            continue
        # multiply A by the degree-n factor expanded binomially
        factor = []
        j = 0
        while n * j <= n_max - 1:
            if negative_exponent:
                factor.append(math.comb(T[n] + j - 1, j))
            else:
                factor.append(math.comb(T[n], j))
            j += 1
        for d in range(n_max - 1, -1, -1):
            acc = A[d]
            for j in range(1, len(factor)):
                if n * j > d:
                    break
                acc += factor[j] * A[d - n * j]
            A[d] = acc
    return T


def _hierarchy_fixpoint(n_max: int) -> list[int]:
    """Solve ``2T = z - 1 + exp(S)`` with ``S = sum_i T(z^i)/i`` degree by degree.

    Writing ``E = exp(S)`` and splitting the top term out of the exponential
    recurrence gives, with everything below degree ``d`` known::

        U_d = (1/d) sum_{k<d} k S_k E_{d-k}
        V_d = sum_{i | d, i >= 2} T_{d/i} / i
        T_d = [d == 1] + U_d + V_d,   S_d = T_d + V_d,   E_d = U_d + S_d

    All intermediates have denominators dividing ``d``; ``T_d`` must be an
    integer, which is checked.
    """
    T = [0] * (n_max + 1)
    S = [Fraction(0)] * (n_max + 1)
    E = [Fraction(0)] * (n_max + 1)
    E[0] = Fraction(1)
    for d in range(1, n_max + 1):
        U = sum((k * S[k] * E[d - k] for k in range(1, d)), Fraction(0)) / d
        V = sum(
            (Fraction(T[d // i], i) for i in range(2, d + 1) if d % i == 0),
            Fraction(0),
        )
        value = (1 if d == 1 else 0) + U + V
        if value.denominator != 1:
            raise ArithmeticError(f"non-integral hierarchy coefficient at {d}: {value}")
        T[d] = int(value)
        S[d] = T[d] + V
        E[d] = U + S[d]
    return T
