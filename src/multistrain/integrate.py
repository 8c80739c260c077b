"""Fixed-step RK4 integration of the epidemic system with timed seeding.

The grid is uniform and shared with the control machinery: the forward state
sweep, the backward adjoint sweep and every recorded trajectory live on the
same nodes.  Controls between nodes are interpolated linearly, so an RK4 step
from ``t_k`` takes the control at ``t_k``, the midpoint average and the value
at ``t_{k+1}``.

``simulate`` checks its inputs in Python and steps the history one stretch
at a time, from one seed node to the next, adding each node's seeds in
between.  A stretch is one call of a node loop that only steps, in one of
two implementations that give the same history bit for bit: ``ms_rk4`` in
``_rk4.c``, called through ``ctypes``, or ``_python_loop``, the same loop
on plain lists.  Both round in exactly the
order of ``dynamics.rhs_lists`` and the classical RK4 update: each stage
forms its input as ``x + h*k`` of the previous stage's slope, the
admissibility check is one test per strain, of the signs and of the finite
sum, and the clamp runs only when it fails.  The same library holds
``ms_adjoint``, the backward sweep of ``control.backward_sweep``, whose
list twin is ``control._adjoint_loop``, and the writers' formatters
``ms_format_rows`` and ``ms_format_points``, whose twins are Python's
``"%.17g"`` and ``"%.2f"``.  ``_ENTRIES`` declares each entry's C
signature and its Python twin's cost, :func:`_kernel` routes all four by
name, :func:`write_text` writes a file's items through a formatter or in
Python, and :func:`open_new` replaces a regular file at an artifact's path
and writes through anything else.

The C file is compiled when the process first calls ``simulate``,
``backward_sweep`` or a writer, never at import, with ``cc -O1
-ffp-contract=off -shared -fPIC`` into a temporary directory that is deleted
once the library is loaded; nothing is cached on disk.
``-ffp-contract=off`` keeps the compiler from fusing ``a*b + c`` into one
rounding, which would break the bit equality.  ``-O1`` builds in about two
thirds of the time ``-O2`` takes, and the kernels run as fast.  ``cc`` runs
in the background: calls run in Python until the library is ready and in C
after, and only a call whose Python twin would take longer than what is
left of the build waits for it.  So no run waits longer than its Python
loops would take, and the bytes are the same either way.  A build still
running at exit is killed.  A forked process
leaves its parent's build alone and starts its own, also when another thread
of the parent was waiting for that build.  Without a working
``cc`` on ``PATH``, or where the library cannot be loaded, every call runs
in Python.  No loop holds state between calls: ``simulate`` owns the
history matrix, one row ``[P, E, I, R]`` per node, and the trajectory it
returns holds views of its columns as ``P``, ``E``, ``I`` and ``R``, not
copies.  The trajectory forms the susceptibles ``P - E - I - R`` once, when
it is built, into an array of its own; ``ms_adjoint`` reads that array and
the ``I`` columns in place, through their row and column strides.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import shutil
import stat
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import (
    NEGATIVE_TOLERANCE,
    EpidemicState,
    StrainParams,
    rate_table,
    rhs_lists,
)
from .errors import ConfigError, DomainError, IntegrationError, StateConsistencyError


def same_time(t: float, ref: float) -> bool:
    """Whether ``t`` is the time ``ref`` up to round-off, 1e-9 of ``max(1,
    |ref|)`` days; a NaN or infinite ``t`` never is.  Every time check uses it."""
    return abs(t - ref) <= 1e-9 * max(1.0, abs(ref))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: ``n_steps`` steps of ``dt`` days from ``t0`` to a finite last
    node ``T``.  :meth:`index_of` alone decides which times are nodes."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise DomainError(f"t0 must be finite, got {self.t0!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be finite and > 0, got {self.dt!r}")
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 0:
            raise DomainError(f"n_steps must be an integer >= 0, got {self.n_steps!r}")
        # n_steps * dt raises for an n_steps past the float range, so that goes first.
        if self.n_steps > sys.float_info.max or not math.isfinite(self.T):
            raise DomainError(f"the last node t0 + n_steps*dt must be finite, got {self!r}")

    @classmethod
    def from_horizon(cls, t0: float, horizon: float, dt: float) -> "TimeGrid":
        """Build a grid over [t0, horizon], snapping the end time to the grid.
        ``t0`` and ``dt`` get the checks of the grid's own constructor."""
        cls(t0=t0, dt=dt, n_steps=0)
        if not horizon > t0:
            raise DomainError("horizon must lie after t0")
        span = (horizon - t0) / dt
        if not math.isfinite(span):
            raise DomainError(
                f"dt={dt!r} does not give a finite step count over {horizon!r} - {t0!r}"
            )
        n = round(span)
        if n < 1 or not same_time(t0 + n * dt, horizon):
            raise ConfigError(
                f"dt={dt!r} does not divide the horizon {horizon!r} - {t0!r}"
            )
        return cls(t0=t0, dt=dt, n_steps=n)

    @property
    def T(self) -> float:
        return self.t0 + self.n_steps * self.dt

    @property
    def n_points(self) -> int:
        return self.n_steps + 1

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_points)

    def time_at(self, k: int) -> float:
        return self.t0 + k * self.dt

    def index_of(self, time: float) -> int:
        """The node ``k`` with ``same_time(time, time_at(k))``, else ``ConfigError`` with
        the reason.  The range is checked before the rounding: no finite time overflows."""
        if not math.isfinite(time):
            reason = "it is not finite"
        elif time < self.t0 and not same_time(time, self.t0):
            reason = f"it lies before the start {self.t0!r}"
        elif time > self.T and not same_time(time, self.T):
            reason = f"it lies after the horizon {self.T!r}"
        else:
            k = round(min(max((time - self.t0) / self.dt, 0.0), self.n_steps))
            if same_time(time, self.time_at(k)):
                return k
            reason = f"dt={self.dt!r} does not divide its offset from the start {self.t0!r}"
        raise ConfigError(f"time {time!r} does not lie on the grid: {reason}")


@dataclass(frozen=True)
class ControlSchedule:
    """Mitigation values on a uniform grid, one per node, each in [0, 1]."""

    grid: TimeGrid
    u: np.ndarray

    def __post_init__(self):
        arr = np.array(self.u, dtype=float)
        if arr.shape != (self.grid.n_points,):
            raise DomainError(
                f"schedule needs {self.grid.n_points} values, got shape {arr.shape}"
            )
        # A NaN or an infinity fails the range test too, so only a failing
        # schedule is searched for one, which is reported first.
        lo, hi = float(arr.min()), float(arr.max())
        if not (0.0 <= lo and hi <= 1.0):
            if not np.all(np.isfinite(arr)):
                bad = float(arr[~np.isfinite(arr)][0])
                raise DomainError(f"schedule contains non-finite values, got {bad!r}")
            raise DomainError(f"schedule values must lie in [0, 1], got min={lo!r}, max={hi!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "u", arr)

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "ControlSchedule":
        return cls(grid=grid, u=np.full(grid.n_points, float(value)))


@dataclass(frozen=True)
class SeedEvent:
    """Introduction of infection mass into one strain at a grid time.

    Seeds are drawn from the susceptible pool, so the total population is
    unchanged; the strain's susceptibles shrink by the seeded amount.
    """

    time: float
    strain: int
    exposed: float = 0.0
    infected: float = 0.0
    removed: float = 0.0

    def __post_init__(self):
        if not isinstance(self.strain, numbers.Integral) or self.strain < 0:
            raise DomainError(f"strain index must be an integer >= 0, got {self.strain!r}")
        for name in ("time", "exposed", "infected", "removed"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"seed {name} must be finite, got {getattr(self, name)!r}")
        if self.exposed < 0 or self.infected < 0 or self.removed < 0:
            raise DomainError("seed exposed, infected and removed must be >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: state and applied control at every grid node.

    ``P``, ``E``, ``I``, ``R`` and ``u`` are read-only views of the caller's
    arrays, which stay writable.  The algebraic susceptibles ``P - E - I -
    R`` are formed once, when the trajectory is built, into a read-only
    array of its own that every consumer reads through
    :meth:`susceptible_matrix`; a later write into the caller's arrays does
    not reach it.
    """

    grid: TimeGrid
    P: np.ndarray
    E: np.ndarray
    I: np.ndarray
    R: np.ndarray
    u: np.ndarray
    _S: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.grid.n_points
        if self.P.shape != (m,) or self.u.shape != (m,):
            raise DomainError("P and u must hold one value per grid node")
        if self.E.shape != self.I.shape or self.E.shape != self.R.shape:
            raise DomainError("E, I, R must share one (nodes, strains) shape")
        if self.E.shape[0] != m:
            raise DomainError("per-strain history must hold one row per grid node")
        for name in ("P", "E", "I", "R", "u"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        # Huge or infinite values overflow or meet inf - inf here; S then
        # holds the inf or NaN the subtraction gives, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            S = self.P[:, None] - self.E
            S -= self.I
            S -= self.R
        S.setflags(write=False)
        object.__setattr__(self, "_S", S)

    @property
    def n_strains(self) -> int:
        return self.E.shape[1]

    def susceptible_matrix(self) -> np.ndarray:
        """Algebraic susceptibles ``P - E - I - R``, shape (nodes, strains),
        as formed when the trajectory was built: the same read-only array on
        every call."""
        return self._S

    def state_at(self, k: int) -> EpidemicState:
        """The state at node ``k``; a negative ``k`` counts from the last node,
        as a sequence index does, and one out of range raises IndexError."""
        k = range(self.grid.n_points)[k]
        return EpidemicState(
            t=self.grid.time_at(k), P=float(self.P[k]),
            E=self.E[k], I=self.I[k], R=self.R[k],
        )


# Failure codes of ms_rk4 in _rk4.c, which _python_loop returns too.
_POPULATION, _ADMISSIBLE = 1, 2
_CC = ("cc", "-O1", "-ffp-contract=off", "-shared", "-fPIC")
# Seconds cc takes to build _rk4.c, and the strain-steps the forward Python
# loop runs in that time: 0.17-0.30 s of cc while Python runs beside it,
# against 3-5 us per strain-step at one or two strains.  A call waits for
# the build when its Python twin has more work than the part of the build
# still expected.
_BUILD_SECONDS = 0.25
_WAIT_ABOVE = 60_000
_int64, _double, _ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
_int64_p = ctypes.POINTER(_int64)
# Each entry of _rk4.c: its result type, its argument types, and what its
# Python twin takes per unit of a call's work, in forward strain-steps.
_ENTRIES = {
    # Per strain-step of _python_loop.
    "ms_rk4": (ctypes.c_int, (_int64, _int64, _double, _double, *[_ptr] * 6), 1.0),
    # Per strain-step: control._adjoint_loop takes 1.4 to 1.8 times as long
    # as the forward loop, so the wait rule sees it as twice the work.
    # S and I each come with their row and column strides.
    "ms_adjoint": (
        None, (_int64, _int64, _double, _double, _ptr, *(_ptr, _int64, _int64) * 2,
               *[_ptr] * 3), 2.0,
    ),
    # Per cell: Python formats one in about a fifth of a forward
    # strain-step.  Missing where cc has no __int128; trajectory rows are
    # then formatted in Python.
    "ms_format_rows": (_int64, (_ptr, _int64, _int64, _int64, _ptr, _int64, _int64_p), 1 / 5),
    # Per point: Python formats one in about a third of a forward strain-step.
    "ms_format_points": (_int64, (_ptr, _ptr, _int64, _int64, _ptr, _int64, _int64_p), 1 / 3),
}
_KERNEL = None  # the loaded entries by name; False once a build has failed
_build = None  # (cc process, its directory, start time) while cc runs
_KERNEL_LOCK = threading.Lock()


def _kernel(name, units):
    """The compiled entry ``name`` of ``_ENTRIES`` for a call of ``units``
    units of work, or ``None`` when its Python twin is to run the call.

    The first call starts the build in the background.  A later call loads
    the library once ``cc`` has exited, and waits for it when ``units``
    times the entry's cost is more than ``_WAIT_ABOVE`` times the share of
    ``_BUILD_SECONDS`` not yet spent, so that no call runs in Python for
    longer than the rest of the build would take.  The lock makes
    concurrent calls share one build.  A forked process drops the build it
    inherited untouched, since only the parent can wait for that ``cc``,
    and starts its own.
    """
    global _KERNEL, _build
    with _KERNEL_LOCK:
        if _KERNEL is None and _build is None:
            _build = _start_build()
            if _build is None:
                _KERNEL = False
        if _build is not None:
            proc, tmp, started = _build
            left = 1.0 - (time.monotonic() - started) / _BUILD_SECONDS
            if units * _ENTRIES[name][2] > _WAIT_ABOVE * left or proc.poll() is not None:
                _KERNEL = _load_build(proc, tmp)
                _build = None
        return (_KERNEL or {}).get(name)


def _start_build():
    """Start ``cc`` on ``_rk4.c`` in a new process group, writing into a new
    temporary directory that also holds ``cc``'s own temporary files;
    ``None`` when either cannot be made, as without a ``cc`` on ``PATH``."""
    import atexit
    import subprocess

    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk4.c")
    try:
        tmp = tempfile.mkdtemp()
    except OSError:
        return None
    try:
        proc = subprocess.Popen(
            [*_CC, "-o", os.path.join(tmp, "_rk4.so"), source],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "TMPDIR": tmp}, start_new_session=True,
        )
    except OSError:
        shutil.rmtree(tmp)
        return None
    atexit.register(_end_build)
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=_forget_build)
    return proc, tmp, time.monotonic()


def _forget_build():
    """In a forked child, drop the parent's build, and the lock that another
    thread of the parent may hold while it waits for ``cc``."""
    global _build, _KERNEL_LOCK
    _build = None
    _KERNEL_LOCK = threading.Lock()


def _load_build(proc, tmp):
    """Wait for ``cc``, load the library it built and remove the directory:
    the entries of ``_ENTRIES`` that it has, bound to their types, by name;
    ``False`` when ``cc`` failed or the library cannot be loaded, as from a
    temporary directory mounted ``noexec``."""
    try:
        if proc.wait() != 0:
            return False
        lib = ctypes.CDLL(os.path.join(tmp, "_rk4.so"))
    except OSError:
        return False
    finally:
        shutil.rmtree(tmp)
    entries = {}
    for name, (restype, argtypes, _) in _ENTRIES.items():
        entry = getattr(lib, name, None)
        if entry is not None:
            entry.restype, entry.argtypes = restype, argtypes
            entries[name] = entry
    return entries


def _end_build():
    """At exit, kill a build this process started that is still running and
    remove its directory, so that a short run neither waits for ``cc`` nor
    leaves it behind."""
    global _build
    if _build is None:
        return
    import signal

    proc, tmp, _ = _build
    _build = None
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    shutil.rmtree(tmp)


# Bytes of text one compiled formatting call writes at most, and the bound
# on the chunk of cells one Python call formats, at 128 bytes per cell for
# its float, its text and their list slots: never the whole text of a file.
_TEXT_BYTES = 1 << 18


def open_new(path: str, mode: str = "xb", **kwargs):
    """Open a new file at ``path`` in the exclusive mode ``mode``, ``"xb"``
    or ``"x"``; ``kwargs`` go to :func:`open`.  Every artifact the package
    writes is opened here.  One rule: a regular file at ``path`` is
    replaced, and everything else is written through.

    Truncating an existing file and writing it again makes ext4 start
    writeback of it on close (its ``auto_da_alloc`` rule), which took a
    re-run's artifact writers longer than their formatting; a new file is
    written back on the filesystem's own schedule.  Writing a temporary file
    and renaming it over the path was measured slower still, since ext4
    flushes on that rename too.  So a regular file is unlinked first: a
    hard link to it keeps the old bytes, and the directory must be
    writable.  Anything else at ``path``, read without following a link, is
    opened with ``"w"`` for ``"x"`` and written through as before: a
    symlink, dangling or not, as ``/dev/stdout`` is, a device, a pipe or a
    socket.  So nothing but a regular file is ever removed, and a directory
    raises an :class:`OSError`.
    """
    try:
        kind = os.lstat(path).st_mode
    except FileNotFoundError:
        return open(path, mode, **kwargs)
    if not stat.S_ISREG(kind):
        return open(path, mode.replace("x", "w"), **kwargs)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, **kwargs)


def write_text(fh, entry, args, shape, python_text):
    """Write items ``0..n-1``, each ``cells`` cells wide as ``shape = (n,
    cells)`` says, to the binary file ``fh``; ``python_text(lo, hi)`` is
    Python's text of items ``lo..hi-1``.

    ``entry(*args, start, n, buf, cap, used)``, ``ms_format_rows`` or
    ``ms_format_points``, writes items from ``start`` on into one buffer of
    ``_TEXT_BYTES`` until one is outside its exact range or would not fit,
    and returns that item's index; an item at which it stops at once takes
    ``python_text`` instead.  Without an entry, ``python_text`` writes every
    item, ``_TEXT_BYTES // 128`` cells at a time.  So Python's own format
    defines the bytes of every item, and ``_TEXT_BYTES`` bounds the text on
    either path.
    """
    n, cells = shape
    if entry is None:
        step = max(1, _TEXT_BYTES // 128 // cells)
        for lo in range(0, n, step):
            fh.write(python_text(lo, min(lo + step, n)).encode())
        return
    buf = ctypes.create_string_buffer(_TEXT_BYTES)
    view = memoryview(buf)
    used = ctypes.c_int64()
    k = 0
    while k < n:
        stop = entry(*args, k, n, buf, _TEXT_BYTES, ctypes.byref(used))
        fh.write(view[: used.value])
        if stop == k:
            fh.write(python_text(k, k + 1).encode())
            stop += 1
        k = stop


def _clamp(values: list, tol: float):
    """Zero round-off negatives within ``tol`` in place; return the first
    value that is worse, NaN or +inf, else ``None``."""
    for idx, v in enumerate(values):
        if not 0.0 <= v < math.inf:
            if -tol <= v < 0.0:
                values[idx] = 0.0
            else:
                return v
    return None


def _python_loop(hist, rows, u, dt, tol):
    """``ms_rk4`` on plain lists, with its failure codes: steps ``hist`` from
    row 0, one step per value of ``u`` after the first, writing row k + 1
    after step k, and returns ``(code, step, value)``.

    The four stage slopes live in lists made once per call, each stage walks
    the strains once through ``dynamics.rhs_lists``, whose ``rows`` it takes,
    and forms its input as ``x + h*k`` on the fly, and the state is updated
    in place.
    """
    n = len(rows)
    row = hist[0].tolist()
    P, E, I, R = row[0], row[1 : n + 1], row[n + 1 : 2 * n + 1], row[2 * n + 1 :]
    # Stage slopes of one RK4 step: E, I, R lists for each of the four
    # stages, and one zero list that stands for the slope before stage 1.
    aE, aI, aR, bE, bI, bR, cE, cI, cR, dE, dI, dR, zero = (
        [0.0] * n for _ in range(13)
    )
    half = 0.5 * dt
    sixth = dt / 6.0
    inf = math.inf
    strains = range(n)

    for k in range(len(u) - 1):
        # One classical RK4 step.  Each stage evaluates rhs_lists at x + h*k
        # of the previous stage's slope k, so the step builds no list.
        u0 = u[k]
        u1 = u[k + 1]
        um = 0.5 * (u0 + u1)
        aP = rhs_lists(P, E, I, R, 0.0, zero, zero, zero, rows, u0, aE, aI, aR)
        bP = rhs_lists(P + half * aP, E, I, R, half, aE, aI, aR, rows, um, bE, bI, bR)
        cP = rhs_lists(P + half * bP, E, I, R, half, bE, bI, bR, rows, um, cE, cI, cR)
        dP = rhs_lists(P + dt * cP, E, I, R, dt, cE, cI, cR, rows, u1, dE, dI, dR)
        P = P + sixth * (aP + 2.0 * (bP + cP) + dP)
        admissible = True
        for j in strains:
            e = E[j] = E[j] + sixth * (aE[j] + 2.0 * (bE[j] + cE[j]) + dE[j])
            i = I[j] = I[j] + sixth * (aI[j] + 2.0 * (bI[j] + cI[j]) + dI[j])
            r = R[j] = R[j] + sixth * (aR[j] + 2.0 * (bR[j] + cR[j]) + dR[j])
            # False for a negative, NaN or +inf value, which the clamp handles.
            if not (e >= 0.0 and i >= 0.0 and r >= 0.0 and e + i + r < inf):
                admissible = False
        # Round-off negatives within tol become zero; anything worse, a NaN
        # or infinite compartment or a non-finite P fails with the step.
        if not math.isfinite(P):
            return _POPULATION, k, P
        if not P >= 0.0:
            boxed = [P]
            bad = _clamp(boxed, tol)
            if bad is not None:
                return _ADMISSIBLE, k, bad
            P = boxed[0]
        if not admissible:
            for values in (E, I, R):
                bad = _clamp(values, tol)
                if bad is not None:
                    return _ADMISSIBLE, k, bad
        hist[k + 1] = [P, *E, *I, *R]
    return 0, 0, 0.0


def simulate(
    initial: EpidemicState,
    params: Sequence[StrainParams],
    schedule: ControlSchedule,
    events: Sequence[SeedEvent],
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the system over the grid, applying seed events at their nodes.

    One node loop call steps each stretch, from one seed node to the next
    and from the last to the end.  Between them the node's seeds, in order
    of time and strain, are added to their strain's compartments with the
    total population unchanged, so the recorded state at a seeding node
    includes the seed.  A strain with zero compartments has no flows, so it
    enters the run through its seed; until then its susceptible pool is all
    of ``P``.
    """
    if not isinstance(schedule, ControlSchedule):
        raise DomainError("simulate expects a ControlSchedule")
    if schedule.grid != grid:
        raise ConfigError("control schedule is defined on a different grid")
    if len(params) != initial.n_strains:
        raise DomainError("initial state and parameter list disagree on strain count")
    if not same_time(initial.t, grid.t0):
        raise ConfigError(
            f"initial state is at t={initial.t!r} but the grid starts at {grid.t0!r}"
        )

    n = initial.n_strains
    events = sorted(events, key=lambda e: (e.time, e.strain))
    nodes = []
    for ev in events:
        if ev.strain >= n:
            raise ConfigError(f"seed event targets unknown strain {ev.strain}")
        nodes.append(grid.index_of(ev.time))

    N = grid.n_steps
    # One row [P, E_1..E_n, I_1..I_n, R_1..R_n] per node; either loop steps
    # from row k into row k + 1.
    hist = np.empty((N + 1, 3 * n + 1))
    hist[0] = [initial.P, *initial.E, *initial.I, *initial.R]
    tol = NEGATIVE_TOLERANCE * max(initial.P, 1.0)
    rates, u = rate_table(params), schedule.u
    rk4 = _kernel("ms_rk4", n * N)
    if rk4 is None:
        rows = list(enumerate(rates.tolist()))
    else:
        # The kernel's 13n doubles of slopes, then its failure step, an
        # int64, and the failing value.
        work = np.zeros(13 * n + 2)
        fail, value = work[-2:-1].view(np.int64), work[-1:]
        # Buffer addresses, taken once: the stretch from node k starts k
        # strides into u and hist.
        rates_ptr, u_ptr, hist_ptr, work_ptr = (
            a.ctypes.data for a in (rates, u, hist, work)
        )
        fail_ptr = work_ptr + 13 * n * work.itemsize
        value_ptr = fail_ptr + work.itemsize
    k = 0
    for stop, ev in [*zip(nodes, events), (N, None)]:
        if stop > k:
            if rk4 is None:
                code, at, bad = _python_loop(
                    hist[k : stop + 1], rows, u[k : stop + 1].tolist(), grid.dt, tol
                )
            else:
                code = rk4(
                    n, stop - k, grid.dt, tol, rates_ptr, u_ptr + k * u.strides[0],
                    hist_ptr + k * hist.strides[0], work_ptr, fail_ptr, value_ptr,
                )
                at, bad = int(fail[0]), float(value[0])
            if code == _POPULATION:
                raise IntegrationError(f"total population became {bad!r}", step=k + at)
            if code == _ADMISSIBLE:
                raise IntegrationError(
                    f"state left the admissible region (value {bad!r})", step=k + at
                )
            k = stop
        if ev is not None:
            # The E, I and R of the seeded strain.
            x = hist[k, 1 + ev.strain :: n]
            x += (ev.exposed, ev.infected, ev.removed)
            if hist[k, 0] - x[0] - x[1] - x[2] < -tol:
                raise StateConsistencyError(
                    f"seed at day {ev.time} exceeds the susceptible pool of "
                    f"strain {ev.strain}"
                )

    return Trajectory(
        grid=grid, P=hist[:, 0], E=hist[:, 1 : n + 1], I=hist[:, n + 1 : 2 * n + 1],
        R=hist[:, 2 * n + 1 :], u=schedule.u,
    )
