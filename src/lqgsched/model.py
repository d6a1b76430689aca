"""Problem data: plant matrices, cost weights, and their validity checks.

Everything downstream reads the matrices from these containers; the
controller and the simulator multiply by them directly. Construction stores
each as a C-contiguous, read-only float array that the record owns
(_frozen), so a caller that writes to its own array later changes neither
the record nor a verdict on it. Construction also establishes dimensions;
definiteness and well-posedness are checked by :func:`validate`, which
reports violations instead of raising so that a caller can collect all of
them at once. Well-posedness is the condition for the discounted Riccati
fixed point to exist and stabilize the loop: (sqrt(beta) A, B) stabilizable
and (sqrt(beta) A, sqrt(Q)) detectable, both decided by one
Popov-Belevitch-Hautus (PBH) test at the eigenvalues of A. Every frozen
record of the package, these containers included, is declared with
:func:`record`.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from reprlib import recursive_repr

import numpy as np

__all__ = [
    "LinearSystem",
    "CostModel",
    "Problem",
    "Violation",
    "validate",
    "psd_sqrt",
]

# Relative eigenvalue cutoff used by every definiteness test and, on singular values, by the PBH test.
EIG_TOL = 1e-10
# Cluster radius of the PBH test, relative to max(1, |lambda|): a defective eigenvalue of multiplicity m
# is computed only to about eps^(1/m) (a double one splits by about 1e-8, a triple one by about 1e-5).
PBH_CLUSTER_TOL = 1e-4


class _RecordSpec:
    """What the shared record methods read of one class: field names by role, defaults and __post_init__."""

    __slots__ = ("qualname", "names", "defaults", "factories", "post_init", "repr_names", "compare_names", "hash_names")

    def __init__(self, cls):
        fs = fields(cls)
        self.qualname = cls.__qualname__
        self.names = tuple(f.name for f in fs)
        self.defaults = {f.name: f.default for f in fs if f.default is not MISSING}
        self.factories = {f.name: f.default_factory for f in fs if f.default_factory is not MISSING}
        self.post_init = getattr(cls, "__post_init__", None)
        self.repr_names = tuple(f.name for f in fs if f.repr)
        self.compare_names = tuple(f.name for f in fs if f.compare)
        self.hash_names = tuple(f.name for f in fs if (f.compare if f.hash is None else f.hash))

    def bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value, in field order, from the arguments, the defaults and the default factories."""
        if len(args) > len(self.names):
            raise TypeError(f"{self.qualname}() takes {len(self.names)} positional arguments but {len(args)} were given")
        values = list(args)
        for name in self.names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self.defaults:
                values.append(self.defaults[name])
            elif name in self.factories:
                values.append(self.factories[name]())
            else:
                raise TypeError(f"{self.qualname}() missing required argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "got multiple values for argument" if name in self.names else "got an unexpected keyword argument"
            raise TypeError(f"{self.qualname}() {problem} {name!r}")
        return values


def _record_init(self, *args, **kwargs):
    spec = type(self)._record_spec
    if kwargs or len(args) != len(spec.names):
        args = spec.bind(args, kwargs)
    for name, value in zip(spec.names, args):
        object.__setattr__(self, name, value)
    if spec.post_init is not None:
        spec.post_init(self)


def _record_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@recursive_repr()
def _record_repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_spec.repr_names)
    return f"{type(self).__qualname__}({shown})"


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = self._record_spec.compare_names
    return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)


def _record_hash(self):
    return hash(tuple(getattr(self, n) for n in self._record_spec.hash_names))


def record(cls):
    """Make ``cls`` a frozen dataclass without generating code for it.

    ``dataclass(frozen=True)`` writes and compiles six methods for every
    class, which made up most of the package's import time. This decorator
    runs ``dataclass(init=False, repr=False, eq=False)``, so ``fields``,
    ``replace``, ``asdict`` and ``is_dataclass`` see an ordinary dataclass,
    and installs the same six hand-written functions on every record:

    - ``__init__`` binds positional and keyword arguments, then fills the
      rest from each field's default or ``default_factory``, raises
      ``TypeError`` for a missing, duplicate or unknown argument, and calls
      ``__post_init__`` if the class has one. It stores each field with
      ``object.__setattr__``, as a frozen dataclass does.
    - ``__setattr__`` and ``__delattr__`` raise ``FrozenInstanceError``.
    - ``__repr__``, ``__eq__`` and ``__hash__`` read the fields whose
      ``repr``, ``compare`` (and ``hash``) flags select them, and give the
      results of the frozen dataclass they replace.

    The six overwrite any of the same names that the class defines.
    """
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    cls._record_spec = _RecordSpec(cls)
    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = _record_init, _record_repr, _record_eq, _record_hash
    cls.__setattr__, cls.__delattr__ = _record_setattr, _record_delattr
    return cls


class _cached:
    """Like functools.cached_property, but the value is stored with object.__setattr__, not into ``__dict__``.

    Asking for ``__dict__`` makes CPython build a dict for the instance, and
    its fields, such as the ``sys.A`` of every controller step, are then
    loaded by a dict lookup. Stored this way, the value joins the instance's
    inline attributes, the fields keep their faster loads, and later reads
    of the value find it without calling the descriptor.
    """

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _frozen(M) -> np.ndarray:
    """M if it is a C-contiguous, read-only float64 array that owns its data (records share it), else such a copy."""
    if (type(M) is np.ndarray and M.dtype == np.float64 and M.flags.c_contiguous and M.flags.owndata
            and not M.flags.writeable):
        return M
    M = np.array(M, dtype=float, order="C")
    M.setflags(write=False)
    return M


def _as_matrix(M, name: str) -> np.ndarray:
    M = _frozen(M)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {M.shape}")
    return M


def _is_symmetric(M: np.ndarray) -> bool:
    return M.shape[0] == M.shape[1] and np.allclose(M, M.T, atol=1e-12, rtol=0.0)


def _min_eig(M: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue of a symmetric matrix and the definiteness cutoff."""
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return float(w[0]), EIG_TOL * scale


def is_psd(M: np.ndarray) -> bool:
    if not _is_symmetric(M):
        return False
    lo, cut = _min_eig(M)
    return lo >= -cut


def is_pd(M: np.ndarray) -> bool:
    if not _is_symmetric(M):
        return False
    lo, cut = _min_eig(M)
    return lo > cut


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clipped."""
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


@record
class LinearSystem:
    """Plant x_{t+1} = A x_t + B u_t + C w_t with w_t ~ N(0, Sigma_S).

    A is q x q, B is q x p (p <= q), C is q x q, Sigma_S is the q x q noise
    covariance. When queried, the controller receives the exact state.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Sigma_S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        object.__setattr__(self, "Sigma_S", _as_matrix(self.Sigma_S, "Sigma_S"))
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")

    @property
    def q(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @_cached
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A, computed on first use and shared by every caller."""
        return np.linalg.eigvals(self.A)

    @_cached
    def noise_factor(self) -> np.ndarray:
        """N = C Sigma_S^(1/2), read-only: the plant noise C w is N z with z standard normal."""
        return _frozen(self.C @ psd_sqrt(self.Sigma_S))

    def noise_gram(self) -> np.ndarray:
        """C' Sigma_S C, the per-step covariance injected into the estimate error."""
        G = self.C.T @ self.Sigma_S @ self.C
        return (G + G.T) / 2.0


@record
class CostModel:
    """Stage cost x'Qx + u'Ru + i*O discounted by beta per step.

    O is the price paid each time the state is measured.
    """

    Q: np.ndarray
    R: np.ndarray
    beta: float
    O: float

    def __post_init__(self):
        object.__setattr__(self, "Q", _as_matrix(self.Q, "Q"))
        object.__setattr__(self, "R", _as_matrix(self.R, "R"))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "O", float(self.O))


@record
class Problem:
    """A plant, its cost model, and the known initial state (a read-only vector, zero when not given)."""

    sys: LinearSystem
    cost: CostModel
    x0: np.ndarray = field(default=None)

    def __post_init__(self):
        x0 = np.zeros(self.sys.q) if self.x0 is None else np.asarray(self.x0, dtype=float)
        object.__setattr__(self, "x0", _frozen(x0 if x0.ndim == 1 else x0.ravel()))

    @property
    def q(self) -> int:
        return self.sys.q

    @property
    def p(self) -> int:
        return self.sys.p


@record
class Violation:
    """One failed standing assumption: a stable machine-readable code and a message for people."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@np.errstate(over="ignore", invalid="ignore")  # a finite entry near the float limit may overflow in a test
def validate(problem: Problem) -> list[Violation]:
    """Check every standing assumption; an empty list means the problem is valid.

    Checks are independent and run in a fixed order, so repeated calls return
    the same list. Codes are stable strings intended for machine consumption.
    A finite matrix that numpy cannot decompose is reported as decomposition_failed.
    """
    sys, cost = problem.sys, problem.cost
    out: list[Violation] = []
    q = sys.q

    arrays = {"A": sys.A, "B": sys.B, "C": sys.C, "Sigma_S": sys.Sigma_S, "Q": cost.Q, "R": cost.R, "x0": problem.x0}
    # Definiteness tests skip a matrix with a NaN or infinite entry: it has failed already.
    non_finite = [name for name, M in arrays.items() if not np.all(np.isfinite(M))]
    out += [Violation("non_finite", f"{name} has a NaN or infinite entry") for name in non_finite]
    if not np.isfinite(cost.O):
        out.append(Violation("non_finite", f"measurement price O={cost.O} is not finite"))

    if sys.B.shape[0] != q:
        out.append(Violation("B_rows", f"B has {sys.B.shape[0]} rows, expected {q}"))
    if sys.B.shape[1] > q:
        out.append(Violation("B_cols", f"B has {sys.B.shape[1]} columns, more than q={q}"))
    if sys.C.shape != (q, q):
        out.append(Violation("C_shape", f"C has shape {sys.C.shape}, expected ({q}, {q})"))
    if sys.Sigma_S.shape != (q, q):
        out.append(Violation("Sigma_S_shape", f"Sigma_S has shape {sys.Sigma_S.shape}, expected ({q}, {q})"))

    if sys.Sigma_S.shape == (q, q) and "Sigma_S" not in non_finite:
        out += _definite(is_psd, "Sigma_S", sys.Sigma_S, "Sigma_S_not_psd", "symmetric positive semi-definite")
        if sys.C.shape == (q, q) and "C" not in non_finite:
            out += _definite(is_pd, "C'Sigma_S C", sys.noise_gram(), "noise_gram_not_pd", "positive definite")

    if cost.Q.shape != (q, q):
        out.append(Violation("Q_shape", f"Q has shape {cost.Q.shape}, expected ({q}, {q})"))
    elif "Q" not in non_finite:
        out += _definite(is_psd, "Q", cost.Q, "Q_not_psd", "symmetric positive semi-definite")

    p = sys.p
    if cost.R.shape != (p, p):
        out.append(Violation("R_shape", f"R has shape {cost.R.shape}, expected ({p}, {p})"))
    elif "R" not in non_finite:
        out += _definite(is_pd, "R", cost.R, "R_not_pd", "positive definite")

    if not (0.0 < cost.beta < 1.0):
        out.append(Violation("beta_range", f"discount beta={cost.beta} must lie in (0, 1)"))
    if cost.O < 0.0:
        out.append(Violation("O_negative", f"measurement price O={cost.O} must be >= 0"))

    if problem.x0.shape != (q,):
        out.append(Violation("x0_shape", f"x0 has shape {problem.x0.shape}, expected ({q},)"))

    # The PBH test needs finite A, B and Q of the right shapes, a decomposable PSD Q and beta in (0, 1).
    failed = {"Q_not_psd", "decomposition_failed"} & {v.code for v in out}
    if (sys.B.shape[0] == q and cost.Q.shape == (q, q) and 0.0 < cost.beta < 1.0
            and not {"A", "B", "Q"} & set(non_finite) and not failed):
        try:
            out += _pbh(sys, cost.Q, cost.beta)
        except np.linalg.LinAlgError as e:
            out.append(Violation("decomposition_failed", f"A could not be decomposed in the PBH test ({e})"))

    return out


def _definite(test, name: str, M: np.ndarray, code: str, what: str) -> list[Violation]:
    """[] when test(M) holds, else the violation that M is not ``what``; so is a decomposition of M that fails."""
    try:
        return [] if test(M) else [Violation(code, f"{name} is not {what}")]
    except np.linalg.LinAlgError as e:
        return [Violation("decomposition_failed", f"{name} could not be decomposed ({e})")]


def _rank_deficient(M: np.ndarray) -> bool:
    """Smallest singular value at or below EIG_TOL times the largest (taken as at least 1)."""
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] <= EIG_TOL * max(1.0, s[0])


def _pbh(sys: LinearSystem, Q: np.ndarray, beta: float) -> list[Violation]:
    """PBH test of (sqrt(beta) A, B) and (sqrt(beta) A, sqrt(Q)) at each lambda of A with sqrt(beta)|lambda| >= 1.

    The pair with B is stabilizable iff [A - lambda I, B] has full row rank at
    every such lambda, and the pair with sqrt(Q) is detectable iff
    [A - lambda I; Q] has full column rank there: for PSD Q, Q and sqrt(Q)
    have the same null space. It runs at each computed eigenvalue and at the
    mean of each cluster of them (PBH_CLUSTER_TOL), which stays accurate
    where the computed eigenvalues of a Jordan block scatter.
    """
    A, B, lams = sys.A, sys.B, sys.eigenvalues
    I = np.eye(A.shape[0])
    near = np.abs(lams[:, None] - lams[None, :]) <= PBH_CLUSTER_TOL * np.maximum(1.0, np.abs(lams))[:, None]
    clustered = near.sum(axis=1) > 1
    means = near[clustered] @ lams / near[clustered].sum(axis=1)
    lams = [lam for lam in (*lams, *means) if np.sqrt(beta) * abs(lam) >= 1.0]
    out = []
    for code, stack, M, reason in (("not_stabilizable", np.hstack, B, "B does not reach it"),
                                   ("not_detectable", np.vstack, Q, "Q does not weigh it")):
        lam = next((lam for lam in lams if _rank_deficient(stack([A - lam * I, M]))), None)
        if lam is not None:
            out.append(Violation(code, f"the mode of A at eigenvalue {lam:.6g} has sqrt(beta)|lambda| >= 1 and {reason}"))
    return out
