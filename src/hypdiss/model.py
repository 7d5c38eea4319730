"""Coefficient-matrix families for second-order systems of the form

    sum_j A^j(u) u_{x_j} = sum_{j,k} (B^{jk}(u) u_{x_j})_{x_k},   x_0 = t,

with built-in damped-wave models and a barotropic relativistic viscous
fluid frozen at its rest state.

A model is a pair of evaluators ``A(j, u)`` and ``B(j, k, u)`` (index 0 is
time) taking a state stack u (..., n) to real matrices (..., n, n) in one call,
together with the reference state and a box state domain.  Evaluators must be
deterministic; constant-coefficient built-ins return copies of one n x n array.
"""

import json
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, SingularB00, UnsupportedDataSpec

#: Number of low-discrepancy state samples used by domain-wide checks.
STATE_SAMPLES = 256

#: Condition-number ceiling for -B^{00}(u) during normalization.
B00_COND_CEILING = 1e8


@dataclass(frozen=True)
class FluidParameters:
    """Parameters of the barotropic relativistic viscous fluid.

    r is the equation-of-state parameter (p = rho / r), mu and nu are frame
    parameters, eta and zeta shear and bulk viscosities.  The standing
    constraint is mu > eta_tilde = (4/3) eta + zeta.
    """

    r: float
    mu: float
    nu: float
    eta: float
    zeta: float = 0.0
    allow_boundary: bool = False

    def __post_init__(self):
        if not self.r >= 1.0:
            raise InvalidParameter(f"need r >= 1, got {self.r}")
        if self.mu <= 0 or self.nu <= 0 or self.eta <= 0:
            raise InvalidParameter("mu, nu, eta must be positive")
        if self.zeta < 0:
            raise InvalidParameter("zeta must be nonnegative")
        if self.allow_boundary:
            if self.mu < self.eta_tilde:
                raise InvalidParameter("need mu >= eta_tilde with allow_boundary")
        elif not self.mu > self.eta_tilde:
            raise InvalidParameter(
                f"need mu > eta_tilde = (4/3)*eta + zeta = {self.eta_tilde}"
            )

    @property
    def eta_tilde(self):
        return 4.0 * self.eta / 3.0 + self.zeta


@dataclass(frozen=True)
class CoefficientModel:
    """Matrix families A^j(u), B^{jk}(u) with state metadata.

    Fields
    ------
    n, d : state and space dimensions
    state_domain : (lo, hi) arrays bounding the admissible states
    reference_state : the homogeneous state the analysis linearizes at
    A : evaluator (j, u) -> (..., n, n) array for u of shape (..., n), j = 0..d
    B : evaluator (j, k, u) -> (..., n, n) array, j, k = 0..d
    varying : the evaluator indices ("A", j) and ("B", j, k) whose matrices
        depend on u, or None when any may (a model built from bare callables)
    is_fluid : the barotropic fluid (its decay data are wider, sigma = 3)
    """

    n: int
    d: int
    reference_state: np.ndarray
    state_domain: tuple
    A: Callable[[int, np.ndarray], np.ndarray]
    B: Callable[[int, int, np.ndarray], np.ndarray]
    label: str = "model"
    varying: Optional[frozenset] = None
    is_fluid: bool = False
    normalized: bool = False

    @property
    def constant_coefficients(self):
        """No evaluator depends on u (enables fast paths)."""
        return self.varying is not None and not self.varying

    def varies(self, family, *index):
        """Whether model.A(*index, u) (family "A") or model.B(*index, u)
        (family "B") may depend on u."""
        return self.varying is None or (family, *index) in self.varying

    def state_samples(self, count=STATE_SAMPLES):
        """Deterministic low-discrepancy sample of the state domain."""
        if self.constant_coefficients:
            return self.reference_state[None, :].copy()
        lo, hi = (np.asarray(b, float) for b in self.state_domain)
        return lo + _halton(count, self.n) * (hi - lo)


def _halton(count, dim):
    """The first `count` points of the unscrambled Halton sequence in [0, 1)^dim.

    Coordinate k of point i is the radical inverse of i in the k-th prime,
    accumulated digit by digit as in scipy.stats.qmc.Halton(scramble=False).
    """
    primes = []
    p = 2
    while len(primes) < dim:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    pts = np.zeros((count, dim))
    for k, base in enumerate(primes):
        i = np.arange(count)
        scale = 1.0 / base
        while np.any(i > 0):
            pts[:, k] += (i % base) * scale
            scale /= base
            i //= base
    return pts


def _constant_model(n, d, A0, Aj, B, label, ref=None, is_fluid=False):
    """Build a constant-coefficient model from explicit matrix tables.

    Aj is a list of d matrices (space part); B a dict keyed by (j, k) over
    0..d with missing blocks zero.
    """
    ref = np.zeros(n) if ref is None else np.asarray(ref, float)
    Amats = [np.asarray(A0, float)] + [np.asarray(a, float) for a in Aj]
    Bmats = {}
    for j in range(d + 1):
        for k in range(d + 1):
            Bmats[(j, k)] = np.asarray(B.get((j, k), np.zeros((n, n))), float)

    def A_eval(j, u, _A=Amats):
        return _A[j].copy()

    def B_eval(j, k, u, _B=Bmats):
        return _B[(j, k)].copy()

    return CoefficientModel(
        n=n,
        d=d,
        reference_state=ref,
        state_domain=(ref - 1.0, ref + 1.0),
        A=A_eval,
        B=B_eval,
        label=label,
        varying=frozenset(),
        is_fluid=is_fluid,
    )


def builtin_damped_wave(a, d=1):
    """Scalar damped wave u_tt + a u_t = Laplace(u), a > 0."""
    if a <= 0:
        raise InvalidParameter(f"damping coefficient must be positive, got {a}")
    if d < 1:
        raise InvalidParameter(f"space dimension must be at least 1, got {d}")
    B = {(0, 0): [[-1.0]]}
    for j in range(1, d + 1):
        B[(j, j)] = [[1.0]]
    return _constant_model(1, d, [[a]], [[[0.0]]] * d, B, label=f"damped-wave(a={a},d={d})")


def builtin_convected_damped_wave(a_conv):
    """Damped wave with convection, u_tt + u_t + a u_x = u_xx (d=1).

    Satisfies the low-frequency dissipativity condition (D1) exactly when
    |a_conv| < 1 (sub-characteristic condition).
    """
    B = {(0, 0): [[-1.0]], (1, 1): [[1.0]]}
    return _constant_model(1, 1, [[1.0]], [[[float(a_conv)]]], B,
                           label=f"convected-damped-wave(a={a_conv})")


def builtin_barotropic_fluid(p: FluidParameters):
    """Barotropic relativistic viscous fluid frozen at the rest state.

    n=4, d=3 constant-coefficient model in psi = (four-velocity)/temperature
    with A^0 = diag(r, I_3), antisymmetric-free couplings through B^{0j} and
    the shear/bulk structure in B^{ij}.
    """
    n, d = 4, 3
    r, mu, nu, eta, zeta = p.r, p.mu, p.nu, p.eta, p.zeta
    eye3 = np.eye(3)

    A0 = np.zeros((4, 4))
    A0[0, 0] = r
    A0[1:, 1:] = eye3

    Aj = []
    for j in range(3):
        m = np.zeros((4, 4))
        m[0, 1 + j] = 1.0
        m[1 + j, 0] = 1.0
        Aj.append(m)

    B = {}
    B00 = np.zeros((4, 4))
    B00[0, 0] = -(r**2) * mu
    B00[1:, 1:] = -nu * eye3
    B[(0, 0)] = B00

    for j in range(3):
        m = np.zeros((4, 4))
        m[0, 1 + j] = -(mu * r + nu) / 2.0
        m[1 + j, 0] = -(mu * r + nu) / 2.0
        B[(0, j + 1)] = m
        B[(j + 1, 0)] = m

    coef = -mu + eta / 3.0 + zeta
    for i in range(3):
        for j in range(3):
            m = np.zeros((4, 4))
            if i == j:
                m[0, 0] = -nu
                m[1:, 1:] += eta * eye3
            sym = np.outer(eye3[i], eye3[j]) + np.outer(eye3[j], eye3[i])
            m[1:, 1:] += 0.5 * coef * sym
            B[(i + 1, j + 1)] = m

    ref = np.array([1.0, 0.0, 0.0, 0.0])  # rest frame at unit temperature
    return _constant_model(n, d, A0, Aj, B, ref=ref, is_fluid=True,
                           label=f"fluid(r={r},mu={mu},nu={nu},eta={eta},zeta={zeta})")


def evaluate_stack(model, family, *index, u):
    """model.A(*index, u) or model.B(*index, u) (family "A" or "B") at states u
    (..., n); InvalidParameter unless it has shape (..., n, n) or, from a
    constant-coefficient model, (n, n)."""
    m = getattr(model, family)(*index, u)
    want = np.shape(u)[:-1] + (model.n, model.n)
    if np.shape(m) != want and not (model.constant_coefficients and np.shape(m) == want[-2:]):
        raise InvalidParameter(f"{family}{list(index)} evaluator returned shape {np.shape(m)} "
                               f"for states of shape {np.shape(u)}; expected {want}")
    return m


def check_placement(spec, n):
    """UnsupportedDataSpec unless initial data `spec` names a component in
    0..n-1 and the target "u0" (the state) or "u1" (its time derivative)."""
    if not 0 <= spec.component < n:
        raise UnsupportedDataSpec(f"component {spec.component} outside 0..{n - 1}")
    if spec.target not in ("u0", "u1"):
        raise UnsupportedDataSpec(f"target must be 'u0' or 'u1', got {spec.target!r}")


def normalize_b00(model):
    """Left-multiply all coefficients by (-B^{00}(u))^{-1} so B^{00} = -I.

    The transformed system has the same solutions and the same dispersion
    roots at every (u, xi).  B^{00} is evaluated once on the STATE_SAMPLES
    sampled states; SingularB00 names the first sample at which -B^{00}(u)
    is not finite, singular or worse conditioned than B00_COND_CEILING.
    A B^{00} that does not vary is inverted once, here, and every family
    keeps its dependence on u; one that varies is inverted at every call,
    and every family of the result varies.
    """
    us = model.state_samples()
    ident = np.eye(model.n)
    b00 = np.broadcast_to(evaluate_stack(model, "B", 0, 0, u=us), us.shape[:-1] + ident.shape)
    finite = np.isfinite(b00).all(axis=(1, 2))
    c = np.where(finite, np.linalg.cond(np.where(finite[:, None, None], -b00, ident)), np.inf)
    bad = np.flatnonzero(c > B00_COND_CEILING)
    if bad.size:
        i = bad[0]
        raise SingularB00(
            f"-B^(00) condition number {c[i]:.3e} exceeds ceiling at u={us[i]}"
            if finite[i] else f"B^(00) evaluated to non-finite entries at u={us[i]}"
        )
    if np.allclose(b00, -ident, rtol=0.0, atol=1e-14):
        return model if model.normalized else replace(model, normalized=True)

    A_old, B_old = model.A, model.B
    if model.varies("B", 0, 0):
        # every family now depends on u through (-B^{00}(u))^{-1}
        def inv_factor(u):
            return np.linalg.inv(-np.asarray(B_old(0, 0, u), float))

        varying = None
    else:
        inv = np.linalg.inv(-np.asarray(B_old(0, 0, model.reference_state), float))

        def inv_factor(u):
            return inv

        varying = model.varying

    def A_new(j, u):
        return inv_factor(u) @ np.asarray(A_old(j, u), float)

    def B_new(j, k, u):
        return inv_factor(u) @ np.asarray(B_old(j, k, u), float)

    return replace(
        model, A=A_new, B=B_new, varying=varying, normalized=True,
        label=model.label + "|b00-normalized",
    )


def ensure_normalized(model):
    """Return a model with B^{00} = -I, normalizing if necessary."""
    if model.normalized:
        return model
    return normalize_b00(model)


# ---------------------------------------------------------------------------
# JSON model documents
# ---------------------------------------------------------------------------

_BUILTINS = {
    "damped-wave": lambda p: builtin_damped_wave(p("a"), p("d", 1, integer=True)),
    "convected-damped-wave": lambda p: builtin_convected_damped_wave(p("a")),
    "fluid": lambda p: builtin_barotropic_fluid(
        FluidParameters(r=p("r"), mu=p("mu"), nu=p("nu"), eta=p("eta"), zeta=p("zeta", 0.0))
    ),
}


def _builtin_reader(params):
    """p(key, default=None, integer=False) reads one builtin parameter: a
    number (a whole one with integer=True) under key, or the default when
    key is absent and a default is given."""

    def read(key, default=None, integer=False):
        where = f"builtin['params'][{key!r}]"
        if key not in params:
            if default is None:
                raise InvalidParameter(f"model document entry {where} is missing")
            return default
        value = params[key]
        kind = "an integer" if integer else "a number"
        if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer))
                or (integer and value != int(value))):
            raise InvalidParameter(f"model document entry {where} = {value!r} is not {kind}")
        return int(value) if integer else value

    return read


def _is_number(value):
    # a JSON number; true and false are not numbers
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _poly_entry(spec, n, where):
    """An entry is a number or a list of monomials [coeff, e_1, ..., e_n]
    with integer exponents e_k; (None, value) for a number or a list whose
    exponents are all zero, which does not vary with u, else (evaluator,
    None)."""
    if _is_number(spec):
        return None, float(spec)
    if not isinstance(spec, list):
        raise InvalidParameter(f"model document entry {where} = {spec!r} is neither a number "
                               "nor a list of monomials")
    terms = []
    for mono in spec:
        if not (isinstance(mono, list) and len(mono) == n + 1 and all(map(_is_number, mono))):
            raise InvalidParameter(f"model document entry {where} has monomial {mono!r}; "
                                   f"a monomial is a list of 1 + n = {n + 1} numbers")
        exps = np.array(mono[1:], dtype=float)
        if not np.all(exps == np.round(exps)):
            raise InvalidParameter(
                f"model document entry {where} has non-integer exponents "
                f"{mono[1:]}; monomial exponents must be integers"
            )
        terms.append((float(mono[0]), exps.astype(int)))
    if not any(e.any() for _, e in terms):
        return None, float(sum(c for c, _ in terms))

    def ev(u, _t=terms):
        # an overflowing term stays a silent inf/nan: the typed non-finite
        # checks downstream name it
        with np.errstate(over="ignore", invalid="ignore"):
            return sum(c * np.prod(u**e, axis=-1) for c, e in _t)

    return ev, None


def _matrix_table(doc, n, d, family):
    """Parse {"j" (family "A") or "j,k" (family "B"): [[entry ...] ...]}, with
    indices in 0..d and n x n matrices, into a state-stack evaluator and the
    set of evaluator indices (family, *index) with an entry that varies; the
    family names the entries in error messages."""
    form = "j" if family == "A" else "j,k"
    if not isinstance(doc, dict):
        raise InvalidParameter(f"model document entry {family} is not an object of matrices "
                               f"keyed {form!r}")
    table = {}
    varying = set()
    for key, rows in doc.items():
        where = f"{family}[{key!r}]"
        idx = tuple(int(i) if i.strip().isdigit() else -1 for i in str(key).split(","))
        if len(idx) != len(form.split(",")) or not all(0 <= i <= d for i in idx):
            raise InvalidParameter(f"model document key {where} is not {form} with indices in 0..{d}")
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(r, list) and len(r) == n for r in rows)):
            raise InvalidParameter(f"model document entry {where} is not {n} rows of {n} entries")
        const = np.zeros((n, n))
        funcs = {}
        for r in range(n):
            for c in range(n):
                ev, val = _poly_entry(rows[r][c], n, f"{where}[{r}][{c}]")
                if ev is None:
                    const[r, c] = val
                else:
                    funcs[(r, c)] = ev
                    varying.add((family,) + idx)
        table[idx] = (const, funcs)

    def evaluate(idx, u):
        const, funcs = table.get(idx, (np.zeros((n, n)), {}))
        m = np.broadcast_to(const, np.shape(u)[:-1] + (n, n)).copy()
        for (r, c), ev in funcs.items():
            m[..., r, c] += ev(u)
        return m

    return evaluate, varying


def _reject_non_finite(value, where):
    # json.load accepts NaN and Infinity; a model with them cannot be checked
    if isinstance(value, dict):
        for k, v in value.items():
            _reject_non_finite(v, f"{where}[{k!r}]")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _reject_non_finite(v, f"{where}[{i}]")
    elif isinstance(value, float) and not np.isfinite(value):
        raise InvalidParameter(f"model document entry {where} = {value} is not finite")


def _document_integer(doc, key):
    # a whole number (integral floats included) under key
    if key not in doc:
        raise InvalidParameter(f"model document missing key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)) or value != int(value):
        raise InvalidParameter(f"model document entry {key} = {value!r} is not an integer")
    return int(value)


def _document_array(doc, key, default):
    # the numbers under key (or the default) as a float array; true and
    # false are not numbers
    value = doc.get(key, default)
    refusal = InvalidParameter(f"model document entry {key} = {value!r} is not numeric")
    if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
        raise refusal
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise refusal from e


def model_from_dict(doc):
    """Build a model from a JSON document.

    Either {"builtin": {"name": ..., "params": {...}}} or explicit dense
    matrices {"n": ..., "d": ..., "reference_state": [...], "A": {...},
    "B": {...}} with entries that are numbers or monomial lists
    [coeff, e_1, ..., e_n] in the state components.  Every number must be
    finite and every exponent an integer.
    """
    for key, value in doc.items():
        _reject_non_finite(value, key)
    if "builtin" in doc:
        b = doc["builtin"]
        if not isinstance(b, dict) or "name" not in b:
            raise InvalidParameter("model document entry builtin is not an object with a 'name'")
        name, params = b["name"], b.get("params", {})
        if not isinstance(name, str) or name not in _BUILTINS:
            raise InvalidParameter(
                f"unknown builtin {name!r}; known: {sorted(_BUILTINS)}"
            )
        if not isinstance(params, dict):
            raise InvalidParameter(f"model document entry builtin['params'] = {params!r} "
                                   "is not an object")
        return _BUILTINS[name](_builtin_reader(params))

    n, d = _document_integer(doc, "n"), _document_integer(doc, "d")
    if n < 1 or d < 1:
        raise InvalidParameter(f"model document needs n >= 1 and d >= 1, got n = {n}, d = {d}")
    ref = _document_array(doc, "reference_state", np.zeros(n))
    if ref.shape != (n,):
        raise InvalidParameter("reference_state must have length n")
    A_eval, a_var = _matrix_table(doc.get("A", {}), n, d, "A")
    B_eval, b_var = _matrix_table(doc.get("B", {}), n, d, "B")
    lo = _document_array(doc, "domain_lo", ref - 1.0)
    hi = _document_array(doc, "domain_hi", ref + 1.0)
    if lo.shape != (n,) or hi.shape != (n,) or np.any(lo > hi):
        raise InvalidParameter(f"model document entries domain_lo = {lo.tolist()} and domain_hi = "
                               f"{hi.tolist()} need length n = {n} and domain_lo <= domain_hi")
    return CoefficientModel(
        n=n,
        d=d,
        reference_state=ref,
        state_domain=(lo, hi),
        A=lambda j, u: A_eval((j,), u),
        B=lambda j, k, u: B_eval((j, k), u),
        label=doc.get("label", "json-model"),
        varying=frozenset(a_var | b_var),
    )


def load_model(path):
    """Load a model from a JSON file."""
    with open(path) as f:
        return model_from_dict(json.load(f))
