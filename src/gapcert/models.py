"""Built-in interactions and the plain-text model file formats.

Two families ship with the package: the ferromagnetic Heisenberg chain
(d=2, singlet projector -- gapless, with gap scaling ~ 1/m^2) and the AKLT
chain (d=3, projection onto the spin-2 subspace of two spin-1 sites --
gapped, hence certifiable by the finite-size criteria).  Seeded Haar-random
projections are provided for fuzzing operator identities; they are
generally frustrated, so certification refuses them unless the
frustration-free check passes.

The d=3 basis is ordered by Sz in {+1, 0, -1}.  Any consistent convention
gives a unitarily equivalent model and identical spectra; one order is
fixed so that matrices are reproducible entry by entry.  Both built-ins
conserve total Sz and declare it as per-site charges in that basis order:
(+1, -1) for the ferro chain, (+1, 0, -1) for AKLT.  Both are also
SU(2)-invariant and declare their single-site raising operator S+
(|up><down| for the ferro chain, the spin-1 S+ for AKLT), so their
Hamiltonians are solved in the central total-S^z block alone.  Random
projections declare neither and are solved as one sector.  Model files
carry charges but no S+: a saved and reloaded built-in is solved block by
block over every total-charge sector, with the same gap and kernel
dimension.

File formats (whitespace-separated `re,im` complex entries, row per line):
nearest-neighbor files start with `d=<int>`, then an optional charge line
`Q= <int> ... <int>` (d per-site charges, refused unless P conserves their
pair sum), then the d^2 x d^2 matrix; finite-range files start with
`d=<int>`, `R=<odd int>`, then per shape a line `S= (x,y,z);(x,y,z);...`
followed by its d^|S| x d^|S| matrix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gapcert.coarsegrain import FiniteRangeSpec, InteractionShape
from gapcert.operators import (
    NNInteraction,
    projection_check,
    projection_defects,
)


class ModelFormatError(ValueError):
    """Malformed or non-projection model file; message names the line."""


@dataclass(frozen=True)
class ModelDescriptor:
    """Registry entry: name, local dimension, and a factory taking the range R."""

    name: str
    d: int
    factory: Callable
    note: str = ""


def heisenberg_ferro() -> NNInteraction:
    """Singlet projector (I - SWAP)/2 on two qubits; rank 1."""
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[2 * a + b, 2 * b + a] = 1.0
    P = (np.eye(4) - swap) / 2
    up_from_down = np.array([[0.0, 1.0], [0.0, 0.0]])  # |up><down|, basis (up, down)
    return NNInteraction(
        d=2, P=P, name="heisenberg-ferro", charges=(1, -1), raising=up_from_down
    )


def _spin1_matrices():
    sp = np.sqrt(2.0) * np.array(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.complex128
    )
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    sz = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return sp, sx, sy, sz


def aklt() -> NNInteraction:
    """Projection onto the spin-2 subspace of two spin-1 sites; rank 5.

    With X = S.S on the pair, total spin s gives X eigenvalue
    s(s+1)/2 - 2, so (X^2 + 3X + 2)/6 kills the s=0 and s=1 multiplets
    and fixes the five s=2 states.
    """
    sp, sx, sy, sz = _spin1_matrices()
    X = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    P = (X @ X + 3 * X + 2 * np.eye(9)) / 6
    P = (P + P.conj().T) / 2
    return NNInteraction(d=3, P=P, name="aklt", charges=(1, 0, -1), raising=sp)


def random_projection(d: int, rank: int, seed: int) -> NNInteraction:
    """Seeded Haar-random rank-`rank` projection on two d-level sites."""
    if not 1 <= rank < d**2:
        raise ValueError(f"rank must satisfy 1 <= rank < d^2 = {d**2}, got {rank}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d**2, rank)) + 1j * rng.standard_normal((d**2, rank))
    Q, _ = np.linalg.qr(A)
    P = Q @ Q.conj().T
    P = (P + P.conj().T) / 2
    return NNInteraction(d=d, P=P, name=f"random-d{d}-r{rank}-s{seed}")


def heisenberg_ferro_fr(R: int = 1) -> FiniteRangeSpec:
    """The ferro chain as a finite-range spec: one two-site shape per axis."""
    P = heisenberg_ferro().P
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    shapes = tuple(InteractionShape(((0, 0, 0), e), P) for e in units)
    return FiniteRangeSpec(d=2, shapes=shapes, R=R)


MODELS = {
    "heisenberg-ferro": ModelDescriptor(
        name="heisenberg-ferro",
        d=2,
        factory=lambda R: heisenberg_ferro(),
        note="two-site singlet projector; gapless",
    ),
    "aklt": ModelDescriptor(
        name="aklt",
        d=3,
        factory=lambda R: aklt(),
        note="spin-2 projector on two spin-1 sites; gapped",
    ),
    "heisenberg-ferro-fr": ModelDescriptor(
        name="heisenberg-ferro-fr",
        d=2,
        factory=heisenberg_ferro_fr,
        note="ferro singlet projector as a finite-range spec (one shape per axis)",
    ),
}


def build_model(name: str, R: int | None = None):
    """Instantiate a registry model; finite-range entries take the range R."""
    if name not in MODELS:
        raise ValueError(
            f"unknown model {name!r}; registry has {sorted(MODELS)} "
            f"(or pass a model file path)"
        )
    return MODELS[name].factory(R if R is not None else 1)


def resolve_model(selector: str, R: int | None = None):
    """Registry name or file path -> NNInteraction | FiniteRangeSpec."""
    if selector in MODELS:
        return build_model(selector, R=R)
    if os.path.exists(selector):
        return load_model(selector)
    raise ValueError(
        f"unknown model {selector!r}: not a registry name {sorted(MODELS)} "
        f"and no such file"
    )


def _parse_entry(token: str, line_no: int, col: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise ModelFormatError(
            f"line {line_no}, entry {col}: expected 're,im', got {token!r}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ModelFormatError(
            f"line {line_no}, entry {col}: non-numeric entry {token!r}"
        ) from None


def _parse_matrix_rows(lines, start: int, dim: int, what: str) -> np.ndarray:
    """dim rows of dim entries each, starting at index `start` in `lines`."""
    M = np.zeros((dim, dim), dtype=np.complex128)
    idx = start
    for r in range(dim):
        if idx >= len(lines):
            raise ModelFormatError(
                f"line {len(lines) + 1}: unexpected end of file; "
                f"{what} needs {dim} rows, found {r}"
            )
        line_no, text = lines[idx]
        tokens = text.split()
        if len(tokens) != dim:
            raise ModelFormatError(
                f"line {line_no}: expected {dim} entries, found {len(tokens)}"
            )
        for c, tok in enumerate(tokens):
            M[r, c] = _parse_entry(tok, line_no, c + 1)
        idx += 1
    return M, idx


def _check_projection_or_raise(P: np.ndarray, where: str):
    if not projection_check(P):
        dh, di = projection_defects(P)
        raise ModelFormatError(
            f"{where} is not a projection: |P - P*| = {dh:.6e}, "
            f"|P^2 - P| = {di:.6e} (tolerance 1e-12)"
        )


def _parse_offsets(text: str, line_no: int):
    body = text[2:].strip()
    if not body:
        raise ModelFormatError(f"line {line_no}: empty shape offset list")
    offsets = []
    for tok in body.split(";"):
        tok = tok.strip()
        if not (tok.startswith("(") and tok.endswith(")")):
            raise ModelFormatError(
                f"line {line_no}: expected offset '(x,y,z)', got {tok!r}"
            )
        parts = tok[1:-1].split(",")
        if len(parts) != 3:
            raise ModelFormatError(
                f"line {line_no}: offset needs 3 coordinates, got {tok!r}"
            )
        try:
            offsets.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ModelFormatError(
                f"line {line_no}: non-integer offset {tok!r}"
            ) from None
    return tuple(offsets)


def _parse_charges(text: str, line_no: int, d: int) -> tuple:
    tokens = text[2:].split()
    if len(tokens) != d:
        raise ModelFormatError(
            f"line {line_no}: Q= needs {d} per-site charges, found {len(tokens)}"
        )
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise ModelFormatError(
            f"line {line_no}: Q= charges must be integers, got {text[2:].strip()!r}"
        ) from None


def load_model(path):
    """Parse a model file into an NNInteraction or a FiniteRangeSpec.

    The second header line decides the format: `R=<odd int>` marks a
    finite-range spec, anything else is read as the nearest-neighbor
    d^2 x d^2 matrix, after an optional `Q=` charge line.  Parse errors,
    projection failures and charges P does not conserve report the line.
    """
    with open(path) as fh:
        raw = fh.readlines()
    lines = [
        (i + 1, s.strip()) for i, s in enumerate(raw) if s.strip()
    ]
    if not lines:
        raise ModelFormatError("line 1: empty model file")
    line_no, head = lines[0]
    if not head.startswith("d="):
        raise ModelFormatError(f"line {line_no}: expected 'd=<int>', got {head!r}")
    try:
        d = int(head[2:])
    except ValueError:
        raise ModelFormatError(
            f"line {line_no}: non-integer local dimension {head[2:]!r}"
        ) from None
    if d < 2:
        raise ModelFormatError(f"line {line_no}: local dimension must be >= 2, got {d}")

    name = os.path.splitext(os.path.basename(path))[0]
    if len(lines) > 1 and lines[1][1].startswith("R="):
        return _load_finite_range(lines, d, name)

    charges, start = None, 1
    if len(lines) > 1 and lines[1][1].startswith("Q="):
        charges, start = _parse_charges(lines[1][1], lines[1][0], d), 2
    P, idx = _parse_matrix_rows(lines, start, d**2, f"a d^2 x d^2 = {d**2} matrix")
    if idx != len(lines):
        raise ModelFormatError(
            f"line {lines[idx][0]}: trailing content after the matrix"
        )
    _check_projection_or_raise(P, "matrix")
    try:
        return NNInteraction(d=d, P=P, name=name, charges=charges)
    except ValueError as exc:
        # the shape is right by parsing, so only the charge check can fail
        raise ModelFormatError(f"line {lines[1][0]}: Q= charges refused: {exc}") from None


def _load_finite_range(lines, d: int, name: str) -> FiniteRangeSpec:
    line_no, rline = lines[1]
    try:
        R = int(rline[2:])
    except ValueError:
        raise ModelFormatError(
            f"line {line_no}: non-integer range {rline[2:]!r}"
        ) from None
    if R < 1 or R % 2 == 0:
        raise ModelFormatError(
            f"line {line_no}: range must be odd and positive, got {R}"
        )
    shapes = []
    idx = 2
    while idx < len(lines):
        line_no, text = lines[idx]
        if not text.startswith("S="):
            raise ModelFormatError(
                f"line {line_no}: expected a shape line 'S= (x,y,z);...', "
                f"got {text!r}"
            )
        offsets = _parse_offsets(text, line_no)
        dim = d ** len(offsets)
        P, idx = _parse_matrix_rows(
            lines, idx + 1, dim, f"a d^|S| x d^|S| = {dim} matrix"
        )
        _check_projection_or_raise(P, f"shape at line {line_no}")
        try:
            shapes.append(InteractionShape(offsets, P))
        except ValueError as exc:
            raise ModelFormatError(f"line {line_no}: {exc}") from None
    return FiniteRangeSpec(d=d, shapes=tuple(shapes), R=R)


def _fmt(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def save_model(model, path):
    """Write a model file; floats via repr so reloading is entrywise exact."""
    if isinstance(model, NNInteraction):
        out = [f"d={model.d}"]
        if model.charges is not None:
            out.append("Q= " + " ".join(str(c) for c in model.charges))
        for row in model.P:
            out.append(" ".join(_fmt(z) for z in row))
    elif isinstance(model, FiniteRangeSpec):
        out = [f"d={model.d}", f"R={model.R}"]
        for shape in model.shapes:
            offs = ";".join(f"({o[0]},{o[1]},{o[2]})" for o in shape.offsets)
            out.append(f"S= {offs}")
            for row in shape.projection:
                out.append(" ".join(_fmt(z) for z in row))
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
