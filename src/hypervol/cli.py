"""Command-line front end.

Subcommands:

    volume   one simplex volume (or all three forms with max pairwise diff)
    ratio    growth ratio with the closed-form bounds and a sandwich flag
    sweep    CSV/JSON table of ratios and bounds over an (n, t) grid
    check    structural-invariant and cross-model self-checks at one (n, t)
    ladder   the circumradius/edge ladder as a table

Exit codes: 0 success; 1 argument or domain error; 2 quadrature
non-convergence (best estimate still printed); 3 bound violation found
in sweep/check mode.  Floats print with 17 significant digits so output
diffs are lossless at double precision.  Sweep rows are emitted in
n-major, t-minor order.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from .bounds import (
    default_audit_sequence,
    growth_bounds,
    growth_ratio,  # noqa: F401 -- perfbench's self-test checks that this binding is traced
    growth_ratio_grid,
    limit_audit,
)
from .errors import ConvergenceError, DegenerateGeometryError, DomainError, HypervolError
from .geometry import SimplexParams, halfspace_embedding, ladder
from .quadrature import QuadratureConfig
from .volume_forms import (
    volume_halfspace,
    volume_orthoscheme,
    volume_projective,
    zn_bounds,
)

_MAX_SWEEP_CELLS = 10**6      # largest (n, t) grid a sweep accepts

_SWEEP_COLUMNS = [
    "n", "t", "ratio", "ratio_err", "lower", "upper",
    "hm_lower", "hm_upper", "V_n", "V_facet", "sandwich_flag",
]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract here is 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _params(args) -> SimplexParams:
    if args.sin_t is not None:
        return SimplexParams.from_sin_t(args.n, args.sin_t)
    return SimplexParams(args.n, args.t)


def _config(args) -> QuadratureConfig:
    return QuadratureConfig() if args.tol is None else QuadratureConfig(rel_tol=args.tol)


def _open_out(path):
    """The output stream: stdout, or the --out file, opened before any
    command computes so that an unwritable path fails at once."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise HypervolError(f"cannot write {path}: {exc.strerror}") from None


def _spread(vals) -> float:
    """(max - min) / max of the volumes ``vals``, with max floored at
    1e-300; nan when any value is nan."""
    if any(map(math.isnan, vals)):
        return math.nan
    return (max(vals) - min(vals)) / max(max(vals), 1e-300)


# ---------------------------------------------------------------------------

_FORMS = {
    "projective": volume_projective,
    "orthoscheme": volume_orthoscheme,
    "halfspace": volume_halfspace,
}


def cmd_volume(args) -> int:
    params = _params(args)
    cfg = _config(args)
    every = args.method == "all"
    lines, vals = [], []
    code = 0
    for name in _FORMS if every else [args.method]:
        try:
            est = _FORMS[name](params, cfg)
        except DegenerateGeometryError:
            if not every:
                raise
            lines.append(f"method={name} skipped (degenerate t)")
            continue
        except ConvergenceError as exc:
            est, code = exc.estimate, 2
        vals.append(est.value)
        lines.append(
            f"method={name} value={_fmt(est.value)} "
            f"error={_fmt(est.error_estimate)} n_evals={est.n_evals}"
        )
    if every:
        lines.append(f"max_rel_diff={_fmt(_spread(vals))}")
    args.stream.write("\n".join(lines) + "\n")
    return code


def cmd_ratio(args) -> int:
    params = _params(args)
    row = _sweep_row(params, params.t, *growth_ratio_grid([params], _config(args))[0])
    ok = row["sandwich_flag"] == "ok"
    fields = " ".join(f"{key}={_fmt(row[key])}" for key in _SWEEP_COLUMNS[2:8])  # ratio..hm_upper
    args.stream.write(f"{fields} SANDWICH={'ok' if ok else 'VIOLATION'}\n")
    return 0 if ok else 3


def _sweep_row(params: SimplexParams, t: float, est, vol, facet) -> dict:
    """One sweep row; ``t`` is the value as given, which ``params`` may
    have clamped to pi/2."""
    b = growth_bounds(params)
    ok = (b.lower - est.error_estimate <= est.value <= b.upper + est.error_estimate)
    return {
        "n": params.n, "t": t, "ratio": est.value, "ratio_err": est.error_estimate,
        "lower": b.lower, "upper": b.upper,
        "hm_lower": b.hm_lower, "hm_upper": b.hm_upper,
        "V_n": vol.value, "V_facet": facet.value,
        "sandwich_flag": "ok" if ok else "violation",
    }


def _split(text: str, kind, flag: str) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise DomainError(f"{flag} takes comma-separated {kind.__name__} values") from None


def _parse_sweep_spec(args) -> tuple[tuple, tuple]:
    """The (dimensions, t values) grid of a sweep request; `cmd_sweep`
    checks each cell by building its SimplexParams before computing.  A
    grid of more than _MAX_SWEEP_CELLS cells is refused before any t value
    of a range is formed."""
    if args.t_list:
        ts = _split(args.t_list, float, "--t-list")
        count = len(ts)
    else:
        if args.t_start is None or args.t_stop is None or args.t_step is None:
            raise DomainError("provide either --t-list or --t-start/--t-stop/--t-step")
        if not all(map(math.isfinite, (args.t_start, args.t_stop, args.t_step))):
            raise DomainError("t-start, t-stop and t-step must be finite")
        if args.t_step <= 0:
            raise DomainError("t-step must be positive")
        steps = (args.t_stop - args.t_start) / args.t_step       # may be inf
        # past the cap the count stays a float: it is only reported
        count = int(math.floor(steps + 1e-9)) + 1 if steps < _MAX_SWEEP_CELLS else steps + 1
    ns = _split(args.n_list, int, "--n-list")
    if len(ns) * count > _MAX_SWEEP_CELLS:
        raise DomainError(f"sweep grid has {len(ns) * count:.7g} cells, more than "
                          f"{_MAX_SWEEP_CELLS:,}")
    if not ns or count < 1:
        raise DomainError("sweep grid is empty")
    if not args.t_list:
        ts = tuple(args.t_start + k * args.t_step for k in range(count))
    return ns, ts


def cmd_sweep(args) -> int:
    ns, ts = _parse_sweep_spec(args)
    cfg = _config(args)
    cells = [(SimplexParams(n, t), t) for n in ns for t in ts]
    grid = growth_ratio_grid([params for params, _ in cells], cfg)
    rows = [_sweep_row(params, t, *parts) for (params, t), parts in zip(cells, grid)]
    if args.format == "json":
        text = json.dumps(
            [{k: (_fmt(v) if isinstance(v, float) else v) for k, v in row.items()}
             for row in rows],
            indent=2,
        ) + "\n"
    else:
        lines = [",".join(_SWEEP_COLUMNS)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in _SWEEP_COLUMNS))
        text = "\n".join(lines) + "\n"
    args.stream.write(text)
    if any(row["sandwich_flag"] == "violation" for row in rows):
        return 3
    return 0


def _check_lines(params: SimplexParams, cfg: QuadratureConfig):
    """Yield (label, status, residual_or_None) triples."""
    lad = ladder(params)
    chain = float(lad.chain_residuals().max())
    yield "ladder_chain", chain <= 1e-12, chain
    d1 = abs(lad.tanh_r[0] - lad.tanh_d[0])
    yield "d1_equals_r1", d1 <= 1e-15, d1

    try:
        emb = halfspace_embedding(params)
    except DegenerateGeometryError:
        emb = None
    if emb is None:
        for label in ("gram_closed_form", "gamma_spheres", "sin_alpha_ladder", "zn_sandwich"):
            yield label, None, None
    else:
        gram = emb.v[1:] @ emb.v[1:].T
        gram_res = float(np.max(np.abs(gram - emb.gram))) / max(emb.sin_alpha**2, 1e-30)
        yield "gram_closed_form", gram_res <= 1e-12, gram_res
        n, g2 = params.n, emb.gamma**2
        centers = emb.centers[:n]                       # facet sphere i, in the boundary z = 0
        # vertex k to sphere i's center, k != i: the sphere passes through them
        dist = np.linalg.norm(emb.vertices - np.pad(centers, ((0, 0), (0, 1)))[:, None], axis=-1)
        worst = float(np.max(np.abs(dist - emb.gamma) / emb.gamma,
                             where=~np.eye(n, n + 1, dtype=bool), initial=0.0))
        yield "gamma_spheres", worst <= 1e-10, worst
        alpha_res = abs(emb.sin_alpha - lad.tanh_r[n - 2])
        yield "sin_alpha_ladder", alpha_res <= 1e-12, alpha_res
        rng = np.random.Generator(np.random.Philox(key=0))
        v = rng.dirichlet(np.ones(n), size=200) @ emb.v
        lo, hi = zn_bounds(emb, v)
        z = np.array([lo + 1e-12, 0.5 * (lo + hi), hi - 1e-12])      # (3, 200) heights
        inside = (lo <= z) & (z <= hi)
        norm2 = (v * v).sum(axis=-1) + z * z                            # |(v, z)|^2
        d2 = ((v[:, None] - centers) ** 2).sum(axis=-1) + (z * z)[..., None]   # (3, 200, n)
        bad = float(max(np.max(lo - hi, where=lo > hi + 1e-12, initial=0.0),
                        np.max(1.0 - norm2, where=inside & (norm2 < 1.0 - 1e-9), initial=0.0),
                        np.max(d2 / g2 - 1.0, where=inside[..., None] & (d2 > g2 * (1 + 1e-9)),
                               initial=0.0)))
        yield "zn_sandwich", bad == 0.0, bad

    ests = []
    if params.t > 0.0:
        ests = [volume_projective(params, cfg), volume_orthoscheme(params, cfg)]
        with contextlib.suppress(DegenerateGeometryError):    # ideal t, or cancelled at tiny t
            ests.append(volume_halfspace(params, cfg))
    if len(ests) < 2:
        yield "cross_model", None, None
    else:
        vals = [e.value for e in ests]
        spread = _spread(vals)
        budget = cfg.rel_tol + sum(e.error_estimate for e in ests) / max(max(vals), 1e-300)
        yield "cross_model", spread <= budget, spread


def cmd_check(args) -> int:
    params = _params(args)
    cfg = _config(args)
    all_ok = True
    # each check line is written as it is known, so a form that raises
    # inside cross_model still leaves the structural lines on the stream
    for label, ok, residual in _check_lines(params, cfg):
        if ok is None:
            args.stream.write(f"SKIP {label} (degenerate at this t)\n")
        else:
            status = "PASS" if ok else "FAIL"
            all_ok = all_ok and ok
            args.stream.write(f"{status} {label} residual={_fmt(float(residual))}\n")
    if args.audit_limits:
        audit = limit_audit(params.n, default_audit_sequence())
        lines = ["limit_audit: product cos(t)*atanh(sin t) toward t = pi/2"]
        for t, eps, prod in audit.rows:
            lines.append(f"  eps={_fmt(eps)} product={_fmt(prod)}")
        lines.append(
            f"  fitted_limit={_fmt(audit.fitted_limit)} "
            f"claimed_limit={_fmt(audit.claimed_limit)} "
            f"agreement={'yes' if audit.agrees_with_claim else 'NO'}"
        )
        args.stream.write("\n".join(lines) + "\n")
    return 0 if all_ok else 3


def cmd_ladder(args) -> int:
    params = _params(args)
    lad = ladder(params)
    lines = ["k,r_k,tanh_r_k,d_k,tanh_d_k"]
    for k in range(params.n):
        row = (lad.r[k], lad.tanh_r[k], lad.d[k], lad.tanh_d[k])
        lines.append(",".join([str(k + 1), *(_fmt(float(x)) for x in row)]))
    args.stream.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: its ``prog`` is
    fixed and ``parse_args`` returns a fresh namespace on every call.  Each
    subcommand's ``cmd_*`` function is bound when it is first built."""
    parser = _Parser(prog="hypervol", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # shared flags; each subcommand takes only the groups it reads
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--n", type=int, required=True, help="simplex dimension (>= 2)")
    g = point.add_mutually_exclusive_group(required=True)
    g.add_argument("--t", type=float, help="parameter t in radians, 0 <= t <= pi/2")
    g.add_argument("--sin-t", type=float, dest="sin_t", help="sin t in [0, 1]")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None, help="relative tolerance override")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="write output to this file")

    p = sub.add_parser("volume", parents=[point, tol, out], help="volume of tau[n, t]")
    p.add_argument("--method", choices=["projective", "orthoscheme", "halfspace", "all"],
                   default="projective")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("ratio", parents=[point, tol, out], help="growth ratio and bounds")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sweep", parents=[tol, out],
                       help="ratio/bound table over an (n, t) grid")
    p.add_argument("--n-list", type=str, required=True, help="comma-separated dimensions")
    p.add_argument("--t-start", type=float)
    p.add_argument("--t-stop", type=float)
    p.add_argument("--t-step", type=float,
                   help=f"t spacing; the grid may hold at most {_MAX_SWEEP_CELLS:,} cells")
    p.add_argument("--t-list", type=str, help="comma-separated t values (overrides start/stop/step)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", parents=[point, tol, out],
                       help="structural and cross-model self-checks")
    p.add_argument("--audit-limits", action="store_true",
                   help="also audit the endpoint product cos(t) atanh(sin t)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ladder", parents=[point, out], help="circumradius/edge ladder table")
    p.set_defaults(func=cmd_ladder)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _open_out(args.out) as args.stream:
            return args.func(args)
    except ConvergenceError as exc:
        if exc.estimate is not None:
            sys.stderr.write(
                f"non-convergence: best estimate {_fmt(exc.estimate.value)} "
                f"error {_fmt(exc.estimate.error_estimate)}\n"
            )
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except HypervolError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
