"""Command-line experiment runner: ground states, fidelity / purity / g2
sweeps, chi tables, and the partition energy ledger, all written as CSV.

Every subcommand is deterministic: identical inputs give byte-identical
output.  A sweep solves its gamma grid in order, in this process, from one
``GroundSolver``.  Grids are given in the dimensionless combination
gamma*U/J^2 and converted internally.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .ansatz import Partition, build_block, build_c_sr, build_partition_state, build_q_sr
from .fock import CapacityError, embed_pair_state, full_basis, pair_basis, project_to_pair_sector
from .metrics import (
    chi_closed,
    chi_oracle_steps,
    energy_ledger,
    fidelity,
    g2,
    ladder_report,
    ledger_energy,
    ratio_lower_bound,
    single_pair_purity,
)
from .model import (
    ModelParams,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_relative_chain,
    gamma_coupling,
)
from .solve import (
    ConvergenceError,
    GroundSolver,
    analytic_two_fermion,
    analytic_two_pair,
    ground_space,
    spectral_equivalence_check,
)


def fmt(x) -> str:
    """15 significant digits, '.' decimal separator."""
    return f"{float(x):.15g}"


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: model selector, lattice content, couplings, gamma grid
    (in gamma*U/J^2), output path, and solver tolerance."""

    model: str = "effective"
    d: int = 10
    n: int = 2
    j: float = 1.0
    u: float = 1e3
    grid_min: float = 0.0
    grid_max: float = 20.0
    grid_points: int = 41
    targets: tuple = ()
    out: Optional[str] = None
    tol: float = 1e-9

    def __post_init__(self):
        if self.model not in ("full", "effective"):
            raise ValueError(f"model must be full or effective, got {self.model!r}")
        if self.grid_points < 2:
            raise ValueError(f"grid needs >= 2 points, got {self.grid_points}")
        if not (math.isfinite(self.grid_min) and math.isfinite(self.grid_max) and self.grid_min >= 0):
            raise ValueError(f"gamma grid must be finite and >= 0, got {self.grid_min:g}:{self.grid_max:g}")
        if not (math.isfinite(self.j) and self.j >= 0 and math.isfinite(self.u) and self.u > 0):
            raise ValueError(f"need finite J >= 0 and U > 0, got J = {self.j:g}, U = {self.u:g}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tol:g}")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_min, self.grid_max, self.grid_points)

    def gamma(self, x: float) -> float:
        """gamma at x = gamma*U/J^2; x must be finite and >= 0."""
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(f"gamma*U/J^2 must be finite and >= 0, got {x:g}")
        return ModelParams(j=self.j, u=self.u, gamma=x * self.j**2 / self.u, d=self.d).gamma


# ------------------------------------------------------------- target states

def parse_target(spec: str):
    """Target syntax: c2:s,r | q:s,r | block:M | partition:M1+M2+...  ."""
    kind, _, rest = spec.partition(":")
    try:
        if kind in ("c2", "q"):
            s, r = (int(v) for v in rest.split(","))
            return (kind, s, r)
        if kind == "block":
            return ("block", int(rest))
        if kind == "partition":
            return ("partition", tuple(int(v) for v in rest.split("+")))
    except ValueError:
        raise ValueError(f"bad target {spec!r}; targets are c2:s,r, q:s,r, block:M or partition:M1+M2+...") from None
    raise ValueError(f"unknown target {spec!r}")


def build_target(cfg: SweepConfig, target):
    """State for a parsed target on the basis of ``cfg.model``.  A c2
    target is built on the full basis; on the effective model it is its
    doubly-occupied part."""
    d, n = cfg.d, cfg.n
    if target[0] == "c2":
        if n != 2:
            raise ValueError("c2 targets need N = 2")
        psi = build_c_sr(d, target[1], target[2], 2)
        if cfg.model == "full":
            return psi
        psi = project_to_pair_sector(psi, pair_basis(d, 2))
        if psi.norm == 0.0:
            raise ValueError(f"{target_label(target)} has no doubly-occupied part; use --model full")
        return psi
    if target[0] == "q":
        if n != 2:
            raise ValueError("q targets need N = 2")
        psi = build_q_sr(d, target[1], target[2])
    elif target[0] == "block":
        if target[1] != n:
            raise ValueError(f"block size {target[1]} != N = {n}")
        psi = build_block(d, target[1])
    elif target[0] == "partition":
        part = Partition(target[1])
        if part.total != n:
            raise ValueError(f"partition {part} does not sum to N = {n}")
        psi = build_partition_state(d, part)[0]
    else:
        raise ValueError(f"unknown target {target!r}")
    return embed_pair_state(psi, full_basis(d, n, n)) if cfg.model == "full" else psi


def target_label(target) -> str:
    kind, *args = target
    return "_".join(str(v) for v in (kind, *(args[0] if kind == "partition" else args)))


# ------------------------------------------------------------------ sweeps

def _solver(cfg: SweepConfig) -> GroundSolver:
    """The solver of every sweep and of ``ground-state``: H(gamma) = H(0) +
    gamma * diag(``gamma_coupling``), so a point has the same bits on each."""
    params = ModelParams(j=cfg.j, u=cfg.u, gamma=0.0, d=cfg.d, n=cfg.n)
    op = build_full_hamiltonian(params) if cfg.model == "full" else build_effective_hamiltonian(params)
    return GroundSolver(op, gamma_coupling(op.basis), tol_deg=cfg.tol)


def _sweep(cfg: SweepConfig):
    """(gamma, x, ground space) at each point x of the grid, from one ``_solver``."""
    solver = _solver(cfg)
    for x in cfg.grid.tolist():
        gamma = cfg.gamma(x)
        yield gamma, x, solver(gamma)


def _sweep_comment(cfg: SweepConfig, pair_scan: Optional[str] = None) -> str:
    """The summary line of a sweep CSV.  A command that reads the
    single-pair RDM of pair-basis states passes its name as ``pair_scan``
    and is refused here, on the full model or with no pairs, before any
    basis is built."""
    if pair_scan and cfg.model != "effective":
        raise ValueError(f"{pair_scan} runs on the effective model only, got --model {cfg.model}")
    if pair_scan and cfg.n < 1:
        raise ValueError(f"single-pair RDM needs N >= 1 pairs, got --n {cfg.n} for {pair_scan}")
    return f"model = {cfg.model}, d = {cfg.d}, N = {cfg.n}, J = {fmt(cfg.j)}, U = {fmt(cfg.u)}"


# ---------------------------------------------------------------- CSV output

def write_csv(out: Optional[str], comment_lines, header, rows):
    lines = [f"# {c}" for c in comment_lines]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# --------------------------------------------------------------- subcommands
# Each takes the option values it reads (``OPTIONS``), keyed by config key.

def cmd_ground_state(values: dict) -> int:
    cfg = sweep_config_from(values)
    gamma = cfg.gamma(_parsed("gamma-u-j2", OPTIONS["gamma-u-j2"].parse, values["gamma-u-j2"]))
    gs = _solver(cfg)(gamma)
    vec = gs.state.amplitudes
    comments = [
        f"energy = {fmt(gs.energy)}",
        f"degeneracy = {gs.degeneracy}",
    ]
    if cfg.model == "full":
        header = ["mask_a", "mask_b", "re", "im"]
        rows = [
            [f"0x{ma:x}", f"0x{mb:x}", a.real, a.imag]
            for (ma, mb), a in zip(gs.basis.states.tolist(), vec)
        ]
    else:
        header = ["mask", "re", "im"]
        rows = [[f"0x{m:x}", a.real, a.imag] for m, a in zip(gs.basis.states.tolist(), vec)]
    write_csv(cfg.out, comments, header, rows)
    return 0


def cmd_fidelity_scan(values: dict) -> int:
    cfg = sweep_config_from(values)
    if not cfg.targets:
        raise ValueError("fidelity-scan needs at least one --targets entry")
    targets = [build_target(cfg, t) for t in cfg.targets]
    rows = [[gamma, x] + [fidelity(t, gs) for t in targets] for gamma, x, gs in _sweep(cfg)]
    header = ["gamma", "gammaU_J2"] + [target_label(t) for t in cfg.targets]
    write_csv(cfg.out, [_sweep_comment(cfg)], header, rows)
    return 0


def _oracle_prefix(d: int, n_max: int, m: int) -> list:
    """chi_oracle_series(d, n_max, m), cut before the first entry beyond
    the oracle's capacity."""
    prefix = []
    try:
        for chi in itertools.islice(chi_oracle_steps(d, m), n_max):
            prefix.append(chi)
    except CapacityError:
        pass
    return prefix


def cmd_chi(values: dict) -> int:
    d_range = _parsed("d", parse_range, values.get("d", "2:12"))
    n_range = _parsed("n", parse_range, values.get("n", "1:4"))
    m_range = _parsed("m", parse_range, values.get("m", "1"))
    header = ["d", "N", "M", "chi_closed", "chi_oracle", "ratio_next", "lower_bound"]
    rows = []
    for d in range(d_range[0], d_range[1] + 1):
        oracles = {m: _oracle_prefix(d, n_range[1], m) for m in range(m_range[0], m_range[1] + 1)}
        for n in range(n_range[0], n_range[1] + 1):
            for m in range(m_range[0], m_range[1] + 1):
                if n * m > d:
                    continue
                closed = chi_closed(d, n, m)
                oracle = fmt(oracles[m][n - 1]) if n <= len(oracles[m]) else ""
                ratio = fmt(chi_closed(d, n + 1, m) / closed) if closed else ""
                bound = fmt(ratio_lower_bound(d, n, m))
                rows.append([str(d), str(n), str(m), fmt(closed), oracle, ratio, bound])
    write_csv(values.get("out"), ["chi_N^(M) closed form vs explicit-construction oracle"], header, rows)
    return 0


def cmd_purity_scan(values: dict) -> int:
    cfg = sweep_config_from(values)
    comment = _sweep_comment(cfg, pair_scan="purity-scan")
    d, n = cfg.d, cfg.n
    rows = [[gamma, x, 1.0 - single_pair_purity(gs.state)[1]] for gamma, x, gs in _sweep(cfg)]
    # analytic checkpoints: independent-pairs value at gamma*U/J^2 = 4 and
    # the molecular (block-state) plateau at large gamma
    uniform = 1.0 / d + (d - n) ** 2 / (d * (d - 1))
    _, plateau = single_pair_purity(build_block(d, n))
    for row in rows:
        row += [1.0 - uniform, 1.0 - plateau]
    header = ["gamma", "gammaU_J2", "one_minus_P1", "checkpoint_at_4", "plateau_block"]
    write_csv(cfg.out, [comment], header, rows)
    return 0


def cmd_g2_scan(values: dict) -> int:
    cfg = sweep_config_from(values)
    comment = _sweep_comment(cfg, pair_scan="g2-scan")
    rows = []
    for gamma, x, gs in _sweep(cfg):
        vec = gs.state
        rows += [[gamma, x, sep, g2(vec, 0, sep)] for sep in range(1, cfg.d // 2 + 1)]
    header = ["gamma", "gammaU_J2", "separation", "g2"]
    write_csv(cfg.out, [comment], header, rows)
    return 0


def cmd_energy_ledger(values: dict) -> int:
    cfg = sweep_config_from(values)
    n = cfg.n
    ledger = energy_ledger(n, 1.0, 0.0)  # for the exact thresholds only
    comments = [
        f"N = {n}; ledger energies of |M+1+...+1> in units of Jbar = 2J^2/U",
        f"threshold gammabar/Jbar = {ledger.threshold_bars} "
        f"(gamma*U/J^2 = {ledger.threshold_gamma_u})",
    ]
    rows = []
    for x in cfg.grid:
        gammabar_over_jbar = float(x) - 2.0  # gammabar = 2(gamma - Jbar)
        for m in range(1, n + 1):
            rows.append([float(x), m, ledger_energy(n, m, 1.0, gammabar_over_jbar)])
    header = ["gammaU_J2", "M", "energy_over_Jbar"]
    write_csv(cfg.out, comments, header, rows)
    return 0


# ------------------------------------------------------------------- verify

def _verify_checks():
    """Fast analytic-checkpoint suite; yields (name, ok, detail)."""
    # chi closed form == construction oracle
    bad = [
        (d, n, m)
        for d in range(2, 11)
        for m in range(1, 4)
        for n, oracle in enumerate(chi_oracle_steps(d, m), start=1)
        if chi_closed(d, n, m) != oracle
    ]
    yield "chi closed == oracle (d <= 10, M <= 3)", not bad, f"mismatches: {bad[:3]}"

    # two-fermion bound state vs relative chain
    sol = analytic_two_fermion(1.0, 3.0)
    chain = build_relative_chain("two_fermion", ModelParams(j=1.0, u=3.0, gamma=0.0, d=10, n=1), r=0, cutoff=400)
    e = ground_space(chain).energy
    ok = abs(e - sol.energy) <= 1e-8 * abs(sol.energy)
    yield "two-fermion chain energy", ok, f"analytic {sol.energy}, chain {e}"

    # two-pair bound state vs relative chain (gamma / Jbar = 3)
    sol2 = analytic_two_pair(1.0, 3.0)
    p2 = ModelParams(j=1.0, u=2.0, gamma=3.0, d=10, n=2)  # Jbar = 1, gammabar = 4
    chain2 = build_relative_chain("two_pair", p2, r=0, cutoff=400)
    e2 = ground_space(chain2).energy
    ok = abs(e2 - sol2.energy) <= 1e-8 * abs(sol2.energy)
    yield "two-pair chain energy", ok, f"analytic {sol2.energy}, chain {e2}"

    # ladder factors at M = 1
    rep = ladder_report(10, 10, 1)
    ok = all(a == Fraction(10 - n + 1, 10) for n, a in enumerate(rep.alpha_sq, start=1))
    yield "ladder alpha_N^2 = (d-N+1)/d", ok, str(rep.alpha_sq)

    # two-coboson expansion of the squared bi-fermion operator
    ok = True
    detail = ""
    for d in (4, 6, 8):
        lhs = project_to_pair_sector(build_c_sr(d, 0, 0, 2), pair_basis(d, 2))
        rhs = np.zeros(lhs.basis.size, dtype=complex)
        for s in range(1, d // 2 + 1):
            w = math.sqrt(2.0 / (d - 1)) if s < d // 2 else 1.0 / math.sqrt(d - 1)
            rhs += w * build_q_sr(d, s, 0).amplitudes
        diff = float(np.abs(lhs.amplitudes - rhs).max())
        if diff > 1e-12:
            ok, detail = False, f"d = {d}: max diff {diff:g}"
    yield "separation expansion of c^dag^2 |0>", ok, detail

    # purity checkpoints
    ok = True
    detail = ""
    for d, n in ((10, 2), (10, 3)):
        vec, _ = build_partition_state(d, [1] * n)
        _, p1 = single_pair_purity(vec)
        want = 1.0 / d + (d - n) ** 2 / (d * (d - 1))
        if abs(p1 - want) > 1e-10:
            ok, detail = False, f"(d,N)=({d},{n}): {p1} vs {want}"
    yield "uniform-state purity checkpoints", ok, detail

    _, p1 = single_pair_purity(build_block(10, 4))
    ok = abs(p1 - (1 + 2 / 16) / 10) < 1e-10
    _, p2v = single_pair_purity(build_block(10, 5))
    ok = ok and abs(p2v - (1 + 4 / 25) / 10) < 1e-10
    yield "block-state purity piecewise values", ok, f"{p1}, {p2v}"

    vec, _ = build_partition_state(10, [1, 1, 1, 1])
    val = g2(vec, 0, 3)
    ok = abs(val - 10 * 3 / (4 * 9)) < 1e-10
    yield "uniform-state g2 checkpoint", ok, str(val)

    ok = energy_ledger(3, 1.0, 0.0).threshold_gamma_u == Fraction(5)
    yield "ledger threshold N = 3", ok, ""

    rep = spectral_equivalence_check(ModelParams(j=1.0, u=1e3, gamma=4e-3, d=6, n=2))
    ok = rep.fidelity is not None and rep.fidelity >= 0.999
    yield "effective-model fidelity at gamma*U/J^2 = 4", ok, str(rep.fidelity)


def cmd_verify(values: dict) -> int:
    failures = 0
    for name, ok, detail in _verify_checks():
        if ok:
            print(f"ok    {name}")
        else:
            failures += 1
            print(f"FAIL  {name}: {detail}")
    print(f"# {failures} failure(s)")
    return 1 if failures else 0


# -------------------------------------------------------------------- parsing

def parse_int(text: str) -> int:
    """One integer."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r}; expected one integer") from None


def parse_float(text: str) -> float:
    """One number."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad number {text!r}; expected one number") from None


def parse_range(text: str) -> tuple:
    """'lo:hi' or a single integer, 1 <= lo <= hi."""
    try:
        lo, hi = (int(v) for v in text.split(":")) if ":" in text else (int(text),) * 2
    except ValueError:
        lo = hi = 0
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range {text!r}; expected lo:hi or one integer, 1 <= lo <= hi")
    return lo, hi


def parse_grid(text: str) -> tuple:
    """'min:max:points', min <= max and points >= 2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be min:max:points, got {text!r}")
    try:
        lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        lo = hi = pts = 0
    if pts < 2 or hi < lo:
        raise ValueError(f"bad grid {text!r}; expected min:max:points, numbers min <= max and an integer points >= 2")
    return lo, hi, pts


def _parsed(key: str, parse: Callable, value):
    """parse(value), with a ValueError that names the option, as argparse
    names a flag: 'argument --key: ...'."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"argument --{key}: {exc}") from None


def parse_targets_grouped(text: str) -> tuple:
    """Split a target list on commas, keeping 's,r' pairs together."""
    out = []
    for piece in text.split(","):
        if out and ":" not in piece:
            out[-1] = out[-1] + "," + piece
        else:
            out.append(piece)
    return tuple(parse_target(s) for s in out)


@dataclass(frozen=True)
class Option:
    """One option: its config key (the flag is ``--key``; a flag only when
    not ``config``), the subcommands that read it, its argparse settings,
    and the ``SweepConfig`` fields that ``parse`` fills from its value
    (none for the options that only ``chi`` and ``ground-state`` read)."""

    key: str
    commands: tuple
    flag: dict
    fields: tuple = ()
    parse: Callable = str
    config: bool = True


_SOLVES = ("ground-state", "fidelity-scan", "purity-scan", "g2-scan")
OPTIONS = {opt.key: opt for opt in (
    Option("model", _SOLVES, dict(choices=("full", "effective")), ("model",)),
    Option("d", (*_SOLVES, "chi"), dict(help="sites (ranges lo:hi allowed for chi)"), ("d",), parse_int),
    Option("n", (*_SOLVES, "energy-ledger", "chi"), dict(help="pair count N (ranges lo:hi allowed for chi)"),
           ("n",), parse_int),
    Option("J", _SOLVES, dict(help="hopping energy"), ("j",), parse_float),
    Option("U", _SOLVES, dict(help="point-interaction energy"), ("u",), parse_float),
    Option("gamma-grid", ("fidelity-scan", "purity-scan", "g2-scan", "energy-ledger"),
           dict(help="min:max:points in gamma*U/J^2 units"), ("grid_min", "grid_max", "grid_points"), parse_grid),
    Option("targets", ("fidelity-scan",), dict(help="comma list: c2:s,r / q:s,r / block:M / partition:M1+M2+..."),
           ("targets",), parse_targets_grouped),
    Option("out", (*_SOLVES, "energy-ledger", "chi"), dict(help="output CSV path (default stdout)"), ("out",)),
    Option("tol", _SOLVES, dict(help="solver degeneracy tolerance"), ("tol",), parse_float),
    Option("m", ("chi",), dict(help="M range lo:hi (default 1)")),
    Option("gamma-u-j2", ("ground-state",), dict(default="0", help="gamma*U/J^2"), parse=parse_float, config=False),
)}
CONFIG_KEYS = tuple(key for key, opt in OPTIONS.items() if opt.config)

# (name, help, runner)
COMMANDS = (
    ("ground-state", "ground state amplitudes at one gamma", cmd_ground_state),
    ("fidelity-scan", "fidelities vs targets over a gamma grid", cmd_fidelity_scan),
    ("purity-scan", "1 - P1 over a gamma grid (effective model)", cmd_purity_scan),
    ("g2-scan", "pair g2 over a gamma grid (effective model)", cmd_g2_scan),
    ("energy-ledger", "ledger energies and the assembly threshold", cmd_energy_ledger),
    ("chi", "chi table over (d, N, M) ranges", cmd_chi),
    ("verify", "run the analytic checkpoint suite", cmd_verify),
)


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; flags override.  A
    key outside CONFIG_KEYS is an error."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in {path}; keys: {', '.join(CONFIG_KEYS)}")
            out[key] = val
    return out


def sweep_config_from(values: dict) -> SweepConfig:
    """The ``SweepConfig`` of option values keyed by config key: strings,
    or what a flag's argparse type made of them."""
    kw = {}
    for key, value in values.items():
        fields, parse = OPTIONS[key].fields, OPTIONS[key].parse
        if fields:
            parsed = _parsed(key, parse, value)
            kw.update(zip(fields, parsed if len(fields) > 1 else (parsed,)))
    return SweepConfig(**kw)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``COMMANDS`` row, holding the flags of the
    ``OPTIONS`` it reads, and ``--config`` when it reads a config key."""
    parser = argparse.ArgumentParser(
        prog="cobosons",
        description="Composite-boson assembly experiments on the 1D extended Hubbard model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, runner in COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=runner)
        options = [opt for opt in OPTIONS.values() if name in opt.commands]
        if any(opt.config for opt in options):
            p.add_argument("--config", help="flat key = value file; explicit flags win. "
                           f"Keys: {', '.join(CONFIG_KEYS)}")
        for opt in options:
            p.add_argument(f"--{opt.key}", dest=opt.key, **opt.flag)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; ``parse_args`` returns
    a fresh namespace on every call, so nothing carries over."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    # a config file may hold any key; the command reads its own, and flags win
    values = {key: value for key, value in values.items() if args.command in OPTIONS[key].commands}
    values.update((key, value) for key, value in vars(args).items() if key in OPTIONS and value is not None)
    return args.run(values)


def run(argv=None) -> int:
    """Console entry: ``main``, with a ValueError (a bad config key or
    target, a ``CapacityError``, a ``BasisMismatchError``, ...) reported
    as one line on stderr and exit status 2, as argparse reports a bad
    flag, and a ``ConvergenceError`` (a solve that failed on valid input)
    as one line and exit status 1."""
    try:
        return main(argv)
    except (ValueError, ConvergenceError) as exc:
        sys.stderr.write(f"cobosons: error: {exc}\n")
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(run())
