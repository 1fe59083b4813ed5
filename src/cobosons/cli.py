"""Command-line experiment runner: ground states, fidelity / purity / g2
sweeps, chi tables, and the partition energy ledger, all written as CSV.

Every subcommand is deterministic: identical inputs give byte-identical
output.  Sweeps over the gamma grid can be evaluated in parallel with
``--jobs``; rows are buffered and written in grid order.  Grids are given
in the dimensionless combination gamma*U/J^2 and converted internally.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .ansatz import Partition, build_block, build_c_sr, build_partition_state, build_q_sr
from .fock import embed_pair_state, fix_phase, full_basis, pair_basis, project_to_pair_sector
from .metrics import (
    chi_closed,
    chi_oracle,
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
)
from .solve import (
    analytic_two_fermion,
    analytic_two_pair,
    ground_space,
    ground_state_vector,
    spectral_equivalence_check,
)


def fmt(x) -> str:
    """15 significant digits, '.' decimal separator."""
    return f"{float(x):.15g}"


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: model selector, lattice content, couplings, gamma grid
    (in gamma*U/J^2), output path, parallelism, and solver tolerance."""

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
    jobs: int = 1
    tol: float = 1e-9

    def __post_init__(self):
        if self.model not in ("full", "effective"):
            raise ValueError(f"model must be full or effective, got {self.model!r}")
        if self.grid_points < 2:
            raise ValueError(f"grid needs >= 2 points, got {self.grid_points}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tol}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_min, self.grid_max, self.grid_points)

    def gamma(self, x: float) -> float:
        return x * self.j**2 / self.u


# ------------------------------------------------------------- target states

def parse_target(spec: str):
    """Target syntax: c2:s,r | q:s,r | block:M | partition:M1+M2+...  ."""
    kind, _, rest = spec.partition(":")
    if kind == "c2":
        s, r = (int(v) for v in rest.split(","))
        return ("c2", s, r)
    if kind == "q":
        s, r = (int(v) for v in rest.split(","))
        return ("q", s, r)
    if kind == "block":
        return ("block", int(rest))
    if kind == "partition":
        return ("partition", tuple(int(v) for v in rest.split("+")))
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
    if target[0] in ("c2", "q"):
        return f"{target[0]}_{target[1]}_{target[2]}"
    if target[0] == "block":
        return f"block_{target[1]}"
    return "partition_" + "_".join(str(m) for m in target[1])


# ------------------------------------------------------------- sweep workers

def _hamiltonian(cfg: SweepConfig, gamma: float):
    params = ModelParams(j=cfg.j, u=cfg.u, gamma=gamma, d=cfg.d, n=cfg.n)
    if cfg.model == "full":
        return build_full_hamiltonian(params)
    return build_effective_hamiltonian(params)


def _fidelity_point(args):
    cfg, x = args
    gamma = cfg.gamma(x)
    gs = ground_space(_hamiltonian(cfg, gamma), tol_deg=cfg.tol)
    return [gamma, x] + [fidelity(build_target(cfg, t), gs) for t in cfg.targets]


def _purity_point(args):
    cfg, x = args
    gamma = cfg.gamma(x)
    vec = ground_state_vector(_hamiltonian(cfg, gamma), tol_deg=cfg.tol)
    _, p1 = single_pair_purity(vec)
    return [gamma, x, 1.0 - p1]


def _g2_point(args):
    cfg, x = args
    gamma = cfg.gamma(x)
    vec = ground_state_vector(_hamiltonian(cfg, gamma), tol_deg=cfg.tol)
    return [[gamma, x, sep, g2(vec, 0, sep)] for sep in range(1, cfg.d // 2 + 1)]


def _require_effective(cfg: SweepConfig, command: str) -> None:
    if cfg.model != "effective":
        raise ValueError(f"{command} runs on the effective model only, got --model {cfg.model}")


def run_grid(worker, cfg: SweepConfig):
    args = [(cfg, float(x)) for x in cfg.grid]
    if cfg.jobs == 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(worker, args))


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

def cmd_ground_state(cfg: SweepConfig, gamma_u_j2: float) -> int:
    gamma = cfg.gamma(gamma_u_j2)
    gs = ground_space(_hamiltonian(cfg, gamma), tol_deg=cfg.tol)
    vec = fix_phase(gs.vectors[:, 0])
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


def cmd_fidelity_scan(cfg: SweepConfig) -> int:
    if not cfg.targets:
        raise ValueError("fidelity-scan needs at least one --targets entry")
    rows = run_grid(_fidelity_point, cfg)
    header = ["gamma", "gammaU_J2"] + [target_label(t) for t in cfg.targets]
    comments = [f"model = {cfg.model}, d = {cfg.d}, N = {cfg.n}, J = {fmt(cfg.j)}, U = {fmt(cfg.u)}"]
    write_csv(cfg.out, comments, header, rows)
    return 0


def cmd_chi(cfg: SweepConfig, d_range, n_range, m_range) -> int:
    header = ["d", "N", "M", "chi_closed", "chi_oracle", "ratio_next", "lower_bound"]
    rows = []
    for d in range(d_range[0], d_range[1] + 1):
        for n in range(n_range[0], n_range[1] + 1):
            for m in range(m_range[0], m_range[1] + 1):
                if n * m > d:
                    continue
                closed = chi_closed(d, n, m)
                oracle = fmt(chi_oracle(d, n, m)) if d <= 24 else ""
                ratio = fmt(chi_closed(d, n + 1, m) / closed) if closed else ""
                bound = fmt(ratio_lower_bound(d, n, m))
                rows.append([str(d), str(n), str(m), fmt(closed), oracle, ratio, bound])
    write_csv(cfg.out, ["chi_N^(M) closed form vs explicit-construction oracle"], header, rows)
    return 0


def cmd_purity_scan(cfg: SweepConfig) -> int:
    _require_effective(cfg, "purity-scan")
    d, n = cfg.d, cfg.n
    rows = run_grid(_purity_point, cfg)
    # analytic checkpoints: independent-pairs value at gamma*U/J^2 = 4 and
    # the molecular (block-state) plateau at large gamma
    uniform = 1.0 / d + (d - n) ** 2 / (d * (d - 1))
    _, plateau = single_pair_purity(build_block(d, n))
    for row in rows:
        row += [1.0 - uniform, 1.0 - plateau]
    header = ["gamma", "gammaU_J2", "one_minus_P1", "checkpoint_at_4", "plateau_block"]
    comments = [f"model = effective, d = {d}, N = {n}, J = {fmt(cfg.j)}, U = {fmt(cfg.u)}"]
    write_csv(cfg.out, comments, header, rows)
    return 0


def cmd_g2_scan(cfg: SweepConfig) -> int:
    _require_effective(cfg, "g2-scan")
    blocks = run_grid(_g2_point, cfg)
    rows = [row for block in blocks for row in block]
    header = ["gamma", "gammaU_J2", "separation", "g2"]
    comments = [f"model = effective, d = {cfg.d}, N = {cfg.n}, J = {fmt(cfg.j)}, U = {fmt(cfg.u)}"]
    write_csv(cfg.out, comments, header, rows)
    return 0


def cmd_energy_ledger(cfg: SweepConfig) -> int:
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
    import math

    # chi closed form == construction oracle
    bad = [
        (d, n, m)
        for d in range(2, 11)
        for m in range(1, 4)
        for n in range(1, d // m + 1)
        if chi_closed(d, n, m) != chi_oracle(d, n, m)
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


def cmd_verify() -> int:
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

def parse_range(text: str) -> tuple:
    """'lo:hi' or a single integer."""
    if ":" in text:
        lo, hi = (int(v) for v in text.split(":"))
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return lo, hi


def parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be min:max:points")
    lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    if pts < 2 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    return lo, hi, pts


def load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; flags override."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


CONFIG_KEYS = ("model", "d", "n", "J", "U", "gamma-grid", "targets", "out", "jobs", "tol")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobosons",
        description="Composite-boson assembly experiments on the 1D extended Hubbard model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value file; explicit flags win. "
                       f"Keys: {', '.join(CONFIG_KEYS)}")
        p.add_argument("--model", choices=("full", "effective"))
        p.add_argument("--d", help="sites (ranges lo:hi allowed for chi)")
        p.add_argument("--n", help="pair count N (ranges lo:hi allowed for chi)")
        p.add_argument("--J", type=float, help="hopping energy")
        p.add_argument("--U", type=float, help="point-interaction energy")
        p.add_argument("--gamma-grid", help="min:max:points in gamma*U/J^2 units")
        p.add_argument("--targets", help="comma list: c2:s,r / q:s,r / block:M / partition:M1+M2+...")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--jobs", type=int, help="parallel sweep workers")
        p.add_argument("--tol", type=float, help="solver degeneracy tolerance")

    p = sub.add_parser("ground-state", help="ground state amplitudes at one gamma")
    add_common(p)
    p.add_argument("--gamma-u-j2", type=float, default=0.0, help="gamma*U/J^2 value")

    for name, txt in (
        ("fidelity-scan", "fidelities vs targets over a gamma grid"),
        ("purity-scan", "1 - P1 over a gamma grid (effective model)"),
        ("g2-scan", "pair g2 over a gamma grid (effective model)"),
        ("energy-ledger", "ledger energies and the assembly threshold"),
    ):
        add_common(sub.add_parser(name, help=txt))

    p = sub.add_parser("chi", help="chi table over (d, N, M) ranges")
    add_common(p)
    p.add_argument("--m", default="1", help="M range lo:hi")

    sub.add_parser("verify", help="run the analytic checkpoint suite")
    return parser


def _merged(args) -> dict:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    flag_map = {
        "model": "model", "d": "d", "n": "n", "J": "J", "U": "U",
        "gamma_grid": "gamma-grid", "targets": "targets", "out": "out",
        "jobs": "jobs", "tol": "tol",
    }
    for attr, key in flag_map.items():
        val = getattr(args, attr, None)
        if val is not None:
            values[key] = val
    return values


def sweep_config_from(values: dict) -> SweepConfig:
    cfg = SweepConfig()
    kw = {}
    if "model" in values:
        kw["model"] = values["model"]
    if "d" in values:
        kw["d"] = int(values["d"])
    if "n" in values:
        kw["n"] = int(values["n"])
    if "J" in values:
        kw["j"] = float(values["J"])
    if "U" in values:
        kw["u"] = float(values["U"])
    if "gamma-grid" in values:
        grid = values["gamma-grid"]
        lo, hi, pts = parse_grid(grid) if isinstance(grid, str) else grid
        kw.update(grid_min=lo, grid_max=hi, grid_points=pts)
    if "targets" in values:
        t = values["targets"]
        kw["targets"] = parse_targets_grouped(t) if isinstance(t, str) else t
    if "out" in values:
        kw["out"] = values["out"]
    if "jobs" in values:
        kw["jobs"] = int(values["jobs"])
    if "tol" in values:
        kw["tol"] = float(values["tol"])
    return replace(cfg, **kw)


def parse_targets_grouped(text: str) -> tuple:
    """Split a target list on commas, keeping 's,r' pairs together."""
    out = []
    for piece in text.split(","):
        if out and ":" not in piece:
            out[-1] = out[-1] + "," + piece
        else:
            out.append(piece)
    return tuple(parse_target(s) for s in out)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify()
    values = _merged(args)
    if args.command == "chi":
        d_range = parse_range(str(values.get("d", "2:12")))
        n_range = parse_range(str(values.get("n", "1:4")))
        m_range = parse_range(str(values.get("m", getattr(args, "m", "1"))))
        cfg = SweepConfig(out=values.get("out"))
        return cmd_chi(cfg, d_range, n_range, m_range)
    cfg = sweep_config_from(values)
    if args.command == "ground-state":
        return cmd_ground_state(cfg, args.gamma_u_j2)
    if args.command == "fidelity-scan":
        return cmd_fidelity_scan(cfg)
    if args.command == "purity-scan":
        return cmd_purity_scan(cfg)
    if args.command == "g2-scan":
        return cmd_g2_scan(cfg)
    if args.command == "energy-ledger":
        return cmd_energy_ledger(cfg)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
