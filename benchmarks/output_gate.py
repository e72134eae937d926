"""Byte-for-byte comparison of what two checkouts' CLIs write.

    python benchmarks/output_gate.py parent=../parent change=.

Each LABEL=ROOT argument names a checkout whose package lies in ROOT/src.
For each checkout, every case below runs `python -m nhqubit.cli` in a
fresh interpreter (PYTHONPATH=ROOT/src, PYTHONDONTWRITEBYTECODE=1) with
its own working directory under one temporary directory:

- `list-presets` and `run --preset NAME` for every preset it lists
- PT and Anti-PT configs with all five outputs, entropy orders
  0, 0.5, 1, 2, 3, inf and an initial state other than |+>
- a PT config that reads no state (decoherence, phase and entropy at
  orders 0.25, 1, 1.5, 4, inf), so its frame map never runs
- a long-horizon (t_max = 100) decoherence-and-phase config
- `compare` of the PT config and a copy at another theta, and of the
  Anti-PT config against the PT config, with --out
- an Anti-PT decoherence, phase and entropy config at tol = 1e-14 in the
  bath j0 = 1, omega_c = 5, mu = 0, beta = 4 on linspace(0, 0.1, 41),
  where d gamma/dt alone fails its tol: a checkout that reads the rates
  only for the speed limit writes the files, one that reads them in
  every Anti-PT evolve exits 4
- failing cases: an exceptional point (exit 3), a preset at --tol 1e-30
  (exit 4), an Anti-PT decoherence-and-phase config at t_max = 300 whose
  quadrature budget runs out (exit 4), an unknown config key (exit 2),
  and Anti-PT `outputs = qsl` from a state without coherence (exit 2)

Every checkout after the first is compared with the first: the exit code,
the list of files written, each file's bytes, stdout and stderr, with the
case's working directory masked in both streams.  One line per case is
printed; the exit status is 1 on any difference, else 0.  Standard
library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

BASE = """\
qubit.symmetry = {symmetry}
qubit.alpha = 1.0
qubit.theta = {theta}
qubit.xi = 0.81
qubit.delta = 0.56
bath.j0 = 1.0
bath.omega_c = 1.0
bath.mu = -0.5
bath.beta = 0.5
{initial}
grid.t_max = {t_max}
grid.n_points = {n_points}
outputs = {outputs}
"""

ALL_OUTPUTS = "trajectory, decoherence, phase, qsl, entropy"
TILTED = "initial.sz = 0.3\ninitial.coherence_re = 0.2\n" \
         "initial.coherence_im = -0.1"
ORDERS = "entropy.orders = 0, 0.5, 1, 2, 3, inf\n"


def _config(symmetry="PT", theta=0.86, initial="initial.state = plus",
            t_max=20.0, n_points=201, outputs=ALL_OUTPUTS, extra=""):
    return BASE.format(symmetry=symmetry, theta=theta, initial=initial,
                       t_max=t_max, n_points=n_points,
                       outputs=outputs) + extra


# name -> (config files to write, CLI arguments); "out" is the output dir.
CONFIG_CASES = {
    "pt-all-outputs": (
        {"a.cfg": _config(initial=TILTED, extra=ORDERS)},
        ["run", "a.cfg", "--out", "out"]),
    "apt-all-outputs": (
        {"a.cfg": _config(symmetry="AntiPT", initial=TILTED, extra=ORDERS)},
        ["run", "a.cfg", "--out", "out"]),
    "pt-no-states": (
        {"a.cfg": _config(initial=TILTED,
                          outputs="decoherence, phase, entropy",
                          extra="entropy.orders = 0.25, 1, 1.5, 4, inf\n")},
        ["run", "a.cfg", "--out", "out"]),
    "long-horizon": (
        {"a.cfg": _config(t_max=100.0, n_points=41,
                          outputs="decoherence, phase")},
        ["run", "a.cfg", "--out", "out"]),
    "compare": (
        {"a.cfg": _config(), "b.cfg": _config(theta=0.5)},
        ["compare", "a.cfg", "b.cfg", "--out", "out"]),
    "apt-vs-pt-compare": (
        {"a.cfg": _config(symmetry="AntiPT"), "b.cfg": _config()},
        ["compare", "a.cfg", "b.cfg", "--out", "out"]),
    "exceptional-point": (
        {"a.cfg": _config(theta=0.5).replace("qubit.xi = 0.81",
                                             "qubit.xi = 0.5")
                                    .replace("qubit.delta = 0.56",
                                             "qubit.delta = 0.0")},
        ["run", "a.cfg", "--out", "out"]),
    "preset-tol-1e-30": (
        {}, ["run", "--preset", "fig_pt_decoherence", "--out", "out",
             "--tol", "1e-30"]),
    "horizon-exit-4": (
        {"a.cfg": _config(symmetry="AntiPT", t_max=300.0,
                          outputs="decoherence, phase")},
        ["run", "a.cfg", "--out", "out"]),
    "unknown-key": (
        {"a.cfg": _config(extra="qubit.gamma = 1.0\n")},
        ["run", "a.cfg", "--out", "out"]),
    "apt-rate-only-tol": (
        {"a.cfg": _config(symmetry="AntiPT", t_max=0.1, n_points=41,
                          outputs="decoherence, phase, entropy",
                          extra="tol = 1e-14\n")
         .replace("bath.omega_c = 1.0", "bath.omega_c = 5.0")
         .replace("bath.mu = -0.5", "bath.mu = 0.0")
         .replace("bath.beta = 0.5", "bath.beta = 4.0")},
        ["run", "a.cfg", "--out", "out"]),
    "apt-qsl-no-coherence": (
        {"a.cfg": _config(symmetry="AntiPT", outputs="qsl",
                          initial="initial.sz = 1\n"
                                  "initial.coherence_re = 0")},
        ["run", "a.cfg", "--out", "out"]),
}


def _run(root: Path, workdir: Path, args: list[str]) -> dict:
    """Run the CLI of the checkout at root in workdir; the outcome with
    workdir masked."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "nhqubit.cli", *args],
                          cwd=workdir, env=env, capture_output=True)
    mask = str(workdir).encode()
    out = workdir / "out"
    files = {}
    if out.is_dir():
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode,
            "files": sorted(files),
            "file bytes": files,
            "stdout": proc.stdout.replace(mask, b"<DIR>"),
            "stderr": proc.stderr.replace(mask, b"<DIR>")}


def _case(root: Path, tmp: Path, label: str, name: str,
          configs: dict[str, str], args: list[str]) -> dict:
    workdir = tmp / label / name
    workdir.mkdir(parents=True)
    for file, text in configs.items():
        (workdir / file).write_text(text)
    return _run(root, workdir, args)


def main(argv: list[str]) -> int:
    checkouts = []
    for arg in argv:
        label, sep, root = arg.partition("=")
        if not sep or not label or not root:
            print(f"usage: {Path(__file__).name} LABEL=ROOT LABEL=ROOT ...",
                  file=sys.stderr)
            return 2
        checkouts.append((label, Path(root).resolve()))
    if len(checkouts) < 2 or len(dict(checkouts)) < len(checkouts):
        print("need at least two LABEL=ROOT checkouts with distinct labels",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="output_gate_") as tmp_name:
        tmp = Path(tmp_name)
        listing = _case(checkouts[0][1], tmp, "", "listing", {},
                        ["list-presets"])
        names = [line.split()[0] for line in
                 listing["stdout"].decode().splitlines() if line.strip()]
        cases = {"list-presets": ({}, ["list-presets"])}
        cases.update({f"preset-{n}": ({}, ["run", "--preset", n,
                                           "--out", "out"])
                      for n in names})
        cases.update(CONFIG_CASES)

        differing = 0
        for name, (configs, args) in cases.items():
            ref_label, ref_root = checkouts[0]
            ref = _case(ref_root, tmp, ref_label, name, configs, args)
            diffs = []
            for label, root in checkouts[1:]:
                got = _case(root, tmp, label, name, configs, args)
                diffs += [f"{key} differ ({ref_label} vs {label})"
                          for key in ref if got[key] != ref[key]]
            differing += bool(diffs)
            status = "; ".join(diffs) or "same"
            print(f"{name:34s} exit {ref['exit code']}, "
                  f"{len(ref['files'])} files: {status}")
    print(f"{len(cases)} cases, {differing} with differences")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
