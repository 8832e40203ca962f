"""Failure classification and independent checks of operation outputs.

An operation fails when it raises, exits 1 (usage), exits 2 with an
``error:`` line, exits with any other code, or its output fails a check
below.  Exit 2 without an ``error:`` line is a statistical verdict
(``homogenize`` rejecting its KS test): recorded, not a failure.

Checks come in two strengths.  An *invariant* holds exactly on the whole
domain whatever the numerics (files parse and are finite, rho(0) = 1,
rho = e^{-s} at H = 1/2, K(H, m) equals its Beta closed form, the
kinetic on-grid identity); breaking one makes the run incorrect.  An
*accuracy* check compares with a high-precision reference within the
error bound the program claims for itself (rho against the closed-form
autocorrelation, A_self = 0 for G = He1 at H < 1/2); a miss counts as a
failed operation, like a numerical error would.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

OK, VERDICT = "ok", "verdict"
EXCEPTION, USAGE, ERROR_EXIT, BAD_EXIT = "exception", "usage", "error_exit", "bad_exit"
CHECK = "check"  # the output failed a check

# the error bound fou.rho claims for itself (it raises beyond it)
RHO_ABS, RHO_REL = 1e-6, 1e-4
A_SELF_TOL = 1e-4
K_REL_TOL = 1e-7
IDENTITY_DEFECT_MAX = 1e-6


def classify(rc: int | None, raised: BaseException | None, stderr: str) -> str:
    """Outcome of a CLI call before its outputs are checked."""
    if raised is not None:
        return EXCEPTION
    if rc == 0:
        return OK
    if rc == 1:
        return USAGE
    if rc == 2:
        has_error = any(line.startswith("error:") for line in stderr.splitlines())
        return ERROR_EXIT if has_error else VERDICT
    return BAD_EXIT


def is_failure(outcome: str) -> bool:
    return outcome not in (OK, VERDICT)


@dataclass
class CheckResult:
    invariant_breaks: list[str] = field(default_factory=list)
    accuracy_misses: list[str] = field(default_factory=list)
    verdicts_false: int = 0

    @property
    def ok(self) -> bool:
        return not self.invariant_breaks and not self.accuracy_misses


# ------------------------------------------------------------------ references

DPS = 30


def rho_reference(s: float, H: float) -> float:
    """fOU autocorrelation from its closed form, evaluated in mpmath.

    With (1 - d^2) c = (|s|^{2H})'' / (2 H Gamma(2H)) one gets
    rho(s) = [ (e^{-s} G + s^{2H+1}/(2H+1) 1F1(1; 2H+2; -s)
               + e^{s} Gamma(2H+1, s)) / 2 - s^{2H} ] / G,  G = Gamma(2H+1).
    """
    s = abs(s)
    if s == 0.0:
        return 1.0
    if H == 0.5:
        return math.exp(-s)
    with mpmath.workdps(DPS):
        s_, h = mpmath.mpf(s), mpmath.mpf(H)
        g = mpmath.gamma(2 * h + 1)
        a = (mpmath.exp(-s_) * g
             + s_ ** (2 * h + 1) / (2 * h + 1) * mpmath.hyp1f1(1, 2 * h + 2, -s_)
             + mpmath.exp(s_) * mpmath.gammainc(2 * h + 1, s_))
        return float((a / 2 - s_ ** (2 * h)) / g)


def K_reference(H: float, m: int) -> float:
    """K(H, m) from J(b) = Beta(b+1, -2b-1), b = (H-1)/m - 1/2."""
    with mpmath.workdps(DPS):
        b = (mpmath.mpf(H) - 1) / m - mpmath.mpf(1) / 2
        J = mpmath.beta(b + 1, -2 * b - 1)
        e = 2 * mpmath.mpf(H) - 2
        double_int = 2 * (1 / (e + 1) - 1 / (e + 2))
        return float(mpmath.sqrt(mpmath.factorial(m) / (J**m * double_int)))


# ------------------------------------------------------------------ outputs


def _arg(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _finite_json(obj, where: str, res: CheckResult) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_json(v, f"{where}.{k}", res)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _finite_json(v, f"{where}[{i}]", res)
    elif isinstance(obj, float) and not math.isfinite(obj):
        res.invariant_breaks.append(f"non-finite {where}")


def _read_outputs(prefix: Path, res: CheckResult):
    try:
        summary = json.loads(Path(f"{prefix}.json").read_text())
        with open(f"{prefix}.csv", newline="") as fh:
            table = list(csv.reader(fh))
        if not table:
            raise ValueError("empty csv")
        rows = [[_cell(v) for v in r] for r in table[1:]]  # table[0] is the header
    except (OSError, ValueError) as exc:
        res.invariant_breaks.append(f"unreadable output: {exc}")
        return None, None
    _finite_json(summary, "json", res)
    if any(isinstance(v, float) and not math.isfinite(v) for r in rows for v in r):
        res.invariant_breaks.append("non-finite csv value")
    return summary, rows


def _cell(text: str):
    """A CSV cell as a float, or as text when it is a label."""
    try:
        return float(text)
    except ValueError:
        return text


def check_outputs(argv: list[str], prefix: Path) -> CheckResult:
    """Check the files a successful operation wrote under ``prefix``."""
    res = CheckResult()
    summary, rows = _read_outputs(prefix, res)
    if summary is None:
        return res
    for key in ("pass", "slope_pass"):
        if summary.get(key) is False:
            res.verdicts_false += 1
    command, H = argv[0], float(_arg(argv, "--H"))
    if command == "rho":
        _check_rho(rows, H, res)
    elif command == "constants":
        _check_constants(summary, _arg(argv, "--coeffs"), H, res)
    elif command == "kinetic-scan":
        defect = summary.get("identity_defect_max")
        if defect is None or not defect < IDENTITY_DEFECT_MAX:
            res.invariant_breaks.append(f"identity_defect_max {defect}")
    return res


def _check_rho(rows, H: float, res: CheckResult) -> None:
    for s, val in rows:
        ref = rho_reference(s, H)
        err = abs(val - ref)
        if err <= RHO_ABS + RHO_REL * abs(ref):
            continue
        msg = f"rho(s={s:g}, H={H:g}) = {val:.10g}, reference {ref:.10g}"
        exact = s == 0.0 or H == 0.5
        (res.invariant_breaks if exact else res.accuracy_misses).append(msg)


def _check_constants(summary: dict, coeffs: str, H: float, res: CheckResult) -> None:
    if coeffs == "0,1" and H < 0.5:
        A = summary.get("A_self")
        if A is None or not abs(A) <= A_SELF_TOL:
            res.accuracy_misses.append(f"A_self {A} at H={H:g}, expected 0")
    if "K_normalizer" in summary:
        m, hs = summary["hermite_rank"], summary["h_star"]
        ref = K_reference(hs, m)
        if not abs(summary["K_normalizer"] - ref) <= K_REL_TOL * abs(ref):
            res.invariant_breaks.append(
                f"K_normalizer {summary['K_normalizer']!r} vs Beta form {ref!r}")
