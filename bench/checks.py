"""The correctness gate: every job output is judged outside the timed region.

A job passes when its exit code is the expected one, stderr holds no
traceback (and exactly one diagnostic line on an error exit), the
report matches the digest recorded for the default seed, and the
fields an independent computation can reproduce agree with it:
periodic counts and zeta coefficients (tests/oracles.py and the
benchmark's own transfer matrix), block lists, |S| (the benchmark's
own transformation closure), Green class counts (GreenOracle), the
Karoubi object count, composed block-map tables and expansion sizes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import reference

DEFAULT_SEED = 0
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# sympy's symbolic determinant is slow past this many graph vertices; the
# zeta of a larger SFT is checked against the exponential of its own
# trace counts instead.
SYMBOLIC_ZETA_MAX_DIM = 10
# GreenOracle builds every two-sided ideal as a set, |S|³ steps.
GREEN_ORACLE_MAX = 200
TYPES = ("Letter", "ImageE", "DiamondImageE", "ImageEAlpha",
         "DiamondImageEAlpha")


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location(
        "bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_digests(workload: str) -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


class Checker:
    """Judges (job, exit code, stdout, stderr); verdicts are memoised per
    distinct output, so a job run many times is judged once."""

    def __init__(self, root: Path, files: dict, digests: dict[str, str]):
        self.root = root
        self.files = files
        self.digests = digests
        self._oracles = None
        self._memo: dict = {}
        self._cache: dict = {}

    @property
    def oracles(self):
        if self._oracles is None:
            self._oracles = load_oracles(self.root)
        return self._oracles

    def verify(self, job, code: int, out: bytes, err: bytes) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        key = (job.id, code, digest(out), err)
        if key not in self._memo:
            try:
                self._memo[key] = self._verify(job, code, out, err)
            except (KeyError, TypeError, ValueError) as e:
                self._memo[key] = f"malformed report: {type(e).__name__}: {e}"
        return self._memo[key]

    def _verify(self, job, code, out, err) -> str | None:
        if b"Traceback" in err:
            return "traceback on stderr"
        if code != job.expect:
            return f"exit code {code}, expected {job.expect}"
        want = self.digests.get(job.id)
        if want is not None and want != digest(out):
            return "report differs from the digest recorded for this seed"
        if job.expect:
            lines = err.decode("utf-8", "replace").splitlines()
            if len(lines) != 1 or not lines[0].startswith(("error", "usage")):
                return "error exit without a one-line diagnostic"
            return "output on an error exit" if out else None
        if err:
            return "unexpected stderr"
        report = json.loads(out)
        check = getattr(self, "_check_" + job.argv[0].replace("-", "_"), None)
        return check(job, report) if check else None

    # -- per kind -------------------------------------------------------

    def _shift(self, job) -> dict:
        return self.files[f"{job.shift}.json"]

    def _order(self, job) -> int:
        return int(job.argv[job.argv.index("--order") + 1])

    def _periodic(self, job) -> tuple[list[int], list[int], list[int]]:
        """(p, q, zeta coefficients) up to the job's order."""
        order = self._order(job)
        shift = self._shift(job)
        key = ("periodic", job.shift)
        have = self._cache.get(key)
        if have is None or len(have[0]) < order:
            o = self.oracles
            if shift["kind"] == "sft":
                a = reference.adjacency(shift)
                p = reference.trace_powers(a, order)
                q = [int(x) for x in o.mobius_primitive_counts(p)]
                if len(a) <= SYMBOLIC_ZETA_MAX_DIM:
                    z = o.transfer_matrix_zeta(a, order)
                else:
                    z = [int(c) for c in o.zeta_from_counts(p, order)]
            else:
                p, q = o.brute_periodic_counts(job.shift, order)
                z = [int(c) for c in o.zeta_from_counts(p, order)]
            have = self._cache[key] = (p, q, z)
        p, q, z = have
        return p[:order], q[:order], z[:order + 1]

    def _check_periodic(self, job, report) -> str | None:
        p, q, _ = self._periodic(job)
        if report["p"] != p or report["q"] != q:
            return "periodic counts differ from the oracle"
        return None

    def _check_zeta(self, job, report) -> str | None:
        _, _, z = self._periodic(job)
        if report["coefficients"] != z:
            return "zeta coefficients differ from the oracle"
        return self._check_periodic(job, report)

    def _check_blocks(self, job, report) -> str | None:
        want = [w for layer in reference.blocks_by_length(
            self._shift(job), self._order(job)) for w in layer]
        if report["blocks"] != want:
            return "block list differs from the path labels"
        return None

    def _semigroup(self, job) -> tuple[list[list[int]], list[tuple]]:
        """Own Cayley table and, for small ones, its GreenOracle summary."""
        key = ("semigroup", job.shift)
        if key not in self._cache:
            table = reference.syntactic_table(self._shift(job))
            summary = None
            if len(table) <= GREEN_ORACLE_MAX:
                summary = reference.green_summary(
                    self.oracles.GreenOracle(table), len(table))
            self._cache[key] = (table, summary)
        return self._cache[key]

    def _check_green_rows(self, job, rows) -> str | None:
        _, want = self._semigroup(job)
        got = sorted((r["size"], r["r_classes"], r["l_classes"],
                      r["h_classes"], r["idempotents"], r["regular"])
                     for r in rows)
        if want is not None and got != want:
            return "Green class counts differ from GreenOracle"
        return None

    def _check_size(self, job, size) -> str | None:
        table, _ = self._semigroup(job)
        if size != len(table):
            return f"|S| = {size}, own closure has {len(table)}"
        return None

    def _check_syntactic(self, job, report) -> str | None:
        return self._check_size(job, report["semigroup"]["size"])

    def _check_green(self, job, report) -> str | None:
        return (self._check_size(job, report["size"])
                or self._check_green_rows(job, report["summary"]))

    def _check_karoubi(self, job, report) -> str | None:
        table, _ = self._semigroup(job)
        idempotents = sum(1 for x in range(len(table)) if table[x][x] == x)
        if len(report["objects"]) != idempotents:
            return "Karoubi objects are not the idempotents"
        return (self._check_size(job, report["size"])
                or self._check_green_rows(job, report["green"]))

    def _check_code(self, job, report) -> str | None:
        if job.argv[1] != "compose":
            return None
        phi = self.files[job.argv[2]]
        psi = self.files[job.argv[3]]
        if report["wing"] != phi["wing"] + psi["wing"]:
            return "composite has the wrong wing"
        if report["inner"]["table"] != reference.compose_tables(phi, psi):
            return "composite table differs from window-by-window composition"
        return None

    def _check_expand(self, job, report) -> str | None:
        letter = job.argv[job.argv.index("--letter") + 1]
        verts, edges = reference.essential_graph(self._shift(job))
        split = sum(1 for _, a, _ in edges if a == letter)
        target = report["target"]
        if (len(target["vertices"]), len(target["edges"])) != \
                (len(verts) + split, len(edges) + split):
            return "expanded graph has the wrong size"
        return None

    def _check_classify(self, job, report) -> str | None:
        return None if report["type"] in TYPES else "unknown type"

    def _check_flowcheck(self, job, report) -> str | None:
        if not report["passed"] or any(r["kind"] != "EqualInAll"
                                       for r in report["arrows"]):
            return "naturality square not verified"
        return None

    def _check_check(self, job, report) -> str | None:
        if not report["passed"]:
            return "check suite failed"
        if report["suite"] == "zeta-integrality":
            o = self.oracles
            got = report["details"]["coefficients"]
            if (got["golden-mean"] != o.GOLDEN_ZETA_12[:11]
                    or got["even"] != o.EVEN_ZETA_12[:11]
                    or got["marker-cycle"][:9] != o.MARKER_ZETA_8):
                return "suite zeta coefficients differ from the oracle"
        return None
