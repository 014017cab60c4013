"""The benchmark's workloads.

Each workload makes its requests from the seed, times one call into the
program per request, and checks the result with ``rbcheck`` and the
closed-form rules in ``shapes``.  A request is a closed-loop step: the next
one starts when the previous one has returned.  ``round(r)`` gives the r-th
round of requests; a run executes whole rounds only, so every run attempts
the same mix.  Requests the set-up already served are left out of the
rounds, and rounds draw without replacement where the population allows, so
that a run's requests are ones the process has not served before.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import time
from math import comb

import rbcheck
import shapes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Request:
    """One call: ``kind`` names the operation, ``argv`` and ``source`` (where
    a ``verify`` payload comes from) are set for command-line requests, and
    ``output`` keeps a ``label`` request's standard output."""

    __slots__ = ("kind", "p", "k", "h", "argv", "source", "output")

    def __init__(self, kind, p, k, h, argv=None, source=None):
        self.kind, self.p, self.k, self.h = kind, p, k, h
        self.argv, self.source, self.output = argv, source, None

    @property
    def key(self):
        """Equal for requests that send the program the same input."""
        if self.kind != "verify":
            return self.kind, self.p, self.k, self.h
        if self.source is None:
            return (self.kind,)
        label, _, corruption = self.source
        return self.kind, label.key, corruption


class Outcome:
    """``seconds`` is None for a request that could not be sent."""

    __slots__ = ("kind", "seconds", "ok")

    def __init__(self, kind, seconds, ok):
        self.kind, self.seconds, self.ok = kind, seconds, ok


def _require_package():
    if not os.path.isdir(os.path.join(SRC, "rainbowcat")):
        raise SystemExit(f"error: no package at {SRC}/rainbowcat; run from a checkout root")


def _import_package():
    _require_package()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from rainbowcat import cli, constructor, group, labeling, oracle

    return {"group": group, "labeling": labeling, "constructor": constructor,
            "oracle": oracle, "cli": cli}


class _Label:
    """Shared machinery of the two in-process construction workloads."""

    tail_q = 0.95

    def __init__(self, seed):
        self.seed = seed
        self.modules = _import_package()
        group = self.modules["group"]
        self.params = {(p, k): group.GroupParams(p, k) for p, k in self.groups}

    def run(self, req):
        params = self.params[(req.p, req.k)]
        make_shape = self.modules["labeling"].make_shape
        construct = self.modules["constructor"].construct
        start = time.perf_counter()
        try:
            lab = construct(params, make_shape(params, req.h))
        except Exception as exc:
            print(f"label {req.p}^{req.k} {req.h}: {exc!r}", file=sys.stderr)
            return Outcome("label", time.perf_counter() - start, False)
        seconds = time.perf_counter() - start
        verdict = rbcheck.check(req.p, req.k, req.h, lab.spine, lab.x, lab.y, lab.z)
        if not verdict.ok:
            print(f"label {req.p}^{req.k} {req.h}: {verdict.reason}", file=sys.stderr)
        return Outcome("label", seconds, verdict.ok)

    def warm(self, hs):
        for p, k, h in hs:
            if not self.run(Request("label", p, k, h)).ok:
                raise RuntimeError(f"warm-up construction failed for {p}^{k} {h}")


class LabelRecipes(_Label):
    """Predicate-feasible shapes on an explicit path, 10 per group per round.

    Each group's shapes are dealt from a seeded shuffle of all of them, so a
    run sends no shape twice until it has sent all of a group's shapes (990
    for Z_7^2, the fewest; a run at this commit sends about 450 per group).
    """

    groups = [(2, 7), (2, 8), (3, 4), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)]
    per_group = 10

    def setup(self):
        self.decks = {}
        for p, k in self.groups:
            deck = shapes.recipe_shapes(p, k)
            # The same ten warm-up shapes for every seed, so every run starts
            # from the same cache state; the rest are dealt in seeded order.
            shapes.rng_for("warm-up", "label-recipes", p, k).shuffle(deck)
            self.warm([(p, k, h) for h in deck[:10]])
            self.decks[(p, k)] = deck[10:]
            shapes.rng_for(self.seed, "label-recipes", p, k).shuffle(self.decks[(p, k)])

    def round(self, r):
        reqs = []
        for (p, k), deck in self.decks.items():
            for i in range(r * self.per_group, (r + 1) * self.per_group):
                reqs.append(Request("label", p, k, deck[i % len(deck)]))
        shapes.rng_for(self.seed, "label-recipes", r).shuffle(reqs)
        return reqs


class LabelCorners(_Label):
    """Every feasible residue corner of Z_5^2, Z_7^2 and Z_11^2 but the three
    the warm-up constructs, in each round, in an order drawn from the seed."""

    groups = [(5, 2), (7, 2), (11, 2)]

    def setup(self):
        # The first empty-X corner of a group fails every cyclic model, so
        # constructing it fills the block-menu cache of every model.
        warm = [(p, k, next(h for h in shapes.corners(p, k)
                            if shapes.corner_class(p, h) == "empty_x"))
                for p, k in self.groups]
        self.warm(warm)
        self.population = [(p, k, h) for p, k in self.groups for h in shapes.corners(p, k)
                           if (p, k, h) not in warm]

    def round(self, r):
        reqs = [Request("label", p, k, h) for p, k, h in self.population]
        shapes.rng_for(self.seed, "label-corners", r).shuffle(reqs)
        return reqs


class OracleTable:
    """The full predicate-vs-oracle table of Z_5^2, unbudgeted, rows in an
    order drawn from the seed."""

    p, k = 5, 2
    tail_q = 0.95

    def __init__(self, seed):
        self.seed = seed
        self.modules = _import_package()
        self.params = self.modules["group"].GroupParams(self.p, self.k)
        self.found = []
        oracle = self.modules["oracle"]
        search = oracle.search

        # table_row returns no labeling; keep the one its search found so it
        # can be checked.
        def keep_verdict(*args, **kwargs):
            verdict = search(*args, **kwargs)
            self.found.append(verdict.labeling)
            return verdict

        oracle.search = keep_verdict

    def setup(self):
        self.shapes = shapes.all_shapes(self.p, self.k)
        if len(self.shapes) != comb(self.p ** self.k - 1, 2):
            raise RuntimeError("shape enumeration is incomplete")

    def round(self, r):
        reqs = [Request("row", self.p, self.k, h) for h in self.shapes]
        shapes.rng_for(self.seed, "oracle-table", r).shuffle(reqs)
        return reqs

    def run(self, req):
        oracle = self.modules["oracle"]
        shape = self.modules["labeling"].make_shape(self.params, req.h)
        self.found.clear()
        start = time.perf_counter()
        try:
            row = oracle.table_row(self.params, shape, None, True)
        except Exception as exc:
            print(f"row {req.h}: {exc!r}", file=sys.stderr)
            return Outcome("row", time.perf_counter() - start, False)
        seconds = time.perf_counter() - start
        feasible = shapes.feasible(self.p, self.k, req.h)
        predicate = "feasible" if feasible else "infeasible:" + shapes.exception_family(
            self.p, self.k, req.h)
        ok = (row["h"] == list(req.h) and row["predicate"] == predicate and row["agree"] is True
              and row["oracle"] == ("found" if feasible else "infeasible")
              and len(self.found) == 1)
        if ok and feasible:
            lab = self.found[0]
            ok = rbcheck.check(self.p, self.k, req.h, lab.spine, lab.x, lab.y, lab.z).ok
        if not ok:
            print(f"row {req.h}: unexpected {row}", file=sys.stderr)
        return Outcome("row", seconds, ok)


# Exit codes the command line must give for each verdict of the checker.
VERIFY_EXIT = {
    rbcheck.OK: {0},
    rbcheck.MALFORMED: {2},
    rbcheck.DUPLICATE_VERTEX: {1},
    rbcheck.DUPLICATE_EDGE: {1},
    rbcheck.MISSING_LABEL: {1},
    # The command line may call a count mismatch invalid (1) or a payload
    # error (2); it must not call it valid.
    rbcheck.HAIR_COUNT: {1, 2},
}

CORRUPTIONS = ("duplicate_vertex", "duplicate_edge", "out_of_range", "truncated")


def _fmt(e):
    return "(" + ",".join(str(c) for c in e) + ")"


def _vertex_slots(payload):
    slots = [("spine", i) for i in range(3)]
    slots += [(role, i) for role in "xyz" for i in range(len(payload["hairs"][role]))]
    return slots


def _get(payload, slot):
    role, i = slot
    return payload["spine"][i] if role == "spine" else payload["hairs"][role][i]


def _set(payload, slot, value):
    role, i = slot
    (payload["spine"] if role == "spine" else payload["hairs"][role])[i] = value


def corrupt(text, kind, rng):
    """A corrupted copy of a labeling payload produced by ``label``."""
    if kind == "truncated":
        return text[: len(text) // 2]
    payload = json.loads(text)
    slots = _vertex_slots(payload)
    if kind == "duplicate_vertex":
        hair = rng.choice([s for s in slots if s[0] != "spine"])
        other = rng.choice([s for s in slots if s != hair])
        _set(payload, hair, list(_get(payload, other)))
    elif kind == "out_of_range":
        slot = rng.choice(slots)
        label = list(_get(payload, slot))
        label[rng.randrange(len(label))] = payload["group"]["p"]
        _set(payload, slot, label)
    elif kind == "duplicate_edge":
        for _ in range(100):
            trial = copy.deepcopy(payload)
            u, v = rng.sample(slots, 2)
            a, b = _get(trial, u), _get(trial, v)
            _set(trial, u, b)
            _set(trial, v, a)
            if rbcheck.check_payload(trial).reason == rbcheck.DUPLICATE_EDGE:
                break
        payload = trial
    return json.dumps(payload)


class CliCold:
    """One fresh ``python -m rainbowcat.cli`` process per request, one at a time.

    A round: three ``label --format json`` calls (two feasible shapes, one
    infeasible); ``verify`` on the first label output, on one corrupted copy
    of a label output per kind in CORRUPTIONS, and on a fixed payload whose
    hair counts disagree with its declared shape; two ``feasible`` calls (one
    feasible shape, one infeasible).
    """

    groups = [(2, 6), (3, 3), (5, 2), (7, 2)]
    tail_q = 0.90
    # Labeled as (2,5,15), declared as (3,5,14): a bijection with distinct
    # edge sums that is not a caterpillar of the declared shape.
    hair_count_case = (5, 2, (2, 5, 15), (3, 5, 14))

    def __init__(self, seed):
        _require_package()
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            v for v in (SRC, self.env.get("PYTHONPATH")) if v)
        self.modules = None

    def setup(self):
        p, k, real, declared = self.hair_count_case
        proc = self._spawn(["label", "--p", str(p), "--k", str(k),
                            "--hairs", ",".join(map(str, real)), "--format", "json"])
        if proc.returncode != 0 or not rbcheck.check_payload(json.loads(proc.stdout)).ok:
            raise RuntimeError(f"could not build the hair-count payload: {proc.stderr}")
        payload = json.loads(proc.stdout)
        payload["shape"]["h"] = list(declared)
        self.hair_count_payload = json.dumps(payload)

    def _spawn(self, argv, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "rainbowcat.cli", *argv], input=stdin, capture_output=True,
            text=True, cwd=ROOT, env=self.env, timeout=120)

    def round(self, r):
        rng = shapes.rng_for(self.seed, "cli-cold", r)

        def instance(kind, feasible):
            p, k = rng.choice(self.groups)
            pick = shapes.random_feasible_shape if feasible else shapes.random_infeasible_shape
            h = pick(rng, p, k)
            argv = [kind, "--p", str(p), "--k", str(k), "--hairs", ",".join(map(str, h))]
            return Request(kind, p, k, h, argv + (["--format", "json"] if kind == "label" else []))

        def verify(source):
            return Request("verify", None, None, None, ["verify"], source)

        labels = [instance("label", True), instance("label", True)]
        reqs = labels + [instance("label", False), verify((labels[0], None, None))]
        reqs += [verify((labels[j % 2], kind, (self.seed, "cli-cold", r, kind)))
                 for j, kind in enumerate(CORRUPTIONS)]
        reqs += [verify(None), instance("feasible", True), instance("feasible", False)]
        return reqs

    def stdin_for(self, req):
        """The payload a ``verify`` request reads (the fixed hair-count payload
        when it has no source), or None if the label it copies failed."""
        if req.kind != "verify":
            return ""
        if req.source is None:
            return self.hair_count_payload
        label, kind, key = req.source
        if label.output is None:
            return None
        return corrupt(label.output, kind, shapes.rng_for(*key)) if kind else label.output

    def check(self, req, stdin, code, stdout):
        out = stdout.strip()
        if req.kind == "verify":
            try:
                verdict = rbcheck.check_payload(json.loads(stdin))
            except ValueError:
                verdict = rbcheck.Verdict(False, rbcheck.MALFORMED)
            if code not in VERIFY_EXIT[verdict.reason]:
                print(f"verify {verdict.reason}: exit {code} ({out[:80]})", file=sys.stderr)
                return False
            return not verdict.ok or out == f"valid missing={_fmt(verdict.missing)}"
        if not shapes.feasible(req.p, req.k, req.h):
            return code == 1 and out == f"infeasible: {shapes.exception_family(req.p, req.k, req.h)}"
        if code != 0:
            return False
        if req.kind == "feasible":
            return out == "feasible"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return False
        ok = (payload.get("group") == {"p": req.p, "k": req.k}
              and payload.get("shape") == {"h": list(req.h)}
              and rbcheck.check_payload(payload).ok)
        req.output = stdout if ok else None
        return ok

    def run(self, req):
        stdin = self.stdin_for(req)
        if stdin is None:
            return Outcome(req.kind, None, False)
        start = time.perf_counter()
        try:
            proc = self._spawn(req.argv, stdin)
        except subprocess.TimeoutExpired:
            return Outcome(req.kind, time.perf_counter() - start, False)
        seconds = time.perf_counter() - start
        return Outcome(req.kind, seconds, self.check(req, stdin, proc.returncode, proc.stdout))

    def run_in_process(self, req):
        """The same request through ``cli.main`` in this (warm) process."""
        if self.modules is None:
            self.modules = _import_package()
        stdin = self.stdin_for(req)
        if stdin is None:
            return Outcome(req.kind, None, False), 0
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.modules["cli"].main(req.argv)
        finally:
            sys.stdin = saved
        seconds = time.perf_counter() - start
        stdout = out.getvalue()
        return Outcome(req.kind, seconds, self.check(req, stdin, code, stdout)), len(stdout.encode())

    def import_seconds(self):
        """Time a fresh interpreter takes to import the command-line module."""
        code = ("import time; t = time.perf_counter(); import rainbowcat.cli; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, env=self.env, timeout=120)
        return float(proc.stdout)


WORKLOADS = {
    "label-recipes": LabelRecipes,
    "label-corners": LabelCorners,
    "oracle-table": OracleTable,
    "cli-cold": CliCold,
}
