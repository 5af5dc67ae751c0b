"""The three benchmark workloads: inputs, operations and correctness checks.

Inputs come from ``mcred.checks`` generators driven by the workload seed.
The input stream of a workload depends only on the seed: operation ``i``
always gets the same input, so a shorter run measures a prefix of a longer
one and goldens recorded for the default seed apply to any run length.
Every operation in a run gets a distinct input.

Library functions are always looked up through their module at call time
(``mcred.reduce``, not a name bound at import), so the wrappers that the
traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import mcred
from mcred import checks, cli, serialize

KINDS = ("generic", "invertible_lead", "nilpotent_lead")

# fredholm refuses these samples: their windows come from doubling only.
DOUBLING_SAMPLES = ("saddle-node", "ramified-pair", "jump-integer", "jump-half")

# Small certified inputs of the cli mix: (kind, pole order), each at n = 1..3.
CLI_SMALL = (("regular_singular", 1), ("generic", 1), ("invertible_lead", 1),
             ("generic", 0), ("invertible_lead", 2), ("invertible_lead", 3))
# Integer eigenvalue gaps of the regular-singular tail inputs; each round of
# the cli mix takes the next CLI_GAPS_PER_ROUND of them, cyclically.
CLI_GAPS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
CLI_GAPS_PER_ROUND = 4
# The warm-up input is the same on every seed, so set-up time does not vary
# with the workload seed.
WARMUP_SEED = "warmup"


# ---------------------------------------------------------------------------
# reduce-replay
# ---------------------------------------------------------------------------


class ReduceReplay:
    """``reduce(c)`` then ``replay(tree, c)`` on random irregular inputs.

    Operation ``i`` has ``n = 2 + i % 2``, ``r = 2 + (i // 2) % 2`` and kind
    ``KINDS[i % 3]``, so every 12 consecutive operations cover each
    (n, r, kind) cell once and any prefix mixes sizes and kinds.
    """

    name = "reduce-replay"
    round_ops = 12
    round_s = 15.0  # of --seconds per round (see op_count)
    prefix_ops = 0

    def __init__(self, seed, workdir):
        self.seed = seed

    @staticmethod
    def _cell(i):
        return 2 + i % 2, 2 + (i // 2) % 2, KINDS[i % 3]

    def inputs(self, count):
        rng = random.Random(self.seed)
        out = []
        for i in range(count):
            n, r, kind = self._cell(i)
            out.append((n, checks.random_connection(rng, n, r, kind=kind)))
        return out

    def warmup_input(self):
        rng = random.Random(WARMUP_SEED)
        return (2, checks.random_connection(rng, 2, 2, kind="generic"))

    def run(self, inp):
        _, c = inp
        tree = mcred.reduce(c)
        return tree, mcred.replay(tree, c)

    def outcome(self, inp, out):
        n, _ = inp
        tree, replayed = out
        leaves = [[leaf.kind, leaf.size, leaf.ram, _encode_grid(leaf.residue)]
                  for leaf in tree.leaves()]
        problems = []
        if replayed is not True:
            problems.append("replay did not return True")
        if sum(leaf[1] for leaf in leaves) != n:
            problems.append(f"leaf sizes {[leaf[1] for leaf in leaves]} "
                            f"do not add up to n={n}")
        counts = {"restarts": tree.restarts, "nodes": _count_nodes(tree.root)}
        return {"leaves": leaves}, problems, counts


def _count_nodes(node):
    return 1 + sum(_count_nodes(child) for child in node.children)


def _encode_grid(grid):
    if grid is None:
        return None
    return [[serialize.encode_element(x) for x in row] for row in grid]


# ---------------------------------------------------------------------------
# derham-irregular
# ---------------------------------------------------------------------------


class DerhamIrregular:
    """``derham_dims(c)`` on nilpotent-lead inputs with n, r in {2, 3}."""

    name = "derham-irregular"
    round_ops = 4
    round_s = 30.0
    prefix_ops = 0

    def __init__(self, seed, workdir):
        self.seed = seed

    def inputs(self, count):
        rng = random.Random(self.seed)
        out = []
        for i in range(count):
            n, r = 2 + i % 2, 2 + (i // 2) % 2
            out.append((n, checks.random_connection(
                rng, n, r, kind="nilpotent_lead")))
        return out

    def warmup_input(self):
        rng = random.Random(WARMUP_SEED)
        return (2, checks.random_connection(rng, 2, 2, kind="nilpotent_lead"))

    def run(self, inp):
        return mcred.derham_dims(inp[1])

    def outcome(self, inp, dims):
        n, c = inp
        problems = _dims_problems(dims.h0, dims.h1, n)
        if not mcred.euler_bound_check(c, dims):
            problems.append("euler_bound_check failed")
        certified = int(dims.certificate == "spectrum-derived")
        return {"h": [dims.h0, dims.h1]}, problems, {"certified": certified}


def _dims_problems(h0, h1, n):
    problems = []
    if h0 != h1:
        problems.append(f"index {h0 - h1} is not 0")
    if not 0 <= h0 <= n:
        problems.append(f"h0={h0} outside [0, {n}]")
    return problems


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------


def _gap_connection(rng, gap):
    """Rank 2, pole order 1, residue eigenvalues ``a`` and ``a - gap``,
    moved by a random unit gauge so the residue is not triangular."""
    a = rng.randint(-2, 2)
    residue = [[a, checks.random_rational(rng)], [0, a - gap]]
    c = mcred.Connection.from_coeff_map(
        checks.QQ, {-1: residue, 0: checks.random_grid(rng, 2)}, 2)
    return c.gauge(checks.random_unit_gauge(rng, 2))


class CliRoundtrip:
    """In-process ``mcred.cli.main`` calls on JSON files written in set-up.

    The stream opens with all three commands on the five named samples; then
    come rounds of small certified inputs (``derham`` and ``fredholm`` on
    each, ``reduce`` on those of pole order <= 1) and regular-singular
    inputs with integer residue gaps (``derham`` and ``fredholm``).
    """

    name = "cli-roundtrip"
    round_s = 6.0
    prefix_ops = 3 * len(checks.SAMPLES)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    @property
    def round_ops(self):
        small = len(CLI_SMALL) * 3
        reduce_ops = sum(1 for _, r in CLI_SMALL if r <= 1) * 3
        return 2 * small + reduce_ops + 2 * CLI_GAPS_PER_ROUND

    def _write(self, label, c):
        path = self.workdir / f"{label}.json"
        path.write_text(serialize.dumps(serialize.encode_connection(c)))
        return str(path)

    def _stream(self):
        """Yield ``(command, path, n, expected exit code)`` forever."""
        for name, make in checks.SAMPLES.items():
            c = make()
            path = self._write(f"sample-{name}", c)
            doubling = name in DOUBLING_SAMPLES
            yield ("reduce", path, c.size, 0)
            yield ("derham", path, c.size, 0)
            yield ("fredholm", path, c.size, 1 if doubling else 0)
        rng = random.Random(self.seed)
        k = 0
        rnd = 0
        while True:
            for kind, r in CLI_SMALL:
                for n in (1, 2, 3):
                    c = checks.random_connection(rng, n, r, kind=kind)
                    path = self._write(f"in{k}", c)
                    k += 1
                    if r <= 1:
                        yield ("reduce", path, n, 0)
                    yield ("derham", path, n, 0)
                    yield ("fredholm", path, n, 0)
            for j in range(CLI_GAPS_PER_ROUND):
                gap = CLI_GAPS[(rnd * CLI_GAPS_PER_ROUND + j) % len(CLI_GAPS)]
                path = self._write(f"in{k}-gap{gap}", _gap_connection(rng, gap))
                k += 1
                yield ("derham", path, 2, 0)
                yield ("fredholm", path, 2, 0)
            rnd += 1

    def inputs(self, count):
        self.workdir.mkdir(parents=True, exist_ok=True)
        stream = self._stream()
        return [next(stream) for _ in range(count)]

    def warmup_input(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(WARMUP_SEED)
        c = checks.random_connection(rng, 2, 1, kind="regular_singular")
        return ("derham", self._write("warmup", c), 2, 0)

    def run(self, inp):
        cmd, path = inp[0], inp[1]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([cmd, path])
        return code, out.getvalue()

    def outcome(self, inp, out):
        cmd, path, n, expected = inp
        code, text = out
        record = {"code": code}
        problems = []
        if code != expected:
            problems.append(f"{cmd} exited {code}, expected {expected}")
        if code != 0:
            if text:
                problems.append(f"{cmd} exited {code} but wrote stdout")
            return record, problems, {"bytes_out": len(text)}
        counts = {"bytes_out": len(text), "certified": 0}
        try:
            obj = serialize.loads(text)
            if cmd == "reduce":
                source = serialize.decode_connection(
                    serialize.loads(Path(path).read_text()))
                if serialize.decode_connection(obj["input"]) != source:
                    problems.append("reduce output does not re-decode to its input")
                serialize.decode_connection(obj["working"])
                leaves = _json_leaves(obj["root"])
                if sum(leaf[1] for leaf in leaves) != n:
                    problems.append("leaf sizes do not add up to n")
                record["leaves"] = leaves
                counts["restarts"] = obj["restarts"]
                counts["nodes"] = _json_nodes(obj["root"])
            else:
                h0, h1 = obj["h0"], obj["h1"]
                problems.extend(_dims_problems(h0, h1, n))
                record["h"] = [h0, h1]
                counts["certified"] = int(obj["certificate"] == "spectrum-derived")
        except (mcred.EngineError, KeyError, TypeError) as exc:
            problems.append(f"{cmd} stdout does not re-decode: {exc!r}")
        return record, problems, counts


def _json_nodes(node):
    return 1 + sum(_json_nodes(child) for child in node.get("children", []))


def _json_leaves(node):
    if node.get("children"):
        return [leaf for child in node["children"] for leaf in _json_leaves(child)]
    if "leaf" in node:
        serialize.decode_connection(node["leaf"])
    return [[node["kind"], node["size"], node["ramification"],
             node.get("residue")]]


def op_count(wl, seconds, limit=None):
    """Size of the fixed input set: the prefix, then one round per
    ``round_s`` of ``seconds`` (at least one).

    ``round_s`` shares a run's time out by how much a workload's figures
    vary from seed to seed, not by how long a round takes.  At the defining
    commit a calibrated round took about 34 s on ``reduce-replay``, 21 s on
    ``derham-irregular`` and 3.3 s on ``cli-roundtrip``.  At ``seconds=30``
    the sets are two rounds of ``reduce-replay``, whose latencies depend most
    on the seed, one of ``derham-irregular`` and five of ``cli-roundtrip``.
    """
    rounds = max(1, int(seconds // wl.round_s))
    count = wl.prefix_ops + rounds * wl.round_ops
    return count if limit is None else min(count, limit)


WORKLOADS = {w.name: w for w in (ReduceReplay, DerhamIrregular, CliRoundtrip)}
