"""The benchmark's four workloads.

Each workload is a closed loop with one client in one process: the next
op starts when the previous one has finished. ``setup`` makes the inputs
from the seed (symkoop receives only those inputs), ``op`` is the timed
operation, and ``check`` is its correctness gate, run outside the timed
interval; it returns None or a one-line reason for the failure.

Why these four: each optimisation on the roadmap gets one workload where
its layer dominates and one where it barely runs.

* ``verify``: one state at a time RK4 stepping over many starts
  (batched integration shows here; the fit and group work is small).
* ``hamiltonian_pipeline``: the CLI path simulate -> fit -> assemble ->
  spectrum on one long trajectory, the only workload with CSV/JSON I/O.
* ``lorenz_edmd``: the EDMD fit on a wide lifted matrix, no stepping.
* ``group_scale``: closure and axioms of an order-48 group, 48 induced
  representations, and the O(N^2 dim) stabilizer on 2000 states.
"""

import contextlib
import hashlib
import json
import os

import numpy as np

from symkoop import cli, dictionaries, dynamics, equivariant, groups, koopman

EXACT_TIER_TOL = 1e-10  # exact tier of equivariant.verify_conjugation


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def load_strict_json(path):
    """Parse a JSON file, refusing NaN and Infinity."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def run_cli(argv):
    """Run one CLI command as a user would; its printing goes to /dev/null."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def _relative_error(actual, expected):
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


def draw_is1_states(rng, n):
    """Hamiltonian states around the centre (3, 0) of IS-1, the sector
    q > |p| inside q^2 + p^2 < 18."""
    return np.column_stack([rng.uniform(2.4, 3.6, n), rng.uniform(-0.5, 0.5, n)])


class Verify:
    """``symkoop verify``: all built-in checks. The suite runs on its own
    fixed seeds, as users run it; the benchmark seed does not reach it."""

    def setup(self, seed, workdir):
        self.out = os.path.join(workdir, "verify.json")
        self.record = {"seed_used": False}

    def op(self):
        return run_cli(["verify", "--out", self.out])

    def check(self, code):
        if code != 0:
            return f"verify exited with {code}"
        report = load_strict_json(self.out)
        os.remove(self.out)
        if report["all_passed"] is not True:
            return "verify reported all_passed false"
        self.record["checks"] = len(report["checks"])
        return None


class HamiltonianPipeline:
    """simulate -> fit -> assemble -> spectrum through the CLI, for the
    four-block Hamiltonian system, from one seeded start in IS-1."""

    STEPS = 20000
    DICTIONARY = '{"kind": "monomial", "max_degree": 6}'
    MAPPING = {"IS-2": "swap", "IS-3": "negate", "IS-4": "swap*negate"}

    def setup(self, seed, workdir):
        x0 = draw_is1_states(np.random.default_rng(seed), 1)[0]
        self.x0 = ",".join(repr(float(v)) for v in x0)
        self.dir = workdir
        self.group_path = os.path.join(workdir, "group.json")
        self.registry_path = os.path.join(workdir, "registry.json")
        with open(self.group_path, "w") as fh:
            json.dump({"dim": 2, "generators": [
                {"label": "swap", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
                {"label": "negate", "matrix": [[-1.0, 0.0], [0.0, -1.0]]},
            ]}, fh)
        with open(self.registry_path, "w") as fh:
            json.dump({"labels": ["IS-1", "IS-2", "IS-3", "IS-4"],
                       "base": "IS-1", "mapping": self.MAPPING}, fh)
        self.group = groups.load_group(self.group_path)
        self.outputs = {
            "traj": os.path.join(workdir, "hamiltonian_traj00.csv"),
            "operator": os.path.join(workdir, "operator.json"),
            "global": os.path.join(workdir, "global.json"),
            "spectrum": os.path.join(workdir, "spectrum.json"),
        }
        self.record = {"x0": self.x0, "digests": None}

    def op(self):
        out = self.outputs
        return [
            run_cli(["simulate", "--system", "hamiltonian", "--x0", self.x0,
                     "--steps", str(self.STEPS), "--out", self.dir]),
            run_cli(["fit", "--traj", out["traj"], "--dictionary", self.DICTIONARY,
                     "--set-label", "IS-1", "--out", out["operator"]]),
            run_cli(["assemble", "--registry", self.registry_path,
                     "--base-operator", out["operator"], "--group", self.group_path,
                     "--out", out["global"]]),
            run_cli(["spectrum", "--operator", out["operator"],
                     "--out", out["spectrum"]]),
        ]

    def check(self, codes):
        if any(codes):
            return f"CLI exit codes {codes}"
        base = load_strict_json(self.outputs["operator"])
        assembled = load_strict_json(self.outputs["global"])
        load_strict_json(self.outputs["spectrum"])
        dictionary = dictionaries.dictionary_from_spec(base["dictionary"])
        k_base = np.array(base["K"])
        for block in assembled["blocks"]:
            k_block = np.array(block["K"])
            if block["label"] == "IS-1":
                if not np.array_equal(k_block, k_base):
                    return "IS-1 block differs from the fitted operator"
                continue
            g = self.group.element(self.MAPPING[block["label"]])
            rep = dictionaries.induced_representation(dictionary, g).matrix
            error = _relative_error(k_block, rep @ k_base @ np.linalg.inv(rep))
            if not error <= EXACT_TIER_TOL:
                return f"block {block['label']} is off R K R^-1 by {error:.3e}"
        digests = {}
        for key, path in self.outputs.items():
            with open(path, "rb") as fh:
                digests[key] = hashlib.sha256(fh.read()).hexdigest()
            os.remove(path)
        if self.record["digests"] is None:
            self.record["digests"] = digests
        elif digests != self.record["digests"]:
            return "outputs are not byte-identical to the first op's"
        self.record["rank_used"] = base["rank_used"]
        return None


class LorenzEdmd:
    """Library calls on a seeded 20,000-pair Lorenz trajectory: lift ->
    fit_edmd -> induced_representation -> assemble_global (blue/magenta)
    -> spectrum of both blocks -> predict and global_predict 1000 steps."""

    PAIRS = 20000
    DISCARD = 500
    HORIZON = 1000

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        x0 = np.array([1.0, 1.0, 1.05]) + rng.uniform(-0.5, 0.5, size=3)
        system = dynamics.make_system("lorenz")
        traj = dynamics.simulate(system, x0, 0.01, self.PAIRS, discard=self.DISCARD)
        self.pairs = dynamics.snapshots(traj)
        self.dictionary = dictionaries.MonomialDictionary(3, 6)
        self.g = groups.builtin_group("lorenz").element("rot_pi_z")
        self.registry = equivariant.InvariantSetRegistry(
            labels=("blue", "magenta"), base_label="blue",
            mapping={"magenta": "rot_pi_z"},
        )
        self.start = self.g.matrix @ traj.states[-1]
        # the gate's reference: a fit on the exactly transformed data
        Yp, Yf = dictionaries.lift(
            self.dictionary, groups.transform_snapshots(self.pairs, self.g))
        self.refit = koopman.fit_edmd(Yp, Yf, dictionary=self.dictionary)
        self.record = {"x0": x0.tolist(), "refit_rank_used": self.refit.rank_used}

    def op(self):
        Yp, Yf = dictionaries.lift(self.dictionary, self.pairs)
        base = koopman.fit_edmd(Yp, Yf, dictionary=self.dictionary,
                                set_label="blue")
        rep = dictionaries.induced_representation(self.dictionary, self.g)
        gk = equivariant.assemble_global(self.registry, base, {"magenta": rep})
        spectra = [koopman.spectrum(op) for _, op in gk.blocks]
        local = koopman.predict(gk.block("magenta"), self.start, self.HORIZON)
        stacked = equivariant.global_predict(gk, "magenta", self.start, self.HORIZON)
        return gk, spectra, local, stacked

    def check(self, output):
        gk, spectra, local, stacked = output
        error = _relative_error(gk.block("magenta").matrix, self.refit.matrix)
        if not error <= EXACT_TIER_TOL:
            return f"magenta block is off the transformed-data refit by {error:.3e}"
        if not all(np.all(np.isfinite(s.eigenvalues)) for s in spectra):
            return "non-finite eigenvalue"
        if not np.array_equal(local, stacked, equal_nan=True):
            return "global_predict slice differs from block-local predict"
        self.record["rank_used"] = gk.block("blue").rank_used
        self.record["features"] = gk.block("blue").size
        return None


class GroupScale:
    """``group check`` on the order-48 octahedral group, its 48 induced
    representations on degree-4 monomials, and the Klein-group stabilizer
    of a 2000-state Hamiltonian cloud."""

    CLOUD_BASE = 500

    def setup(self, seed, workdir):
        self.group_path = os.path.join(workdir, "octahedral.json")
        self.report_path = os.path.join(workdir, "group_report.json")
        with open(self.group_path, "w") as fh:
            json.dump({"dim": 3, "generators": [
                {"label": "cycle", "matrix": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                                              [0.0, 1.0, 0.0]]},
                {"label": "swap", "matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                             [0.0, 0.0, 1.0]]},
                {"label": "flip", "matrix": [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                             [0.0, 0.0, 1.0]]},
            ]}, fh)
        self.octahedral = groups.load_group(self.group_path)
        self.dictionary = dictionaries.MonomialDictionary(3, 4)
        self.klein = groups.builtin_group("hamiltonian")
        base = draw_is1_states(np.random.default_rng(seed), self.CLOUD_BASE)
        self.cloud = np.vstack([base @ g.matrix.T for g in self.klein.elements])
        self.record = {"cloud_states": len(self.cloud)}

    def op(self):
        code = run_cli(["group", "check", "--group", self.group_path,
                        "--out", self.report_path])
        reps = [dictionaries.induced_representation(self.dictionary, g)
                for g in self.octahedral.elements]
        labels = equivariant.data_stabilizer_labels(self.klein, self.cloud)
        return code, reps, labels

    def check(self, output):
        code, reps, labels = output
        if code != 0:
            return f"group check exited with {code}"
        report = load_strict_json(self.report_path)
        os.remove(self.report_path)
        axioms = ("closure", "identity", "inverses", "associativity", "ok")
        if report["order"] != 48 or not all(report[a] is True for a in axioms):
            return f"group check reported {report}"
        cayley = self.octahedral.cayley
        for i, r_i in enumerate(reps):
            for j, r_j in enumerate(reps):
                if not np.array_equal(r_i.matrix @ r_j.matrix,
                                      reps[cayley[i, j]].matrix):
                    return f"R(g{i}) R(g{j}) != R(g{i} g{j})"
        if labels != tuple(self.klein.labels()):
            return f"stabilizer labels {labels}"
        return None


WORKLOADS = {
    "verify": Verify,
    "hamiltonian_pipeline": HamiltonianPipeline,
    "lorenz_edmd": LorenzEdmd,
    "group_scale": GroupScale,
}
