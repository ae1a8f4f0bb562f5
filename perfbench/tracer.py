"""Per-layer timing of the shukla package, applied from outside it.

The tracer replaces each traced public function with a wrapper in every
shukla module that binds it (modules import these functions by name, so
patching the defining module alone would miss most calls).  A wrapper
records calls, inclusive time and self time (inclusive time minus the
time of wrapped children), and the counts below, which it computes from
arguments and return values at the call boundary.  Nothing inside the
package changes, and uninstall() restores every binding.
"""

import sys
import time

SPANS = (
    "cli.parse",
    "models.koszul_model",
    "dpalgebra.basis_slice",
    "dpalgebra.derivation_matrix",
    "gammaforms.build_gamma_forms",
    "gammaforms.hh_assemble",
    "gammaforms.hc_assemble",
    "gammaforms.hh_layers",
    "mixed.hochschild_total",
    "mixed.cyclic_total",
    "mixed._total_matrix",
    "mixed._cyclic_matrix",
    "mixed._column_graded_pieces",
    "linalg.homology_at",
    "linalg.invariant_factors_sparse",
    "linalg.dense_snf",
    "linalg.integer_rank",
    "linalg.kernel_basis",
    "linalg.subquotient",
    "crystalline.hodge_hh",
    "crystalline.hc_layers_small",
    "baroracle.from_presentation",
    "baroracle.cyclic_mixed",
)

# name -> (unit, better) of every count the tracer reports
COUNTS = {
    "dpalgebra.basis_slice.dim_sum": ("count", "lower"),
    "dpalgebra.derivation_matrix.nnz": ("count", "lower"),
    "dpalgebra.derivation_matrix.repeat_frac": ("ratio", "lower"),
    "linalg.invariant_factors_sparse.nnz": ("count", "lower"),
    "linalg.dense_snf.residue_cells": ("count", "lower"),
    "linalg.unit_pivot_frac": ("ratio", "higher"),
    "linalg.homology_at.zmod_calls": ("count", "lower"),
    "mixed._column_graded_pieces.levels": ("count", "lower"),
}

PACKAGE = "shukla"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps SPANS in the imported shukla package; one pass per reset()."""

    def __init__(self):
        self._bindings = []     # (namespace dict, key, original)
        self._stack = []        # one [child_s, span, extra] per open call
        self.reset()

    def reset(self):
        """Zero every span and count, as at the start of a pass."""
        self.calls = {s: 0 for s in SPANS}
        self.incl_s = {s: 0.0 for s in SPANS}
        self.self_s = {s: 0.0 for s in SPANS}
        self._n = dict.fromkeys(
            ("dim_sum", "dm_nnz", "dm_repeats", "ifs_nnz", "residue_cells",
             "ifs_rank", "ifs_unit_rank", "zmod_calls", "levels"), 0)
        self.begin_job()

    def begin_job(self):
        """Matrices built in an earlier job do not count as repeats."""
        self._built = set()
        self._derivations = []  # keeps ids in _built unique within a job

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every module-level binding of every traced function; raise
        if one is missing or if a reference the tracer cannot patch remains."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = {}  # id -> (span, function); the dict keeps each id live
        for span in SPANS:
            mod_name, func_name = span.rsplit(".", 1)
            func = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), func_name, None)
            if not callable(func):
                raise RuntimeError(f"traced function {span} not found")
            originals[id(func)] = (span, func)
        wrappers = {fid: self._wrap(span, func)
                    for fid, (span, func) in originals.items()}
        for mod in _package_modules():
            ns = vars(mod)
            for key, value in list(ns.items()):
                if id(value) in originals:
                    self._bindings.append((ns, key, value))
                    ns[key] = wrappers[id(value)]
        for mod in _package_modules():
            for key, value in vars(mod).items():
                held = list(getattr(value, "__defaults__", None) or ())
                if isinstance(value, type):
                    held += list(vars(value).values())
                for ref in held:
                    if id(ref) in originals:
                        self.uninstall()
                        raise RuntimeError(f"{mod.__name__}.{key} holds "
                                           f"{originals[id(ref)][0]} unwrapped")

    def uninstall(self):
        for ns, key, original in reversed(self._bindings):
            ns[key] = original
        self._bindings = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span, func):
        stack = self._stack
        after = getattr(self, "_after_" + span.replace(".", "__"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, span, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[span] += 1
                self.incl_s[span] += dt
                self.self_s[span] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result, frame)
            return result

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    def _after_dpalgebra__basis_slice(self, args, result, frame):
        self._n["dim_sum"] += result.dim

    def _after_dpalgebra__derivation_matrix(self, args, result, frame):
        deriv, src, tgt = args[:3]
        self._n["dm_nnz"] += len(result.entries)
        key = (id(deriv), src.hdeg, src.weight, src.poly_bound,
               tgt.hdeg, tgt.weight)
        if key in self._built:
            self._n["dm_repeats"] += 1
        else:
            self._built.add(key)
            self._derivations.append(deriv)

    def _after_linalg__invariant_factors_sparse(self, args, result, frame):
        columns = args[0]
        self._n["ifs_nnz"] += sum(1 for col in columns for v in col.values() if v)
        rank = result[1]
        self._n["ifs_rank"] += rank
        # frame[2] is the rank of the dense remainder, set by dense_snf
        self._n["ifs_unit_rank"] += rank - frame[2]

    def _after_linalg__dense_snf(self, args, result, frame):
        a = args[0]
        self._n["residue_cells"] += len(a) * (len(a[0]) if a else 0)
        if self._stack and self._stack[-1][1] == "linalg.invariant_factors_sparse":
            s = result[1]
            self._stack[-1][2] += sum(1 for i, row in enumerate(s) if i < len(row) and row[i])

    def _after_linalg__homology_at(self, args, result, frame):
        if args[2].kind == "Zmod":
            self._n["zmod_calls"] += 1

    def _after_mixed___column_graded_pieces(self, args, result, frame):
        cols_mid = args[2]
        if cols_mid:
            # levels c with F_c nonempty: min(cols_mid) .. max(cols_mid)
            self._n["levels"] += max(cols_mid) - min(cols_mid) + 1

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every span's calls / incl_s / self_s and every count, by name."""
        out = {}
        for s in SPANS:
            out[f"{s}.calls"] = self.calls[s]
            out[f"{s}.incl_s"] = self.incl_s[s]
            out[f"{s}.self_s"] = self.self_s[s]
        n = self._n
        dm_calls = self.calls["dpalgebra.derivation_matrix"]
        out.update({
            "dpalgebra.basis_slice.dim_sum": n["dim_sum"],
            "dpalgebra.derivation_matrix.nnz": n["dm_nnz"],
            "dpalgebra.derivation_matrix.repeat_frac":
                n["dm_repeats"] / dm_calls if dm_calls else 0.0,
            "linalg.invariant_factors_sparse.nnz": n["ifs_nnz"],
            "linalg.dense_snf.residue_cells": n["residue_cells"],
            "linalg.unit_pivot_frac":
                n["ifs_unit_rank"] / n["ifs_rank"] if n["ifs_rank"] else 0.0,
            "linalg.homology_at.zmod_calls": n["zmod_calls"],
            "mixed._column_graded_pieces.levels": n["levels"],
        })
        return out


def metric_specs():
    """(name, unit, better) of every per-layer metric the tracer reports."""
    specs = []
    for s in SPANS:
        specs += [(f"{s}.calls", "count", "lower"), (f"{s}.incl_s", "s", "lower"),
                  (f"{s}.self_s", "s", "lower")]
    specs += [(name, unit, better) for name, (unit, better) in COUNTS.items()]
    return specs
