"""The benchmark's tracer hooks still name functions of proxkern.

``perfbench/spans.py`` reports a hook whose target is gone as absent instead
of failing, so a rename in ``src`` would silently drop a span from traced
runs.  This test turns that drift into a failure.
"""

import importlib.util
from pathlib import Path


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_but_the_known_stale_one_resolves():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == {
        # left over from the removed squared-spectrum fit
        "proxkern.corrections.sym_eig",
        # cross-validation takes its core pinv from nystrom_factors, traced as
        # proxkern.nystrom.pinv_sym
        "proxkern.evaluate.pinv_sym",
        # the fit centers through the raw core with center_dissimilarity_rows and
        # inverts no second core; nystrom_double_center is no longer on the fit path
        "proxkern.corrections.nystrom_double_center",
        "proxkern.corrections.pinv_sym",
    }
