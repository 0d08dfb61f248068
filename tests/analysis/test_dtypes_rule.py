"""Dtype-flow rule: promotion hazards and clean twins."""

from repro.analysis.dtypes import DtypeRule

from .helpers import REPO_SRC, check, load, rule_ids


def _check(relpath: str, module: str = "repro.mis.fixture"):
    return check(DtypeRule(), load(f"dtypes/{relpath}", module))


# -------------------------------------------------------- size/platform twins
def test_cumsum_promotion_fires_for_both_spellings():
    findings = _check("bad_cumsum_promotion.py")
    assert rule_ids(findings) == ["dtype-size-dependent"] * 2
    assert "np.cumsum" in findings[0].message
    assert ".cumsum()" in findings[1].message


def test_probe_idiom_twin_is_quiet():
    assert _check("good_cumsum_fixed.py") == []


def test_platform_int_spellings_fire():
    findings = _check("bad_platform_int.py")
    assert rule_ids(findings) == ["dtype-size-dependent"] * 3
    messages = " ".join(f.message for f in findings)
    assert "np.arange" in messages
    assert "dtype=int" in messages


def test_explicit_width_twin_is_quiet():
    assert _check("good_explicit.py") == []


def test_promotion_scope_is_determinism_closure():
    # Outside the determinism closure the promotion hazard doesn't gate
    # bit-identity, so the same source stays quiet.
    assert _check("bad_cumsum_promotion.py", module="repro.bench.fixture") == []


# -------------------------------------------------------------- real-tree gate
def test_real_tree_is_clean():
    from repro.analysis.engine import load_corpus

    context = load_corpus([str(REPO_SRC)])
    rule = DtypeRule()
    findings = []
    for info in context.modules:
        findings.extend(rule.check(info, context))
    assert findings == []
