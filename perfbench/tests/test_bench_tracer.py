"""A traced function that netctrl no longer has is reported, not ignored."""

import os

import run
import tracer


def test_missing_function_is_listed(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(run.ROOT, "src"))
    import netctrl

    monkeypatch.delattr(netctrl.flow, "_build_arrays")
    t = tracer.Tracer()
    t.install(netctrl)
    try:
        assert t.missing == ["flow._build_arrays -> flow.build_s"]
    finally:
        t.uninstall()

