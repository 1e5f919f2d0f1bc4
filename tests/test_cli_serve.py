"""``coma serve`` argument validation: clean non-zero exits, never tracebacks."""

from __future__ import annotations

from repro.cli import console_main


def test_zero_workers_exits_nonzero_with_a_clean_message(capsys):
    assert console_main(["serve", "--workers", "0", "--port", "0"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "--workers" in captured.err


def test_negative_workers_rejected(capsys):
    assert console_main(["serve", "--workers", "-3", "--port", "0"]) == 1
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_unknown_backend_exits_nonzero_listing_the_choices(capsys):
    assert console_main(["serve", "--backend", "gevent", "--port", "0"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "'thread'" in captured.err and "'process'" in captured.err


def test_unwritable_store_path_exits_nonzero_cleanly(tmp_path, capsys):
    target = tmp_path / "no-such-directory" / "deeper" / "store.db"
    code = console_main(["serve", "--store", str(target), "--port", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "similarity store" in captured.err
    # Validation failed before any socket was bound or file created.
    assert not target.parent.exists()


def test_fault_plan_is_refused_without_the_environment_gate(
    tmp_path, capsys, monkeypatch
):
    from repro.faults import catalog_plan

    monkeypatch.delenv("COMA_ENABLE_FAULTS", raising=False)
    plan_path = tmp_path / "plan.json"
    catalog_plan("corpus-index-loss").save(str(plan_path))
    code = console_main(["serve", "--fault-plan", str(plan_path), "--port", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "COMA_ENABLE_FAULTS=1" in captured.err


def test_fault_plan_file_is_validated_before_any_socket(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("COMA_ENABLE_FAULTS", "1")
    bad_plan = tmp_path / "bad.json"
    bad_plan.write_text('{"rules": [{"point": "x", "action": "explode"}]}')
    code = console_main(["serve", "--fault-plan", str(bad_plan), "--port", "0"])
    assert code == 1
    assert "unknown fault action" in capsys.readouterr().err
