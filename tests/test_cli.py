"""CLI: exit codes, cache determinism, result trees, analyze outputs."""

import hashlib
import json

import pytest

from heatgrid.cli import main
from heatgrid.ingest import emit_csv
from heatgrid.scenarios import manifest_equal
from heatgrid.series import HourlySeries, utc
from heatgrid.staticdata import emit_static, load_static
from heatgrid.synth import synth_profiles

HEADER = "timestamp,country,quantity,value\n"


def test_ingest_valid_bundle(tmp_path, capsys):
    src = tmp_path / "input.csv"
    src.write_text(emit_csv(synth_profiles(3, ["DE"], 24)))
    out = tmp_path / "cache"
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()
    manifest = json.loads((out / "cache.json").read_text())
    first_hash = manifest["sha256"]
    # The canonical bytes are pinned, and the manifest hashes the file written.
    assert first_hash == "8c3cea241125a6e787ada7a7b96828524da60294a6fa12052909d06774936f7c"
    assert hashlib.sha256((out / "series.csv").read_bytes()).hexdigest() == first_hash
    # Re-running on unchanged inputs leaves the cache hash unchanged.
    assert main(["ingest", str(src), "--out", str(out)]) == 0
    assert json.loads((out / "cache.json").read_text())["sha256"] == first_hash


def test_ingest_gap_exits_one_and_names_timestamp(tmp_path, capsys):
    src = tmp_path / "gap.csv"
    src.write_text(
        HEADER
        + "2009-07-01T00:00:00Z,DE,electric_load_MW,5\n"
        + "2009-07-01T02:00:00Z,DE,electric_load_MW,6\n"
    )
    code = main(["ingest", str(src), "--out", str(tmp_path / "cache")])
    assert code == 1
    err = capsys.readouterr().err
    assert "MissingValue" in err or "gap" in err
    assert "2009-07-01T02:00" in err


def test_ingest_unknown_country_exits_one(tmp_path, capsys):
    src = tmp_path / "xx.csv"
    src.write_text(HEADER + "2009-07-01T00:00:00Z,XX,electric_load_MW,5\n")
    assert main(["ingest", str(src), "--out", str(tmp_path / "cache")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ingest error: {src}:2: unknown country code 'XX'") and err.count("\n") == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("2009-07-01T02:00:00Z,", "2009-07-01T25:00:00Z,",
         "bad timestamp '2009-07-01T25:00:00Z': hour must be in 0..23"),
        (",DE,", ",XX,", "unknown country code 'XX'"),
    ],
    ids=["bad-timestamp", "unknown-country"],
)
def test_ingest_error_names_path_line_and_text(tmp_path, capsys, old, new, message):
    lines = emit_csv(synth_profiles(7, ["DE"], 24)).splitlines(keepends=True)
    assert old in lines[3]
    lines[3] = lines[3].replace(old, new)
    src = tmp_path / "bad.csv"
    src.write_text("".join(lines))
    assert main(["ingest", str(src), "--out", str(tmp_path / "cache")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ingest error: {src}:4: {message}") and err.count("\n") == 1


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run1"
    code = main(
        [
            "run", "--synth-seed", "5", "--countries", "AT,DE", "--scenario", "base",
            "--years", "synth:2", "--hours", "36", "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_run_produces_spec_times_year_directories(run_dir):
    dirs = sorted(p.name for p in run_dir.iterdir() if p.is_dir())
    assert len(dirs) == 6  # 3 base specs x 2 synthetic years
    assert "base-hp25-ep2__y2010" in dirs
    for d in dirs:
        for name in ("capacities.csv", "dispatch.csv", "flows.csv", "heat.csv", "costs.csv", "manifest.json"):
            assert (run_dir / d / name).exists()


def test_no_ntc_manifests_record_empty_ntc(tmp_path):
    out = tmp_path / "no_ntc"
    code = main(
        [
            "run", "--synth-seed", "5", "--countries", "AT,DE", "--scenario", "no_ntc",
            "--years", "synth:1", "--hours", "36", "--out", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "no_ntc-hp00__y2009" / "manifest.json").read_text())
    assert manifest["ntc_pairs"] == []


def test_repeat_run_is_byte_identical(run_dir, tmp_path):
    out2 = tmp_path / "run2"
    code = main(
        [
            "run", "--synth-seed", "5", "--countries", "AT,DE", "--scenario", "base",
            "--years", "synth:2", "--hours", "36", "--out", str(out2),
        ]
    )
    assert code == 0
    for cell in sorted(p.name for p in run_dir.iterdir() if p.is_dir()):
        for name in ("capacities.csv", "dispatch.csv", "flows.csv", "heat.csv", "costs.csv"):
            a = (run_dir / cell / name).read_bytes()
            b = (out2 / cell / name).read_bytes()
            assert a == b, f"{cell}/{name} differs between reruns"
        a, b = (json.loads((out / cell / "manifest.json").read_text()) for out in (run_dir, out2))
        assert manifest_equal(a, b), f"{cell}/manifest.json differs between reruns"


def test_run_from_ingested_cache(tmp_path):
    src = tmp_path / "input.csv"
    src.write_text(emit_csv(synth_profiles(3, ["DE", "FR"], 48)))
    cache = tmp_path / "cache"
    assert main(["ingest", str(src), "--out", str(cache)]) == 0
    out = tmp_path / "run"
    code = main(
        [
            "run", "--dataset", str(cache), "--scenario", "base", "--years", "2009",
            "--hours", "48", "--out", str(out),
        ]
    )
    assert code == 0
    assert len(list(out.iterdir())) == 3


def test_export_mps_writes_model_files(tmp_path):
    from heatgrid.dataset import build_synth_dataset
    from heatgrid.model import build_model
    from heatgrid.mps import export_mps
    from heatgrid.scenarios import make_instance, specs_for_selector

    out = tmp_path / "mps_run"
    code = main(
        [
            "run", "--synth-seed", "5", "--countries", "AT,DE", "--scenario", "base",
            "--years", "synth:1", "--hours", "24", "--out", str(out), "--export-mps",
        ]
    )
    assert code == 0
    cell = out / "base-hp00__y2009"
    assert (cell / "model.mps").exists()
    assert (cell / "model.mps.names.json").exists()
    # The export is the LP the cell was solved on, built once.
    ds = build_synth_dataset(5, ["AT", "DE"], [2009], 24)
    spec = specs_for_selector("base", [2009], 24)[0]
    ref = export_mps(build_model(make_instance(ds, spec, 2009)), tmp_path / "ref.mps")
    assert (cell / "model.mps").read_bytes() == ref.read_bytes()
    assert (cell / "model.mps.names.json").read_bytes() == (tmp_path / "ref.mps.names.json").read_bytes()


def test_analyze_outputs_and_exit_codes(run_dir, tmp_path):
    analysis = tmp_path / "analysis"
    code = main(["analyze", "--results", str(run_dir), "--out", str(analysis), "--delta", "--top-n", "10"])
    assert code == 0
    for name in ("rldc.csv", "peaks.csv", "events.csv", "costs.json", "firm_delta.csv"):
        assert (analysis / name).exists(), name
    costs = json.loads((analysis / "costs.json").read_text())
    with_hp = [c for c in costs if "hp25" in c["scenario"]]
    assert all("heat_cost_eur_per_mwh" in c for c in with_hp)


def test_run_with_failing_cell_exits_two(tmp_path, capsys):
    src = tmp_path / "input.csv"
    src.write_text(emit_csv(synth_profiles(3, ["DE"], 48)))
    cache = tmp_path / "cache"
    assert main(["ingest", str(src), "--out", str(cache)]) == 0
    # Asking for more hours than the cache covers breaks every cell.
    code = main(
        [
            "run", "--dataset", str(cache), "--scenario", "base", "--years", "2009",
            "--hours", "96", "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 2
    assert "CoverageError" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--scenario", "bogus"], "unknown scenario selector 'bogus'"),
        (["--years", "synth:0"], "names no weather year"),
        (["--years", "x"], "--years 'x' is neither synth:N nor a comma list of years"),
        (["--countries", "XX"], "unknown country code 'XX'"),
        (["--hours", "9000"], "window_hours 9000 not in [1, 8760]"),
        (["--jobs", "-2"], "--jobs -2 is below 1"),
        (["--years", "2009,2009", "--jobs", "2"], "weather year 2009 is listed more than once"),
        (["--countries", "DE,DE"], "country DE is listed more than once"),
    ],
)
def test_run_rejects_bad_input_before_any_cell(tmp_path, capsys, flags, message):
    out = tmp_path / "run"
    code = main(["run", "--synth-seed", "5", "--countries", "DE", "--hours", "24", "--out", str(out), *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]  # one line
    assert captured.err.startswith("run error: ") and message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("schema: heatgrid-static-v1\ngeneration: {ccgt: 1\nstorage: [\n", "not valid YAML: while parsing a flow mapping"),
        ("", "expected a mapping of tables, got NoneType"),
        ("schema: heatgrid-static-v1\nco2_price_eur_per_t: 80\n", "missing key 'generation'"),
        ((("generation",), 5), "generation is not a mapping"),
        ((("generation", "ccgt"), 5), "generation.ccgt is not a mapping"),
        ((("capacity_bounds_gw", "DE", "ccgt"), 3), "capacity_bounds_gw.DE.ccgt is not a mapping"),
        ((("storage",), [1]), "storage is not a mapping"),
        ((("defaults",), 5), "defaults is not a mapping"),
        ((("generation", "ccgt", "efficiency"), None), "generation.ccgt.efficiency is not a number: None"),
        ((("generation", "ccgt", "efficiency"), "high"), "generation.ccgt.efficiency is not a number: 'high'"),
        ((("storage", "li_ion", "efficiency_charge"), None), "storage.li_ion.efficiency_charge is not a number: None"),
        ((("capacity_bounds_gw", "DE", "ccgt", "low"), "x"), "capacity_bounds_gw.DE.ccgt.low is not a number: 'x'"),
        ((("co2_price_eur_per_t",), "n/a"), "co2_price_eur_per_t is not a number: 'n/a'"),
        ((("defaults", "ntc_mw", "DE", "AT"), None), "defaults.ntc_mw.DE.AT is not a number: None"),
        ((("defaults", "bioenergy_generation_cap_mwh_yr", "DE"), [1]),
         "defaults.bioenergy_generation_cap_mwh_yr.DE is not a number: [1]"),
        ((("capacity_bounds_gw", "DE", "li_ion_power_sideways"), {"low": 0, "up": 1}),
         "unknown bounds row 'li_ion_power_sideways' for DE"),
        ((("capacity_bounds_gw", "DE", "li_ion_energy_gwh"), {"low": 5, "up": 1}),
         "DE/li_ion_energy_gwh: lower 5000.0 > upper 1000.0"),
        ((("capacity_bounds_gw", "AT", "reservoir_energy_twh"), {"low": 2, "up": 1}),
         "AT/reservoir_energy_twh: lower 2000000.0 > upper 1000000.0"),
        ((("capacity_bounds_gw", "DE", "li_ion_power_in_out"), {"low": float("nan"), "up": float("inf")}),
         "DE/li_ion_power_in_out: lower nan not <= upper inf"),
        ((("capacity_bounds_gw", "DE", "ccgt"), {"low": -1, "up": 30}),
         "DE/ccgt: lower bound -1000.0 not >= 0"),
        ((("generation", "ccgt", "interest_rate"), -0.01), "ccgt: interest rate -0.01 < 0"),
        ((("storage", "li_ion", "interest_rate"), -0.01), "li_ion: interest rate -0.01 < 0"),
        ((("storage", "li_ion", "lifetime_yr"), 0.5), "li_ion: lifetime 0.5 < 1"),
        ((("storage", "li_ion", "availability"), 1.5), "li_ion: availability 1.5 not in (0,1]"),
        ((("defaults", "ntc_mw", "DE", "DE"), 500), "NTC DE->DE links a country to itself"),
    ],
    ids=[
        "malformed", "empty", "missing-table", "table", "row", "bounds-cell", "storage-list", "defaults",
        "null-number", "text-number", "null-storage-number", "text-bound", "text-co2", "null-ntc", "list-bio",
        "unknown-bounds-row", "crossed-gwh-bounds", "crossed-twh-bounds", "nan-bound", "negative-bound",
        "negative-interest",
        "negative-storage-interest", "short-storage-lifetime", "storage-availability", "ntc-self-link",
    ],
)
def test_run_static_failure_names_its_file(tmp_path, capsys, text, message):
    if isinstance(text, tuple):  # the bundled tables, with the entry at a key path replaced
        (*parents, last), value = text
        raw = node = load_static().raw
        for key in parents:
            node = node[key]
        node[last] = value
        text = emit_static(raw)
    static = tmp_path / "broken.yaml"
    static.write_text(text)
    out = tmp_path / "run"
    flags = ["--synth-seed", "7", "--countries", "DE", "--hours", "24", "--static", str(static)]
    assert main(["run", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]  # one line
    assert captured.err.startswith(f"run error: {static}: {message}")
    assert captured.out == "" and not out.exists()


def _drop_fr_load(series_map):
    del series_map[("FR", "electric_load_MW")]


def _late_de_cop(series_map):
    cop = series_map[("DE", "cop.space.air")]
    series_map[("DE", "cop.space.air")] = HourlySeries("DE", "cop", utc(2009, 7, 1, 1), cop.values[1:])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_fr_load, "run error: FR: no electric_load_MW series"),
        (_late_de_cop, "run error: DE: cop series misaligned: (2009-07-01 01:00:00+00:00, 47)"),
    ],
)
def test_run_rejects_a_cache_country_before_any_cell(tmp_path, capsys, corrupt, message):
    series_map = synth_profiles(3, ["DE", "FR"], 48)
    corrupt(series_map)
    src = tmp_path / "input.csv"
    src.write_text(emit_csv(series_map))
    cache = tmp_path / "cache"
    assert main(["ingest", str(src), "--out", str(cache)]) == 0  # each series is sound on its own
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["run", "--dataset", str(cache), "--years", "2009", "--hours", "24", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]  # one line
    assert captured.err.startswith(message)
    assert captured.out == "" and not out.exists()


def test_run_without_series_cache_exits_one(tmp_path, capsys):
    code = main(["run", "--dataset", str(tmp_path), "--hours", "24", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("run error: ") and captured.err.count("\n") == 1
    assert "series.csv" in captured.err and captured.out == ""


def _edit_a_load_value(cache):
    lines = (cache / "series.csv").read_text().splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if ",electric_load_MW," in line)
    stamp_country_quantity, value = lines[k].rsplit(",", 1)
    lines[k] = f"{stamp_country_quantity},{float(value) + 1.0}\n"  # still a sound series
    (cache / "series.csv").write_text("".join(lines))


def _drop_manifest(cache):
    (cache / "cache.json").unlink()


def _foreign_manifest(cache):
    manifest = json.loads((cache / "cache.json").read_text())
    (cache / "cache.json").write_text(json.dumps({**manifest, "schema": "other-cache-v1"}))


@pytest.mark.parametrize("spoil", [_edit_a_load_value, _drop_manifest, _foreign_manifest])
def test_run_rejects_a_cache_its_manifest_does_not_vouch_for(tmp_path, capsys, spoil):
    src = tmp_path / "input.csv"
    src.write_text(emit_csv(synth_profiles(3, ["DE"], 24)))
    cache = tmp_path / "cache"
    assert main(["ingest", str(src), "--out", str(cache)]) == 0
    spoil(cache)
    capsys.readouterr()
    out = tmp_path / "run"
    assert main(["run", "--dataset", str(cache), "--years", "2009", "--hours", "24", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]  # one line
    assert captured.err.startswith("run error: ") and "cache.json" in captured.err
    assert captured.out == "" and not out.exists()


def _truncate_dispatch(cell):
    lines = (cell / "dispatch.csv").read_text().splitlines(keepends=True)
    (cell / "dispatch.csv").write_text("".join(lines[: 1 + 36 * 3 + 5]))  # mid-way through a key's hours


def _swap_header(cell):
    text = (cell / "flows.csv").read_text()
    (cell / "flows.csv").write_text(text.replace("hour,from,to,", "hour,to,from,", 1))


def _edit_manifest(cell, edit):
    manifest = json.loads((cell / "manifest.json").read_text())
    edit(manifest)
    (cell / "manifest.json").write_text(json.dumps(manifest))


def _foreign_schema(cell):
    _edit_manifest(cell, lambda m: m.update(schema="other-result-v9"))


def _zero_window_hours(cell):
    _edit_manifest(cell, lambda m: m["scenario"].update(window_hours=0))


def _drop_scenario(cell):
    _edit_manifest(cell, lambda m: m.pop("scenario"))


def _drop_status(cell):
    _edit_manifest(cell, lambda m: m.pop("status"))


def _drop_year(cell):
    _edit_manifest(cell, lambda m: m.pop("year"))


def _drop_variant(cell):
    _edit_manifest(cell, lambda m: m["scenario"].pop("variant"))


def _text_year(cell):
    _edit_manifest(cell, lambda m: m.update(year=str(m["year"])))


def _drop_total_cost(cell):
    lines = (cell / "costs.csv").read_text().splitlines(keepends=True)
    (cell / "costs.csv").write_text("".join(line for line in lines if not line.startswith("total,")))


def _drop_electric_load(cell):
    lines = (cell / "dispatch.csv").read_text().splitlines(keepends=True)
    (cell / "dispatch.csv").write_text("".join(line for line in lines if ",DE,load,electric," not in line))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_truncate_dispatch, "dispatch.csv: each key must be one run of hours 0..35"),
        (_swap_header, "flows.csv: header 'hour,to,from,value_mw' is not 'hour,from,to,value_mw'"),
        (_foreign_schema, "manifest.json: not a heatgrid-result-v1 manifest"),
        (_zero_window_hours, "manifest.json: field scenario.window_hours is 0, not a positive integer"),
        (_drop_scenario, "manifest.json: field scenario is not a mapping"),
        (_drop_status, "manifest.json: no field status"),
        (_drop_year, "manifest.json: no field year"),
        (_drop_variant, "manifest.json: no field scenario.variant"),
        (_text_year, "manifest.json: field year is '2010', not int"),
        (_drop_total_cost, "costs.csv: no total row"),
        (_drop_electric_load, "dispatch.csv: no load,electric run for DE"),
    ],
)
def test_analyze_rejects_a_cell_not_in_the_saved_layout(run_dir, tmp_path, capsys, corrupt, message):
    import shutil

    results = tmp_path / "results"
    shutil.copytree(run_dir, results)
    corrupt(results / "base-hp25-ep2__y2010")
    code = main(["analyze", "--results", str(results), "--out", str(tmp_path / "a")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and err.count("\n") == 1
    assert f"base-hp25-ep2__y2010/{message}" in err
    assert not (tmp_path / "a").exists()


def test_analyze_key_needing_quotes_exits_one(run_dir, tmp_path, capsys):
    import shutil

    results = tmp_path / "results"
    shutil.copytree(run_dir, results)
    manifest_path = results / "base-hp00__y2009" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["scenario"]["name"] = "base,hp00"  # hand-edited: a field csv.writer would quote
    manifest_path.write_text(json.dumps(manifest))
    code = main(["analyze", "--results", str(results), "--out", str(tmp_path / "a")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]  # one line
    assert err.startswith("analysis error: rldc.csv: key ('base,hp00', 2009, 0, 0) would need CSV quoting")


def test_analyze_missing_results_exits_one(tmp_path, capsys):
    code = main(["analyze", "--results", str(tmp_path / "missing"), "--out", str(tmp_path / "a")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and err.count("\n") == 1 and "missing" in err


@pytest.mark.parametrize("top_n", ["-5", "0"])
def test_analyze_rejects_top_n_below_one(run_dir, tmp_path, capsys, top_n):
    out = tmp_path / "a"
    assert main(["analyze", "--results", str(run_dir), "--out", str(out), "--top-n", top_n]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"analysis error: --top-n {top_n} is below 1\n"
    assert captured.out == "" and not out.exists()


def test_analyze_delta_without_pair_exits_three(run_dir, tmp_path):
    # Copy only a heat-pump cell: no 0% baseline available.
    import shutil

    lonely = tmp_path / "lonely"
    lonely.mkdir()
    shutil.copytree(run_dir / "base-hp25-ep2__y2009", lonely / "base-hp25-ep2__y2009")
    code = main(["analyze", "--results", str(lonely), "--out", str(tmp_path / "a"), "--delta"])
    assert code == 3


def test_analyze_skips_failed_cells(tmp_path, capsys):
    from heatgrid.dataset import build_synth_dataset
    from heatgrid.scenarios import ScenarioSpec, run_matrix

    ds = build_synth_dataset(5, ["DE"], [2009], 30)
    good = ScenarioSpec("base-hp00", 0.0, None, "base", [2009], 30)
    bad = ScenarioSpec("base-hp00-long", 0.0, None, "base", [2009], 300)  # uncovered window
    out = tmp_path / "run"
    results = run_matrix(ds, [good, bad], out_dir=out)
    assert results[0].ok and not results[1].ok
    code = main(["analyze", "--results", str(out), "--out", str(tmp_path / "a")])
    assert code == 0
    assert "skipping 1 non-optimal" in capsys.readouterr().err


def test_a_cell_that_cannot_be_written_is_an_error_cell(tmp_path, capsys, monkeypatch):
    from heatgrid import scenarios
    from heatgrid.dataset import build_synth_dataset

    write = scenarios._write_cell_files

    def write_or_fail(result, cell_dir):
        if result.spec.name == "base-hp00":
            raise OSError(28, "No space left on device")
        write(result, cell_dir)

    monkeypatch.setattr(scenarios, "_write_cell_files", write_or_fail)
    ds = build_synth_dataset(5, ["DE"], [2009], 24)
    out = tmp_path / "run"
    results = scenarios.run_matrix(ds, scenarios.specs_for_selector("base", [2009], 24), out_dir=out)
    assert [r.status for r in results] == ["error", "optimal", "optimal"]
    assert results[0].error == "OSError: [Errno 28] No space left on device"
    assert "write_or_fail" in results[0].traceback
    assert sorted(cell.name for cell in out.iterdir()) == ["base-hp25-ep0__y2009", "base-hp25-ep2__y2009"]

    code = main(["run", "--synth-seed", "5", "--countries", "DE", "--hours", "24", "--out", str(tmp_path / "cli")])
    assert code == 2
    assert "base-hp00 year=2009 status=error error=OSError: [Errno 28]" in capsys.readouterr().out


def test_analysis_output_schema_golden(run_dir, tmp_path):
    # The emitted files carry exactly the documented column dictionaries.
    out = tmp_path / "schema"
    assert main(["analyze", "--results", str(run_dir), "--out", str(out)]) == 0
    headers = {
        "rldc.csv": "scenario,year,with_hp_load,rank,residual_mw",
        "peaks.csv": "scenario,year,quantity,country,hour,value_mw",
        "events.csv": "scenario,year,event_type,country,start_hour,end_hour,magnitude_mwh,normalized",
        "heat_daily.csv": "scenario,year,country,day,heat_output_mwh_th",
        "firm_delta.csv": "scenario,baseline,year,name,delta_mw",
    }
    for name, header in headers.items():
        first = (out / name).read_text().splitlines()[0]
        assert first == header, name
    costs = json.loads((out / "costs.json").read_text())
    base_keys = {
        "scenario", "year", "investment_eur", "fixed_om_eur", "variable_eur",
        "storage_marginal_eur", "total_eur", "objective_eur", "heat_supplied_mwh",
    }
    paired_keys = base_keys | {"baseline_total_eur", "delta_cost_eur", "heat_cost_eur_per_mwh"}
    for entry in costs:
        assert set(entry) in (base_keys, paired_keys), entry["scenario"]


def test_scenario_all_runs_every_variant(tmp_path):
    out = tmp_path / "all"
    code = main(
        [
            "run", "--synth-seed", "8", "--countries", "AT,DE", "--scenario", "all",
            "--years", "synth:1", "--hours", "24", "--out", str(out),
        ]
    )
    assert code == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(dirs) == 13  # 3 base + 5 variants x 2
    for variant in ("gas_free", "half_nuc", "no_coal", "no_ntc", "wind_cap"):
        assert f"{variant}-hp00__y2009" in dirs
        assert f"{variant}-hp25-ep2__y2009" in dirs
    # Variant manifests carry their variant name for downstream pairing.
    manifest = json.loads((out / "wind_cap-hp25-ep2__y2009" / "manifest.json").read_text())
    assert manifest["scenario"]["variant"] == "wind_cap"
