import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_synth, teams_of

from teamgaze import synth
from teamgaze.frame_table import analyze_table, read_frame_table
from teamgaze.io_report import load_teams
from teamgaze.jva import team_jva_counts
from teamgaze.model import JvaConfig
from teamgaze.synth import SynthSpec, generate


def run_pipeline(tmp_path, spec):
    frames_path, teams_path, truth_path = generate(spec, tmp_path)
    table = read_frame_table(frames_path)
    assert table.row_errors == []
    teams = load_teams(teams_path)
    report = analyze_table(table, teams, JvaConfig())
    return report, json.loads(truth_path.read_text())


def test_probability_one_gives_full_jva(tmp_path):
    spec = SynthSpec(teams=3, frames_per_team=40, jva_probability=1.0, seed=1)
    report, _ = run_pipeline(tmp_path, spec)
    assert report.teams.jva_ratio_pct == pytest.approx([100.0] * 3)


def test_probability_zero_gives_no_jva(tmp_path):
    spec = SynthSpec(teams=3, frames_per_team=40, jva_probability=0.0, seed=1)
    report, _ = run_pipeline(tmp_path, spec)
    assert report.teams.jva_ratio_pct == pytest.approx([0.0] * 3)


def test_zero_noise_recovers_ground_truth_exactly(tmp_path):
    spec = SynthSpec(teams=6, frames_per_team=155, jva_probability=0.4, seed=9)
    report, truth = run_pipeline(tmp_path, spec)
    for team_id, ratio in zip(report.teams.team_ids, report.teams.jva_ratio_pct):
        assert ratio == pytest.approx(
            100.0 * truth["team_ratios"][team_id], abs=1e-12
        )


def test_long_session_ratio_concentrates_near_probability(tmp_path):
    spec = SynthSpec(teams=1, frames_per_team=10000, jva_probability=0.313, seed=4)
    _, truth = run_pipeline(tmp_path, spec)
    assert truth["team_ratios"]["team01"] == pytest.approx(0.313, abs=0.015)


def test_generation_deterministic_per_seed(tmp_path):
    spec = SynthSpec(teams=4, frames_per_team=30, jva_probability=0.5, seed=77,
                     gaze_noise_sigma=12.0)
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(spec, a)
    generate(spec, b)
    for name in ("frames.csv", "teams.csv", "ground_truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seeds_differ(tmp_path):
    base = dict(teams=2, frames_per_team=30, jva_probability=0.5)
    generate(SynthSpec(seed=1, **base), tmp_path / "a")
    generate(SynthSpec(seed=2, **base), tmp_path / "b")
    assert (tmp_path / "a" / "frames.csv").read_bytes() != (
        tmp_path / "b" / "frames.csv"
    ).read_bytes()


def test_per_condition_probabilities(tmp_path):
    spec = SynthSpec(
        teams=6,
        frames_per_team=300,
        jva_probability={"textbook": 0.1, "tablet": 0.9, "ar": 0.5},
        seed=3,
    )
    report, _ = run_pipeline(tmp_path, spec)
    by_condition = {}
    for team in teams_of(report.teams):
        by_condition.setdefault(team.condition, []).append(team.jva_ratio_pct)
    assert np.mean(by_condition["textbook"]) < 20
    assert np.mean(by_condition["tablet"]) > 80


def test_ground_truth_sidecar_is_valid_json(tmp_path):
    spec = SynthSpec(teams=2, frames_per_team=10, jva_probability=0.5, seed=0)
    _, _, truth_path = generate(spec, tmp_path)
    payload = json.loads(truth_path.read_text())
    assert set(payload["team_ratios"]) == {"team01", "team02"}
    assert payload["team_ratios"]["team01"] == sum(payload["frame_labels"]["team01"]) / 10


def test_generate_returns_the_three_paths(tmp_path):
    paths = generate(SynthSpec(teams=2, frames_per_team=3), tmp_path)
    assert paths == tuple(tmp_path / name for name in ("frames.csv", "teams.csv",
                                                       "ground_truth.json"))


def test_noise_with_separation_margin_keeps_labels(tmp_path):
    # sigma = threshold/5 is inside the documented margin; every frame's
    # pipeline label must equal the generated label
    spec = SynthSpec(
        teams=2, frames_per_team=500, jva_probability=0.5, seed=21,
        gaze_noise_sigma=20.0,
    )
    report, truth = run_pipeline(tmp_path, spec)
    for team_id, ratio in zip(report.teams.team_ids, report.teams.jva_ratio_pct):
        assert ratio == pytest.approx(
            100.0 * truth["team_ratios"][team_id], abs=2.0
        )


def test_an_overflowing_noise_sigma_puts_every_point_on_the_image_border(tmp_path):
    # sigma * noise overflows to +-inf, which the clip maps to the border
    # without a RuntimeWarning (an error under pytest).
    spec = SynthSpec(teams=3, frames_per_team=20, image_w=1280, image_h=720, seed=4,
                     gaze_noise_sigma=1e308)
    generate(spec, tmp_path)
    for name, data in zip(("frames.csv", "teams.csv", "ground_truth.json"),
                          reference_synth(spec)):
        assert (tmp_path / name).read_bytes() == data, name
    table = read_frame_table(tmp_path / "frames.csv")
    assert table.row_errors == []
    assert set(table.gaze_x.tolist()) <= {0.0, 1280.0}
    assert set(table.gaze_y.tolist()) <= {0.0, 720.0}


def team_lines(path, team):
    return [line for line in path.read_text().splitlines() if line.startswith(team + ",")]


@pytest.mark.parametrize("sigma", [0.0, 12.0])
@pytest.mark.parametrize("block_rows", [1, 2 * 2 * 30])  # one, two teams per block
def test_team_rows_do_not_depend_on_team_count_or_block_size(
    tmp_path, monkeypatch, sigma, block_rows
):
    base = dict(frames_per_team=30, jva_probability=0.5, seed=77, gaze_noise_sigma=sigma)
    generate(SynthSpec(teams=5, **base), tmp_path / "five")
    generate(SynthSpec(teams=9, **base), tmp_path / "nine")
    monkeypatch.setattr(synth, "_BLOCK_ROWS", block_rows)
    generate(SynthSpec(teams=9, **base), tmp_path / "blocks")
    for name in ("frames.csv", "teams.csv", "ground_truth.json"):
        assert (tmp_path / "nine" / name).read_bytes() == (
            tmp_path / "blocks" / name
        ).read_bytes()
    for name in ("frames.csv", "teams.csv"):
        five = team_lines(tmp_path / "five" / name, "team05")
        assert five == team_lines(tmp_path / "nine" / name, "team05")
        assert len(five) == (60 if name == "frames.csv" else 1)
    labels = [
        json.loads((tmp_path / d / "ground_truth.json").read_text())["frame_labels"]
        for d in ("five", "nine")
    ]
    assert labels[0]["team05"] == labels[1]["team05"]


@pytest.mark.parametrize(
    "teams, frames, w, h, p",
    [
        (30, 155, 2560, 1440, 0.4),
        # The smallest image allowed: partner points reflect at both borders.
        (6, 300, 600, 600, 0.3),
        (6, 300, 2000, 600, {"textbook": 0.0, "tablet": 0.5, "ar": 1.0}),
    ],
)
def test_zero_noise_recovers_every_frame_label(tmp_path, teams, frames, w, h, p):
    spec = SynthSpec(teams=teams, frames_per_team=frames, image_w=w, image_h=h,
                     jva_probability=p, seed=5)
    frames_path, _, truth_path = generate(spec, tmp_path)
    truth = json.loads(truth_path.read_text())
    table = read_frame_table(frames_path)
    assert table.row_errors == []
    names = [f"team{i + 1:02d}" for i in range(teams)]
    assert [table.team_ids[t] for t in table.frame_team.tolist()] == [
        name for name in names for _ in range(frames)
    ]
    assert table.frame_ids == [f"f{i:05d}" for i in range(frames)] * teams
    # Each frame scored as its own team: the program's per-frame decision.
    n = len(table.frame_ids)
    jva, counted = team_jva_counts(
        np.arange(n), n, table.width, table.height, table.discarded,
        table.row_offsets, table.gaze_x, table.gaze_y,
        JvaConfig(),
    )
    assert counted.tolist() == [1] * n
    assert jva.tolist() == [v for name in names for v in truth["frame_labels"][name]]
    for i, name in enumerate(names):
        assert truth["team_ratios"][name] == jva[i * frames:(i + 1) * frames].sum() / frames


@pytest.mark.parametrize("w, h", [(400, 300), (599, 1440), (2560, 599)])
def test_image_smaller_than_two_separations_rejected(w, h):
    with pytest.raises(ValueError, match=f"image {w}x{h} too small"):
        SynthSpec(image_w=w, image_h=h)


def test_image_of_two_separations_accepted():
    SynthSpec(image_w=600, image_h=600)


@pytest.mark.parametrize(
    "spec, digest",
    [
        # The README's study.
        (SynthSpec(teams=30, frames_per_team=155, seed=7,
                   jva_probability={"textbook": 0.31, "tablet": 0.47, "ar": 0.45}),
         "66c24d5e947f99205881ca95ae15a96d0ff77c84956767e5c49d964b62ac8997"),
        # Two blocks of teams, a three-word seed and Gaussian noise.
        (SynthSpec(teams=12000, frames_per_team=3, seed=2**64 + 5, gaze_noise_sigma=12.0),
         "62f63d9af603fd1fd0d7c017e883b7e59b920b22897c68c3d7f2bb49c608823e"),
        # Two blocks, noise and 5-digit integer parts (an image 20,000 px wide).
        (SynthSpec(teams=70, frames_per_team=500, image_w=20000, image_h=600,
                   gaze_noise_sigma=33.3, seed=2**33 + 1),
         "af188cacc25a0796ad43b22bdbbbb7287c8b46c27122a566fcbd0e1a0ea2d9bb"),
        # Cohort-shaped: two blocks of teams, ids from team01 to team6000.
        (SynthSpec(teams=6000, frames_per_team=6, seed=5),
         "cfe19a58ddf9120c48910b2c30041b7733aebf103d2edbbba7534fc7a2a01f61"),
        # Text probabilities, noise, and partner points reflected at the
        # borders of the smallest image.
        (SynthSpec(teams=7, frames_per_team=40, image_w=600, image_h=601, seed=11,
                   gaze_noise_sigma=40.0,
                   jva_probability={"textbook": "0.3", "tablet": "1", "ar": 0.0}),
         "dd6c346b15dbc6c2f5b6a9825716f96ecb8c3fd53706121e4c3aea7e2c5013d5"),
    ],
)
def test_output_bytes_are_pinned(tmp_path, spec, digest):
    # The digests were taken from oracles.reference_synth, which draws the two
    # documented streams one team at a time.
    expected = reference_synth(spec)
    assert hashlib.sha256(b"".join(expected)).hexdigest() == digest
    generate(spec, tmp_path)
    for name, data in zip(("frames.csv", "teams.csv", "ground_truth.json"), expected):
        assert (tmp_path / name).read_bytes() == data, name


def test_team_count_has_no_upper_bound():
    # Constructed only: a study this large is never generated here.
    assert SynthSpec(teams=2**32 + 1).teams == 2**32 + 1


@pytest.mark.parametrize(
    "spec, block_rows",
    [
        (SynthSpec(teams=1, frames_per_team=1, seed=1), None),
        # team100 and team101 sort before team11.
        (SynthSpec(teams=101, frames_per_team=7, seed=2), None),
        (SynthSpec(teams=5, frames_per_team=9, jva_probability=1.0, seed=3), None),
        (SynthSpec(teams=5, frames_per_team=9, jva_probability=0.0, seed=3), None),
        (SynthSpec(teams=12000, frames_per_team=3, seed=2**64 + 5, gaze_noise_sigma=12.0),
         None),
        # One team per block.
        (SynthSpec(teams=12, frames_per_team=11, seed=4), 1),
    ],
)
def test_ground_truth_file_is_the_json_dumps_of_the_truth(tmp_path, monkeypatch, spec,
                                                         block_rows):
    if block_rows:
        monkeypatch.setattr(synth, "_BLOCK_ROWS", block_rows)
    _, _, truth_path = generate(spec, tmp_path)
    data = truth_path.read_bytes()
    truth = json.loads(data)
    assert data == json.dumps(truth, sort_keys=True, separators=(",", ":")).encode()
    names = {f"team{i + 1:02d}" for i in range(spec.teams)}
    assert set(truth["frame_labels"]) == set(truth["team_ratios"]) == names
    for name, labels in truth["frame_labels"].items():
        assert len(labels) == spec.frames_per_team and set(labels) <= {0, 1}
        assert truth["team_ratios"][name] == sum(labels) / len(labels)


def with_neighbours(values):
    return [
        w for v in values
        for w in (np.nextafter(v, 0.0), v, np.nextafter(v, math.inf))
        if math.isfinite(w)
    ]


@given(values=st.lists(
    st.one_of(
        st.floats(0.0, 2e5),
        # Halves between two fourth decimals: each v = (m + 0.5) / 1e4 is a
        # near-tie, and the representable ones (odd multiples of 1/32) are
        # exact ties.
        st.integers(0, 2 * 10**9).map(lambda m: (m + 0.5) / 1e4),
        st.integers(0, 2**40).map(lambda j: (2 * j + 1) / 32),
        st.sampled_from([0.0, 5e-324, 9999.99995, 1e4, 1e8, 2.0**52 / 1e4, 2.0**63]),
        st.floats(1e4, 1e12),
        st.floats(1e8, 1e308),
    ),
    min_size=1, max_size=20,
).map(with_neighbours))
@example(values=[0.0, 5e-324, 9999.99995, 0.00005, 0.03125, 1e4, 1e8, 123456789.98765])
@settings(max_examples=300, deadline=None)
def test_value_text_is_percent_4f(values):
    expected = [("%.4f" % v).encode() for v in values]
    text = synth._value_text(np.array(values))
    assert [row.tobytes().replace(b"\0", b"") for row in text] == expected
    # Alone, each value sets its own group count and near-tie bound.
    assert [
        synth._value_text(np.array([v]))[0].tobytes().replace(b"\0", b"") for v in values
    ] == expected


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(seed=-1), "seed must be a non-negative integer: -1"),
        (dict(seed=1.5), "seed must be a non-negative integer: 1.5"),
        (dict(seed="7"), "seed must be a non-negative integer: '7'"),
        (dict(gaze_noise_sigma=math.nan), "gaze_noise_sigma must be finite: nan"),
        (dict(gaze_noise_sigma=math.inf), "gaze_noise_sigma must be finite: inf"),
        (dict(jva_probability=math.nan), "jva_probability must lie in [0, 1]: nan"),
        (dict(jva_probability={"textbook": 0.2, "tablet": 1.5, "ar": 0.1}),
         "jva_probability['tablet'] must lie in [0, 1]: 1.5"),
        (dict(jva_probability={"textbook": 0.5}),
         "jva_probability is missing a condition: 'tablet'"),
        # Every condition is needed, whether or not a team takes it.
        (dict(teams=1, jva_probability={"textbook": 0.5, "tablet": 0.2}),
         "jva_probability is missing a condition: 'ar'"),
        (dict(jva_probability={"textbook": 0.2, "tablet": 0.3, "ar": 0.1, "tema02": 0.3}),
         "jva_probability key is not a condition (textbook, tablet, ar): 'tema02'"),
        (dict(jva_probability={"textbook": 0.2, "tablet": 0.3, "ar": 0.1, "team01": 0.3}),
         "jva_probability key is not a condition (textbook, tablet, ar): 'team01'"),
        # Key by key, its value first, then the conditions no key names.
        (dict(jva_probability={"team01": 1.5, "textbook": 0.2}),
         "jva_probability['team01'] must lie in [0, 1]: 1.5"),
        (dict(jva_probability={"Tablet": 0.3, "ar": "x"}),
         "jva_probability key is not a condition (textbook, tablet, ar): 'Tablet'"),
        (dict(teams=0), "teams must be positive: 0"),
        (dict(frames_per_team=0), "frames_per_team must be positive: 0"),
        (dict(image_w=0), "image_w must be positive: 0"),
        (dict(image_h=-1), "image_h must be positive: -1"),
        (dict(teams=2.0), "teams must be an integer: 2.0"),
        (dict(frames_per_team=3.0), "frames_per_team must be an integer: 3.0"),
        (dict(image_w=700.9), "image_w must be an integer: 700.9"),
        (dict(image_h="720"), "image_h must be an integer: '720'"),
        # bool is a subclass of int, but no count.
        (dict(teams=True), "teams must be an integer: True"),
        (dict(frames_per_team=True), "frames_per_team must be an integer: True"),
        (dict(image_w=True), "image_w must be an integer: True"),
        (dict(image_h=False), "image_h must be an integer: False"),
        (dict(seed=False), "seed must be a non-negative integer: False"),
        (dict(gaze_noise_sigma=-1.0), "gaze_noise_sigma must be non-negative: -1.0"),
    ],
)
def test_bad_spec_is_rejected_naming_its_field(kwargs, message):
    with pytest.raises(ValueError) as info:
        SynthSpec(**kwargs)
    assert str(info.value).startswith(message)
