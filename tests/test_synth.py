import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import teams_of

from teamgaze import synth
from teamgaze.io_report import analyze_table, load_teams, read_frame_table
from teamgaze.jva import JvaConfig, team_jva_counts
from teamgaze.synth import SynthSpec, generate, moment_matched_groups


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
    assert report.teams.jva_ratio_pct.tolist() == pytest.approx([100.0] * 3)


def test_probability_zero_gives_no_jva(tmp_path):
    spec = SynthSpec(teams=3, frames_per_team=40, jva_probability=0.0, seed=1)
    report, _ = run_pipeline(tmp_path, spec)
    assert report.teams.jva_ratio_pct.tolist() == pytest.approx([0.0] * 3)


def test_zero_noise_recovers_ground_truth_exactly(tmp_path):
    spec = SynthSpec(teams=6, frames_per_team=155, jva_probability=0.4, seed=9)
    report, truth = run_pipeline(tmp_path, spec)
    for team_id, ratio in zip(report.teams.team_ids, report.teams.jva_ratio_pct.tolist()):
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
    for team_id, ratio in zip(report.teams.team_ids, report.teams.jva_ratio_pct.tolist()):
        assert ratio == pytest.approx(
            100.0 * truth["team_ratios"][team_id], abs=2.0
        )


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


@given(
    seed=st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32, 2**96 - 1, 2**96, 2**256]),
        st.integers(0, 2**256),
    ),
    indices=st.lists(
        st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=8,
    ),
)
@example(seed=0, indices=[0, 2**32 - 1])
@example(seed=2**128 - 1, indices=[1, 2, 3])
@settings(max_examples=200, deadline=None)
def test_team_keys_are_the_seed_sequence_philox_keys(seed, indices):
    expected = [
        np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
        for i in indices
    ]
    keys = synth._team_keys(seed, indices)
    assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
    assert keys.tolist() == np.array(expected).tolist()


def output_sha256(spec, out_dir):
    generate(spec, out_dir)
    return hashlib.sha256(b"".join(
        (out_dir / name).read_bytes()
        for name in ("frames.csv", "teams.csv", "ground_truth.json")
    )).hexdigest()


@pytest.mark.parametrize(
    "spec, digest",
    [
        # The README's study.
        (SynthSpec(teams=30, frames_per_team=155, seed=7,
                   jva_probability={"textbook": 0.31, "tablet": 0.47, "ar": 0.45}),
         "18d4f94288911ce191b06fa788d6dc205a6906a66d7c29986098fe5f5bce6eb1"),
        # Two blocks of teams, a three-word seed and Gaussian noise.
        (SynthSpec(teams=12000, frames_per_team=3, seed=2**64 + 5, gaze_noise_sigma=12.0),
         "4e3d0e393b02c6526c06a6c40c4aae0ceecc95991b7106bcba8d44d746eb902f"),
        # Two blocks, noise and 5-digit integer parts (an image 20,000 px wide).
        (SynthSpec(teams=70, frames_per_team=500, image_w=20000, image_h=600,
                   gaze_noise_sigma=33.3, seed=2**33 + 1),
         "7edd62232bed1e06c7c249c0864765277d97f95a003ba4fdb8791c718b48c3fc"),
        # Cohort-shaped: two blocks of teams, ids from team01 to team6000.
        (SynthSpec(teams=6000, frames_per_team=6, seed=5),
         "dad9b8fdd940312fe8ef4a3a3ca0f84e147cb44cc1de48cb39e71b9171bdea78"),
    ],
)
def test_output_bytes_are_pinned(tmp_path, spec, digest):
    # Each team's stream is Generator(Philox(SeedSequence(seed, spawn_key=(index,)))):
    # these digests were taken from a generator that built exactly that per team.
    assert output_sha256(spec, tmp_path) == digest


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
        (dict(teams=2**32 + 1), "teams must be at most 2**32: 4294967297"),
        (dict(gaze_noise_sigma=math.nan), "gaze_noise_sigma must be finite: nan"),
        (dict(gaze_noise_sigma=math.inf), "gaze_noise_sigma must be finite: inf"),
        (dict(jva_probability=math.nan), "jva_probability must lie in [0, 1]: nan"),
        (dict(jva_probability={"textbook": 0.2, "tablet": 1.5, "ar": 0.1}),
         "jva_probability['tablet'] must lie in [0, 1]: 1.5"),
        (dict(teams=3, jva_probability={"team01": 0.5}),
         "no jva_probability for team02 or its condition tablet"),
        (dict(teams=4, jva_probability={"team01": 0.5, "team03": 0.4, "tablet": 0.2}),
         "no jva_probability for team04 or its condition textbook"),
        (dict(teams=3, jva_probability={"textbook": 0.2, "tablet": 0.3, "ar": 0.1,
                                        "tema02": 0.3}),
         "jva_probability key 'tema02' is neither a condition (textbook, tablet, ar) "
         "nor a team id of this spec (team01..team03)"),
        (dict(teams=3, jva_probability={"textbook": 0.2, "tablet": 0.3, "ar": 0.1,
                                        "team04": 0.3}),
         "jva_probability key 'team04' is neither"),
        (dict(teams=3, jva_probability={"textbook": 0.2, "tablet": 0.3, "ar": 0.1,
                                        "team1": 0.3}),
         "jva_probability key 'team1' is neither"),
        (dict(teams=0), "teams must be positive: 0"),
        (dict(frames_per_team=0), "frames_per_team must be positive: 0"),
        (dict(image_w=0), "image_w must be positive: 0"),
        (dict(image_h=-1), "image_h must be positive: -1"),
        (dict(gaze_noise_sigma=-1.0), "gaze_noise_sigma must be non-negative: -1.0"),
    ],
)
def test_bad_spec_is_rejected_naming_its_field(kwargs, message):
    with pytest.raises(ValueError) as info:
        SynthSpec(**kwargs)
    assert str(info.value).startswith(message)


def test_team_id_probability_wins_over_or_stands_in_for_its_condition(tmp_path):
    # team02 is the only tablet team: its id covers it without a "tablet" key.
    spec = SynthSpec(teams=4, frames_per_team=50, seed=2,
                     jva_probability={"team01": 1.0, "team02": 1.0, "team03": 0.0,
                                      "textbook": 0.0, "ar": 1.0})
    assert synth._team_probabilities(spec).tolist() == [1.0, 1.0, 0.0, 0.0]
    _, _, truth_path = generate(spec, tmp_path)
    truth = json.loads(truth_path.read_text())
    assert truth["team_ratios"] == {"team01": 1.0, "team02": 1.0, "team03": 0.0, "team04": 0.0}


def test_moment_matching_is_exact():
    samples = moment_matched_groups([(10, 31.30, 9.73), (4, 0.0, 1.0), (5, 2.5, 0.0)])
    a, b, c = samples
    assert np.mean(a) == pytest.approx(31.30, abs=1e-9)
    assert np.std(a, ddof=1) == pytest.approx(9.73, abs=1e-9)
    assert np.mean(b) == pytest.approx(0.0, abs=1e-12)
    assert np.std(b, ddof=1) == pytest.approx(1.0, abs=1e-12)
    assert np.all(c == 2.5)


def test_moment_matching_rejects_bad_specs():
    with pytest.raises(ValueError):
        moment_matched_groups([(1, 0.0, 1.0)])
    with pytest.raises(ValueError):
        moment_matched_groups([(5, 0.0, -1.0)])
