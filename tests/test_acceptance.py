"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Criteria 6-10 rest on real desk-scale training: a teacher plus 43 student
runs. Those runs happen once, into a cache directory, together with their
measured wall times. The cache that the committed code produces is
committed with it (tests/acceptance_cache/<fingerprint>/), so a clean
checkout replays it. The fingerprint hashes the experiment config, the seeds
and the bytes of src/condkd/*.py. Runs replay the recorded results only from
a manifest that `valid_manifest` accepts: its fingerprint matches, and
teacher.ckpt, every run's checkpoint and metrics.csv exist and match the
sha256 the manifest records. Without CONDKD_CACHE, anything else (any edit
under src/condkd, a deleted or altered file) makes the `cache` fixture fail
at once with the fingerprint and the rebuild command, and
`test_committed_cache_matches_code` fails too; nothing trains. With
CONDKD_CACHE=<dir>, the fixture replays a valid <dir>/<fingerprint>/ or
clears and rebuilds it there; commit the rebuilt directory with the code
change that caused it. A rebuild is paid once per code change; the
last one from empty took 11.0 min for this file on a 2-vCPU box (teacher 30 s,
c06 students 208 s, attention sweep 365 s, head sweep 43 s). On the same
machine a rebuild reproduces checkpoints and metrics.csv bit for bit, and a
from-empty rebuild for a change that leaves the arithmetic untouched
reproduces all 45 files of the cache it replaces. All other criteria, and
c09's reduced-iteration rerun, recompute from scratch on every run."""

import dataclasses
import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from condkd import tensor as T
from condkd import train as tr
from condkd import verify
from condkd.checkpoint import load_checkpoint, save_checkpoint
from condkd.config import ATTENTION_VARIANTS, ExperimentConfig
from condkd.heatmap import export_attention
from condkd.instances import DatasetStats, build_conditions, sample_fakes
from condkd.losses import _ZERO_CELLS, distill_loss
from condkd.pyramid import flatten_pyramid
from condkd.verify import mini_config

from helpers import condition_center, pixel_instance, read_pgm, regression_targets

SEEDS = (0, 1, 2, 3, 4)

# Reference values measured on the seeded desk-scale run this suite repeats;
# determinism pins them exactly, the tolerance only absorbs future retuning.
TEACHER_AP_PIN = 0.7556598739095057
TEACHER_AP_TOL = 0.05


def _line(n: int, ok: bool, detail: str) -> None:
    verdict = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(verdict)
    assert ok, verdict


# -- shared desk-scale runs ----------------------------------------------------


CODE_DIR = Path(tr.__file__).resolve().parent
# committed: a clean checkout replays the runs its own code produced
CACHE_DIR = Path(__file__).resolve().parent / "acceptance_cache"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _code_hash(code_dir: Path = CODE_DIR) -> str:
    h = hashlib.sha256()
    for path in sorted(code_dir.glob("*.py")):
        h.update(f"{path.name}\0{_sha256(path)}\n".encode())
    return h.hexdigest()


def _fingerprint(cfg: ExperimentConfig) -> str:
    payload = dataclasses.asdict(cfg) | {"seeds": list(SEEDS), "code": _code_hash()}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _named_files(manifest: dict) -> set[str]:
    """Every file under the cache root that the manifest's results rest on."""
    names = {manifest["teacher"]["checkpoint"], "metrics.csv"}
    names.update(run["checkpoint"] for run in manifest["runs"].values())
    return names


def _write_manifest(root: Path, manifest: dict) -> dict:
    """Record a sha256 for every named file, then write manifest.json last,
    so an interrupted build leaves no manifest behind."""
    manifest = manifest | {"digests": {name: _sha256(root / name)
                                       for name in sorted(_named_files(manifest))}}
    with open(root / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def valid_manifest(root: Path, fingerprint: str) -> dict | None:
    """The manifest under `root` if it may be replayed, else None.

    Valid means: it parses, its fingerprint equals `fingerprint`, it records
    a digest for exactly the files it names, and each of those files exists
    and matches its digest."""
    try:
        manifest = json.loads((root / "manifest.json").read_text())
        if manifest["fingerprint"] != fingerprint:
            return None
        digests = manifest["digests"]
        if set(digests) != _named_files(manifest):
            return None
        for name, digest in digests.items():
            path = root / name
            if not path.is_file() or _sha256(path) != digest:
                return None
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return manifest


def _build_cache(cfg: ExperimentConfig, root: Path) -> dict:
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    t0 = time.perf_counter()
    teacher = tr.train_teacher(cfg, str(root))
    teacher_seconds = time.perf_counter() - t0
    state = load_checkpoint(teacher.checkpoint)

    runs: dict[str, dict] = {}

    def record(result, seconds=None):
        runs[result.name] = {"ap": result.toy_ap, "seconds": seconds,
                             "checkpoint": os.path.basename(result.checkpoint)}

    for s in SEEDS:
        for name, rcfg in (
                (f"base-s{s}", dataclasses.replace(cfg, seed=s, lam=0.0)),
                (f"ours-s{s}", dataclasses.replace(cfg, seed=s, inherit=True)),
                (f"ourst-s{s}", dataclasses.replace(cfg, seed=s))):
            t0 = time.perf_counter()
            record(tr.distill_student(rcfg, state, str(root), name),
                   time.perf_counter() - t0)

    t0 = time.perf_counter()
    for result in tr.ablate_attention(cfg, state, str(root), seeds=SEEDS):
        record(result)
    attn_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for result in tr.sweep(cfg, state, str(root), *tr.ABLATIONS["heads"], (0,)):
        record(result)
    heads_seconds = time.perf_counter() - t0

    return _write_manifest(root, {
        "fingerprint": _fingerprint(cfg),
        "teacher": {"ap": teacher.toy_ap, "seconds": teacher_seconds,
                    "checkpoint": "teacher.ckpt"},
        "runs": runs,
        "attn_seconds": attn_seconds,
        "heads_seconds": heads_seconds,
    })


def _rebuild_hint(fp: str) -> str:
    return (f"no valid cache for fingerprint {fp} under {CACHE_DIR}: rebuild it with "
            "`CONDKD_CACHE=<empty dir> PYTHONPATH=src python -m pytest tests/test_acceptance.py`, "
            f"then `git rm -r tests/{CACHE_DIR.name}`, `mkdir -p tests/{CACHE_DIR.name}` "
            f"and copy <empty dir>/{fp}/ into it")


@pytest.fixture(scope="session")
def cache():
    """The committed cache, replayed; a stale one fails at once. Only with
    CONDKD_CACHE set does a missing or invalid cache get rebuilt, there."""
    cfg = ExperimentConfig()
    fp = _fingerprint(cfg)
    base = os.environ.get("CONDKD_CACHE")
    root = Path(base or CACHE_DIR) / fp
    manifest = valid_manifest(root, fp)
    if manifest is None:
        if base is None:
            pytest.fail(_rebuild_hint(fp))
        manifest = _build_cache(cfg, root)
    return SimpleNamespace(cfg=cfg, root=root, man=manifest)


# -- cache validity ------------------------------------------------------------


def _tiny_cache(root: Path) -> dict:
    root.mkdir()
    for name, blob in (("teacher.ckpt", b"T"), ("a.ckpt", b"A"), ("b.ckpt", b"B"),
                       ("metrics.csv", b"run,iter\n")):
        (root / name).write_bytes(blob)
    return _write_manifest(root, {
        "fingerprint": "f00",
        "teacher": {"ap": 0.5, "seconds": 1.0, "checkpoint": "teacher.ckpt"},
        "runs": {"a": {"ap": 0.4, "seconds": 1.0, "checkpoint": "a.ckpt"},
                 "b": {"ap": 0.3, "seconds": None, "checkpoint": "b.ckpt"}},
        "attn_seconds": 1.0, "heads_seconds": 1.0,
    })


def _flip_first_byte(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[0] ^= 1
    path.write_bytes(bytes(blob))


def _drop_digests(root: Path) -> None:
    man = json.loads((root / "manifest.json").read_text())
    del man["digests"]
    (root / "manifest.json").write_text(json.dumps(man))


def test_cache_intact_manifest_is_replayed(tmp_path):
    written = _tiny_cache(tmp_path / "c")
    assert valid_manifest(tmp_path / "c", "f00") == written
    assert set(written["digests"]) == {"teacher.ckpt", "a.ckpt", "b.ckpt", "metrics.csv"}


@pytest.mark.parametrize("fingerprint, damage", [
    ("f00", lambda root: (root / "b.ckpt").unlink()),
    ("f00", lambda root: (root / "teacher.ckpt").unlink()),
    ("f00", lambda root: _flip_first_byte(root / "a.ckpt")),
    ("f00", lambda root: _flip_first_byte(root / "metrics.csv")),
    ("f01", lambda root: None),
    ("f00", _drop_digests),
    ("f00", lambda root: (root / "manifest.json").write_text("{")),
    ("f00", lambda root: (root / "manifest.json").unlink()),
], ids=["missing-run-ckpt", "missing-teacher", "altered-ckpt-byte",
        "altered-metrics", "other-fingerprint", "no-digests", "torn-manifest",
        "no-manifest"])
def test_cache_damaged_manifest_is_rebuilt(tmp_path, fingerprint, damage):
    _tiny_cache(tmp_path / "c")
    damage(tmp_path / "c")
    assert valid_manifest(tmp_path / "c", fingerprint) is None


def test_fingerprint_covers_code_bytes(tmp_path):
    for name, text in (("a.py", "x = 1\n"), ("b.py", "y = 2\n")):
        (tmp_path / name).write_text(text)
    before = _code_hash(tmp_path)
    (tmp_path / "b.py").write_text("y = 3\n")
    assert _code_hash(tmp_path) != before
    assert _code_hash() == _code_hash(CODE_DIR) != before


def test_committed_cache_matches_code():
    """Fails at once when the committed cache is stale for the current code
    or config, with the command that rebuilds it; the `cache` fixture then
    fails the cache-backed criteria the same way instead of retraining."""
    fp = _fingerprint(ExperimentConfig())
    assert valid_manifest(CACHE_DIR / fp, fp) is not None, _rebuild_hint(fp)


def _mean_ap(man: dict, prefix: str) -> float:
    vals = [r["ap"] for name, r in man["runs"].items() if name.startswith(prefix)]
    assert len(vals) == len(SEEDS), f"expected {len(SEEDS)} runs for {prefix}"
    return float(np.mean(vals))


def _final_csv_rows(cache) -> dict[str, list[str]]:
    final_iter = str(cache.cfg.student_iters)
    rows: dict[str, list[str]] = {}
    with open(cache.root / "metrics.csv") as f:
        for line in f.read().splitlines()[1:]:
            cells = line.split(",")
            if cells[1] == final_iter and cells[6]:
                rows.setdefault(cells[0], []).append(line)
    return rows


# -- criteria ------------------------------------------------------------------


def test_c01_gradient_correctness_vs_finite_differences():
    t0 = time.perf_counter()
    ops = verify.gradcheck_ops(seed=0, tol=1e-4)
    composed = verify.gradcheck_composed(seed=0, tol=1e-4)
    dt = time.perf_counter() - t0
    ok = ops.passed and composed.passed and dt < 60.0
    _line(1, ok, f"ops worst={ops.worst:.2e} over {len(ops.entries)} cases, "
                 f"composed worst={composed.worst:.2e} over {len(composed.entries)} "
                 f"tensors (tol 1e-4), {dt:.1f}s < 60s")


def test_c02_gradient_routing_audit_and_mutation():
    t0 = time.perf_counter()
    good = verify.routing_audit(seed=0)
    mutated = verify.routing_audit(seed=0, mutated=True)
    dt = time.perf_counter() - t0
    zeros_exact = all(good.cells[c] == 0.0 for c in _ZERO_CELLS)
    ok = (good.passed and zeros_exact and not mutated.passed
          and len(mutated.violations) > 0 and dt < 30.0)
    _line(2, ok, f"9-cell audit passed={good.passed} with {len(_ZERO_CELLS)} "
                 f"exactly-zero cells, mutation leaks {len(mutated.violations)} "
                 f"params, {dt:.1f}s < 30s")


def test_c03_attention_masks_are_probability_rows():
    combos = [(1, 1, 8), (2, 1, 8), (4, 1, 8), (2, 2, 8),
              (4, 1, 16), (8, 1, 16), (2, 3, 8), (4, 2, 16)]
    worst_dev, worst_neg, rows = 0.0, 0.0, 0
    for i in range(1000):
        heads, depth, dim = combos[i % len(combos)]
        cfg = mini_config(seed=i, heads=heads, depth=depth, feat_dim=dim)
        sys_ = tr.build_system(cfg)
        scene = tr.train_scene(cfg, 0)
        _, _, _, k = tr.decode_conditions(cfg, sys_, scene.image, scene.instances,
                                          np.random.default_rng((i, 99)))
        m = k.masks.data
        worst_dev = max(worst_dev, float(np.abs(m.sum(axis=-1) - 1.0).max()))
        worst_neg = min(worst_neg, float(m.min()))
        rows += m.shape[0] * m.shape[1]
    ok = worst_dev < 1e-6 and worst_neg >= 0.0
    _line(3, ok, f"1000 configurations, {rows} mask rows: max |sum-1|="
                 f"{worst_dev:.2e} < 1e-6, min entry={worst_neg:.2e} >= 0")


def test_c04_loss_identities():
    cfg = mini_config(seed=5)
    sys_ = tr.build_system(cfg)
    scene = tr.train_scene(cfg, 0)
    cset, flat, _, k = tr.decode_conditions(cfg, sys_, scene.image, scene.instances,
                                            np.random.default_rng(5))

    # equal features: student values are the teacher values
    twins = T.constant(k.values.data.copy())
    zero = distill_loss(k, twins, cset.flags).item()

    # uniform masks against the hand-reduced mean-over-positions formula
    s_flat = flatten_pyramid(sys_.student.backbone_forward(scene.image), cfg.image_size,
                             cfg.pos_dim)
    s_values = sys_.decoder.student_values(s_flat, detach_weights=True)
    uni = tr.substitute_masks(k, "none", flat, scene.instances, len(cset.flags))
    got = distill_loss(uni, s_values, cset.flags).item()

    def norm(x):
        mu = x.mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)

    want = np.mean([((norm(s) - norm(t)) ** 2).mean(axis=-1).mean()
                    for s, t in zip(np.split(s_values.data, k.num_heads, axis=-1),
                                    np.split(k.values.data, k.num_heads, axis=-1))])
    uniform_dev = abs(got - want)

    # ltrb identity on pixel-aligned boxes with jittered reference centers
    rng = np.random.default_rng(77)
    spec = ExperimentConfig().encoder_spec()
    exact = 0
    for _ in range(1000):
        x1, y1 = rng.integers(0, 60, size=2)
        w, h = rng.integers(1, 64 - max(x1, y1), size=2)
        inst = pixel_instance(int(rng.integers(0, 3)), int(x1), int(y1),
                              int(x1 + w), int(y1 + h), image=64)
        left, top, right, bottom = regression_targets(
            inst, condition_center(inst, spec, rng))
        exact += (left + right == inst.w) and (top + bottom == inst.h)
    ok = zero == 0.0 and uniform_dev < 1e-10 and exact == 1000
    _line(4, ok, f"distill(equal features)={zero} exactly, uniform-mask formula "
                 f"dev={uniform_dev:.1e} < 1e-10, l+r=w and t+b=h exact on "
                 f"{exact}/1000 boxes")


def test_c05_condition_sampling_statistics():
    cfg = ExperimentConfig()
    stats = tr.dataset_stats(cfg)
    rng = np.random.default_rng(11)
    ratio_ok = True
    for i in range(20):
        reals = tr.train_scene(cfg, i).instances
        conds = build_conditions(reals, stats, cfg.fake_ratio, rng)
        fakes = [c for c in conds if not c.is_real]
        ratio_ok &= len(fakes) == cfg.fake_ratio * len(reals)
        ratio_ok &= len(conds) == (1 + cfg.fake_ratio) * len(reals)

    # size recovery on a canvas large enough (boxes ~0.5% of the extent) that
    # the mandated border clipping of uniform-centered boxes stays rare; at
    # desk geometry clipping alone inflates the sample std past the 5% budget
    gen = DatasetStats(class_freq=np.array([1.0, 1.0, 1.0]),
                       mean_w=np.array([18.0, 12.0, 26.0]),
                       std_w=np.array([3.0, 2.0, 4.0]),
                       mean_h=np.array([18.0, 12.0, 26.0]),
                       std_h=np.array([3.0, 2.0, 4.0]),
                       image_w=4096, image_h=4096)
    fakes = sample_fakes(gen, 2000, 5, np.random.default_rng(13))
    assert len(fakes) == 10000
    size_ok, worst_rel = True, 0.0
    for c in range(3):
        widths = np.array([f.w_px for f in fakes if f.category == c])
        for got, want in ((widths.mean(), gen.mean_w[c]), (widths.std(ddof=1), gen.std_w[c])):
            rel = abs(got - want) / want
            worst_rel = max(worst_rel, rel)
            size_ok &= rel < 0.05

    spec = cfg.encoder_spec()
    jit_ok = True
    jrng = np.random.default_rng(17)
    for _ in range(10000):
        x1, y1 = jrng.integers(0, 60, size=2)
        w, h = jrng.integers(1, 64 - max(x1, y1), size=2)
        inst = pixel_instance(0, int(x1), int(y1), int(x1 + w), int(y1 + h), image=64)
        cx, cy = condition_center(inst, spec, jrng)
        jit_ok &= abs(cx - inst.x) <= 0.3 * inst.w + 1e-12
        jit_ok &= abs(cy - inst.y) <= 0.3 * inst.h + 1e-12
    ok = ratio_ok and size_ok and jit_ok
    _line(5, ok, f"fake:real exactly {cfg.fake_ratio}:1 on 20 scenes, fake sizes "
                 f"within {worst_rel:.1%} of generating stats (<5%) at 10^4, "
                 f"jitter bound |d| <= 0.3*size held on 10^4 draws")


def test_c06_desk_scale_distillation_benefit(cache):
    man = cache.man
    base = _mean_ap(man, "base-s")
    ours = _mean_ap(man, "ours-s")
    plain = _mean_ap(man, "ourst-s")
    teacher_ap = man["teacher"]["ap"]
    seconds = man["teacher"]["seconds"] + sum(
        r["seconds"] for name, r in man["runs"].items()
        if name.startswith(("base-s", "ours-s", "ourst-s")))
    teacher_ok = teacher_ap >= 0.6 and abs(teacher_ap - TEACHER_AP_PIN) <= TEACHER_AP_TOL
    ok = ours > base and ours >= plain and teacher_ok and seconds < 900.0
    _line(6, ok, f"5-seed means: distilled {ours:.4f} > baseline {base:.4f}, "
                 f"inherit {ours:.4f} >= no-inherit {plain:.4f}; teacher AP "
                 f"{teacher_ap:.4f} (pin {TEACHER_AP_PIN:.4f}+-{TEACHER_AP_TOL}); "
                 f"{seconds / 60:.1f} min < 15 min")


def test_c07_attention_variant_ordering(cache):
    man = cache.man
    means = {v: _mean_ap(man, f"attn-{v}-s") for v in ATTENTION_VARIANTS}
    rows = _final_csv_rows(cache)
    csv_ok = all(len(rows.get(f"attn-{v}-s{s}", [])) == 1
                 for v in ATTENTION_VARIANTS for s in SEEDS)
    ok = means["icd"] >= means["none"] and csv_ok and man["attn_seconds"] < 1800.0
    ranked = ", ".join(f"{v}={means[v]:.4f}" for v in
                       sorted(means, key=means.get, reverse=True))
    _line(7, ok, f"icd {means['icd']:.4f} >= none {means['none']:.4f} over "
                 f"{len(SEEDS)} shared seeds; 25-run CSV complete; "
                 f"{man['attn_seconds'] / 60:.1f} min < 30 min ({ranked})")


def test_c08_head_count_sweep_completes(cache):
    man = cache.man
    names = [f"heads-{m}-s0" for m in (1, 4, 8)]
    rows = _final_csv_rows(cache)
    aps = {n: man["runs"][n]["ap"] for n in names if n in man["runs"]}
    ok = (len(aps) == 3 and all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in aps.values())
          and all(len(rows.get(n, [])) == 1 for n in names))
    _line(8, ok, "M in {1,4,8} sweep completed with comparable CSV rows: "
          + ", ".join(f"{n}={aps.get(n, float('nan')):.4f}" for n in names)
          + " (no ordering asserted)")


def test_c09_bit_identical_reruns(cache, tmp_path):
    # full desk-scale evidence: ourst-s* and attn-icd-s* share config+seed and
    # were trained independently, so their checkpoints must match byte for byte
    full_ok = True
    for s in SEEDS:
        a = (cache.root / f"ourst-s{s}.ckpt").read_bytes()
        b = (cache.root / f"attn-icd-s{s}.ckpt").read_bytes()
        full_ok &= a == b

    # literal rerun at reduced iterations: identical CSVs and checkpoints
    cfg = dataclasses.replace(cache.cfg, teacher_iters=60, student_iters=20,
                              warmup_iters=10, eval_scenes=8, stats_scenes=32)
    blobs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        teacher = tr.train_teacher(cfg, str(d))
        student = tr.distill_student(cfg, load_checkpoint(teacher.checkpoint), str(d))
        blobs.append((Path(teacher.checkpoint).read_bytes(),
                      Path(student.checkpoint).read_bytes(),
                      (d / "metrics.csv").read_bytes()))
    rerun_ok = blobs[0] == blobs[1]
    ok = full_ok and rerun_ok
    _line(9, ok, f"independent same-config desk runs byte-identical over "
                 f"{len(SEEDS)} seeds; reduced-iteration rerun reproduced "
                 f"teacher.ckpt, distill.ckpt, and metrics.csv exactly")


def test_c10_checkpoint_and_heatmap_round_trips(cache, tmp_path):
    src = cache.root / "teacher.ckpt"
    state = load_checkpoint(str(src))
    copy = tmp_path / "again.ckpt"
    save_checkpoint(str(copy), state)
    ckpt_ok = src.read_bytes() == copy.read_bytes()
    reloaded = load_checkpoint(str(copy))
    ckpt_ok &= all(np.array_equal(state[k], reloaded[k]) for k in state)

    cfg = cache.cfg
    sys_ = tr.load_system(cfg, state, load_checkpoint(str(cache.root / "attn-icd-s0.ckpt")))
    scene = tr.heldout_scenes(cfg)[0]
    _, flat, _, k = tr.decode_conditions(cfg, sys_, scene.image, scene.instances,
                                         np.random.default_rng((cfg.seed, 30)))
    paths = export_attention(k, flat, 0, 0, str(tmp_path / "attn"))
    row = k.masks.data[0, 0]
    heat_ok, offset = True, 0
    for level, (h, w) in enumerate(flat.layout.shapes):
        seg = row[offset:offset + h * w].reshape(h, w)
        offset += h * w
        back = read_pgm(paths[2 * level])
        heat_ok &= int(np.argmax(back)) == int(np.argmax(seg))
    ok = ckpt_ok and heat_ok
    _line(10, ok, f"checkpoint save/load/save byte-identical with exact array "
                  f"round-trip; heatmap argmax matches mask argmax on "
                  f"{len(flat.layout.shapes)} levels")
