import errno
import os
import re
import shutil
from collections import defaultdict

import numpy as np
import pytest

from tkgrag.kg import (
    ENTITY_MAP_FILE,
    RELATION_MAP_FILE,
    Dataset,
    DatasetFormatError,
    DatasetSpec,
    Quadruple,
    TemporalKG,
    _pack,
    check_ids,
    load_dataset,
    save_dataset,
)

from tkgrag.prompts import PromptConfig, build_prompt, select_history
from tkgrag.retrieval import RetrievalConfig, queries_from_split, retrieve

from conftest import edges_of, key_range, make_kg, write_dataset_dir


class TestLoading:
    def test_minimal_single_line(self, tmp_path):
        write_dataset_dir(tmp_path, train=[("0", "0", "1", "0")])
        ds = load_dataset(str(tmp_path), DatasetSpec(time_gap=1, inverse=False))
        assert len(ds.train.base_quads()) == 1
        assert len(ds.entities) == 2
        assert ds.num_base_relations == 1
        assert edges_of(ds.train) == [Quadruple(0, 0, 1, 0)]

    def test_minimal_with_inverse(self, tmp_path):
        write_dataset_dir(tmp_path, train=[("0", "0", "1", "0")])
        ds = load_dataset(str(tmp_path), DatasetSpec(time_gap=1, inverse=True))
        assert len(ds.train) == 2
        assert len(ds.relations) == 2
        assert ds.relations[1] == "inv_0"
        assert Quadruple(1, 1, 0, 0) in edges_of(ds.train)
        # base relations and original edges exclude the inverses
        assert ds.num_base_relations == 1
        assert len(ds.train.base_quads()) == 1

    def test_names_interned_first_appearance(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            train=[("Paris", "capital_of", "France", "0"),
                   ("Berlin", "capital_of", "Germany", "1")],
        )
        ds = load_dataset(str(tmp_path), DatasetSpec(inverse=False))
        assert ds.entities == ["Paris", "France", "Berlin", "Germany"]
        assert ds.relations == ["capital_of"]

    def test_id_maps_respected(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            train=[("1", "0", "0", "0")],
            id_maps=([("a", 0), ("b", 1)], [("knows", 0)]),
        )
        ds = load_dataset(str(tmp_path), DatasetSpec(inverse=False))
        assert ds.entities == ["a", "b"]
        assert edges_of(ds.train) == [Quadruple(1, 0, 0, 0)]

    def test_unknown_id_rejected(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            train=[("2", "0", "0", "0")],
            id_maps=([("a", 0), ("b", 1)], [("knows", 0)]),
        )
        with pytest.raises(DatasetFormatError, match="unknown entity id"):
            load_dataset(str(tmp_path), DatasetSpec(inverse=False))

    def test_wrong_column_count_rejected(self, tmp_path):
        write_dataset_dir(tmp_path, train=[("0", "0", "1")])
        with pytest.raises(DatasetFormatError, match="4 tab-separated"):
            load_dataset(str(tmp_path))

    def test_non_divisible_timestamp_rejected(self, tmp_path):
        write_dataset_dir(tmp_path, train=[("0", "0", "1", "24"), ("0", "0", "1", "25")])
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"{tmp_path}/train.txt:2: timestamp 25 is not divisible by time gap 24")):
            load_dataset(str(tmp_path), DatasetSpec(time_gap=24))

    def test_empty_train_rejected(self, tmp_path):
        write_dataset_dir(tmp_path, train=[])
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{tmp_path}/train.txt: empty train split")):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("missing", [ENTITY_MAP_FILE, RELATION_MAP_FILE])
    def test_one_id_map_refused(self, tmp_path, missing):
        """With one id map the split files' ids would be read as names."""
        write_dataset_dir(tmp_path, train=[("1", "0", "0", "0")],
                          id_maps=([("a", 0), ("b", 1)], [("knows", 0)]))
        os.remove(tmp_path / missing)
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{tmp_path}/{missing}: missing; ")):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("lines, line, fault", [
        (["0\t0\t1\t1", "0\t0\t1\tx"], 1, "timestamp 1 is not divisible by time gap 2"),
        ([f"0\t0\t1\t{2**64}", "0\t0\t1"], 1, f"timestamp {2**64} does not fit in 64 bits"),
        (["0\t0\t1\t0", "0\t0", "0\t0\t\xff\t0"], 2,
         "expected 4 tab-separated columns, got 2"),
        (["0\t0\t1\t0", "0\t0\t\xff\t0", "0\t0"], 2, "'utf-8' codec can't decode byte 0xff"),
    ], ids=["off-gap-then-not-int", "overflow-then-columns", "columns-then-not-utf8",
            "not-utf8-then-columns"])
    def test_first_fault_in_file_order_named(self, tmp_path, lines, line, fault):
        (tmp_path / "train.txt").write_bytes(
            "".join(f"{text}\n" for text in lines).encode("latin-1"))
        for name in ("valid.txt", "test.txt"):
            (tmp_path / name).write_text("")
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{tmp_path}/train.txt:{line}: {fault}")):
            load_dataset(str(tmp_path), DatasetSpec(time_gap=2))

    def test_lf_and_crlf_copies_load_and_render_alike(self, synthetic_dir, synthetic_bank,
                                                       tmp_path):
        """Universal newlines: a CRLF copy of a dataset, one entity renamed
        to a name that is not ASCII, loads to the same dataset and renders
        the same prompts."""
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        shutil.copytree(synthetic_dir, lf)
        entity_map = lf / ENTITY_MAP_FILE
        entity_map.write_text(entity_map.read_text(encoding="utf-8").replace(
            "e00\t", "Zürich–北京\t", 1), encoding="utf-8")
        shutil.copytree(lf, crlf)
        for path in crlf.glob("*.txt"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in (crlf / "train.txt").read_bytes()

        def loaded(directory):
            dataset = load_dataset(str(directory))
            retrieval_cfg, prompt_cfg = RetrievalConfig(), PromptConfig()
            prompts = [
                build_prompt(select_history(retrieve(dataset.train, synthetic_bank, query,
                                                     retrieval_cfg), prompt_cfg, retrieval_cfg),
                             prompt_cfg, dataset.train).text
                for query in queries_from_split(dataset, "test")
            ]
            splits = [edges_of(dataset.split(name)) for name in ("train", "valid", "test")]
            return (dataset.entities, dataset.relations, dataset.num_base_relations,
                    dataset.time_origin, dataset.duplicates_dropped, splits, prompts)

        got = loaded(lf)
        assert got[0][0] == "Zürich–北京"
        assert any("Zürich–北京" in text for text in got[-1])
        assert loaded(crlf) == got

    def test_missing_split_file_rejected(self, tmp_path):
        (tmp_path / "train.txt").write_text("0\t0\t1\t0\n")
        with pytest.raises(DatasetFormatError, match="missing split"):
            load_dataset(str(tmp_path))

    def test_duplicates_dropped_and_counted(self, tmp_path):
        write_dataset_dir(tmp_path, train=[("0", "0", "1", "0")] * 3)
        ds = load_dataset(str(tmp_path), DatasetSpec(inverse=False))
        assert len(ds.train) == 1
        assert ds.duplicates_dropped == 2

    def test_timestamps_origin_shifted_and_divided(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            train=[("0", "0", "1", "48"), ("1", "0", "0", "96")],
            valid=[("0", "0", "1", "120")],
            test=[("1", "0", "0", "144")],
        )
        ds = load_dataset(str(tmp_path), DatasetSpec(time_gap=24, inverse=False))
        assert ds.time_origin == 48
        assert [q.t for q in edges_of(ds.train)] == [0, 2]
        assert [q.t for q in edges_of(ds.test)] == [4]
        # max step spans (max raw - min raw) / gap
        assert ds.test.t_max == (144 - 48) // 24


class TestEdgesFor:
    """The edges in a (subject, relation) window, as `key_search` finds
    them."""

    def test_window_semantics(self):
        kg = make_kg([(0, 0, 1, 1), (0, 0, 1, 3), (0, 0, 1, 5)])
        got = edges_of(kg, key_range(kg, 0, 0, 1, 5))
        assert [q.t for q in got] == [1, 3]

    def test_empty_interval(self):
        kg = make_kg([(0, 0, 1, 1)])
        assert key_range(kg, 0, 0, 5, 5).tolist() == []

    def test_empty_graph(self):
        kg = make_kg([], n_entities=2, n_relations=1)
        assert key_range(kg, 0, 0, 0, 10**9).tolist() == []

    def test_unknown_subject_or_relation(self):
        kg = make_kg([(0, 0, 1, 1)])
        assert key_range(kg, 5, 0, 0, 10).tolist() == []
        assert key_range(kg, 0, 9, 0, 10).tolist() == []

    def test_ties_sorted_by_object(self):
        kg = make_kg([(0, 0, 3, 2), (0, 0, 1, 2), (0, 0, 2, 2)])
        assert [q.object for q in edges_of(kg, key_range(kg, 0, 0, 0, 3))] == [1, 2, 3]

    def test_concatenation_covers_all_edges(self):
        rng = np.random.default_rng(3)
        quads = {
            (int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6)),
             int(rng.integers(20)))
            for _ in range(200)
        }
        kg = make_kg(sorted(quads), n_entities=6, n_relations=3)
        collected = []
        for s in range(6):
            for r in range(3):
                collected.extend(edges_of(kg, key_range(kg, s, r, 0, kg.t_max + 1)))
        assert sorted(collected) == sorted(edges_of(kg))


class TestRoundTrip:
    def test_save_then_load_identical(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_dataset_dir(
            src,
            train=[("alpha", "r", "beta", "10"), ("beta", "r", "alpha", "20")],
            valid=[("alpha", "r", "beta", "30")],
            test=[("beta", "r", "alpha", "40")],
        )
        ds = load_dataset(str(src), DatasetSpec(time_gap=10, inverse=True))
        out = tmp_path / "out"
        save_dataset(ds, str(out))
        ds2 = load_dataset(str(out), DatasetSpec(time_gap=10, inverse=True))
        assert ds2.entities == ds.entities
        assert ds2.relations == ds.relations
        for split in ("train", "valid", "test"):
            assert edges_of(ds2.split(split)) == edges_of(ds.split(split))

    def test_id_form_reserialization_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        ds = load_dataset_from_rows(first, [("0", "0", "1", "0"), ("1", "0", "0", "3")])
        second = tmp_path / "b"
        save_dataset(ds, str(second))
        third = tmp_path / "c"
        save_dataset(load_dataset(str(second), DatasetSpec(inverse=True)), str(third))
        for name in ("train.txt", "valid.txt", "test.txt", "entity2id.txt", "relation2id.txt"):
            assert (second / name).read_bytes() == (third / name).read_bytes()


class TestAtomicDatasetDirectory:
    """A dataset directory is replaced as a whole: a save that fails part-way
    leaves the previous dataset, or no directory, and no temp directory."""

    def test_failed_save_keeps_previous_dataset(self, tmp_path, disk_full):
        out = tmp_path / "data"
        save_dataset(load_dataset_from_rows(tmp_path / "a", [("0", "0", "1", "0")]), str(out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        bigger = load_dataset_from_rows(tmp_path / "b", [("1", "0", "0", t) for t in "123"])
        disk_full(10)
        with pytest.raises(OSError):
            save_dataset(bigger, str(out))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert sorted(os.listdir(tmp_path)) == ["a", "b", "data"]

    def test_failed_swap_puts_the_previous_dataset_back(self, tmp_path, monkeypatch):
        out = tmp_path / "data"
        save_dataset(load_dataset_from_rows(tmp_path / "a", [("0", "0", "1", "0")]), str(out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        rename = os.rename

        def failing_rename(src, dst):
            # the new directory cannot move into place once the old one is aside
            if str(src).endswith(".tmp") and os.path.isdir(src):
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", failing_rename)
        bigger = load_dataset_from_rows(tmp_path / "b", [("1", "0", "0", t) for t in "123"])
        with pytest.raises(OSError):
            save_dataset(bigger, str(out))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert sorted(os.listdir(tmp_path)) == ["a", "b", "data"]

    def test_failed_first_save_leaves_nothing(self, tmp_path, disk_full):
        dataset = load_dataset_from_rows(tmp_path / "a", [("0", "0", "1", "0")])
        disk_full(4)
        with pytest.raises(OSError):
            save_dataset(dataset, str(tmp_path / "data"))
        assert os.listdir(tmp_path) == ["a"]

    def test_save_replaces_a_dataset_directory(self, tmp_path):
        out = tmp_path / "data"
        save_dataset(load_dataset_from_rows(tmp_path / "a", [("0", "0", "1", "0")]), str(out))
        (out / "ground_truth.json").write_text("{}\n")
        bigger = load_dataset_from_rows(tmp_path / "b", [("1", "0", "0", t) for t in "123"])
        save_dataset(bigger, str(out) + "/")
        assert sorted(os.listdir(out)) == sorted(
            ["train.txt", "valid.txt", "test.txt", "entity2id.txt", "relation2id.txt"])
        assert (out / "train.txt").read_text() == "1\t0\t0\t1\n1\t0\t0\t2\n1\t0\t0\t3\n"
        assert sorted(os.listdir(tmp_path)) == ["a", "b", "data"]

    @pytest.mark.parametrize("foreign", ["notes.txt", "runs/"])
    def test_save_refuses_a_directory_with_other_files(self, tmp_path, foreign):
        out = tmp_path / "data"
        save_dataset(load_dataset_from_rows(tmp_path / "a", [("0", "0", "1", "0")]), str(out))
        if foreign.endswith("/"):
            (out / foreign).mkdir()
        else:
            (out / foreign).write_text("keep me\n")
        before = sorted(os.listdir(out))
        bigger = load_dataset_from_rows(tmp_path / "b", [("1", "0", "0", t) for t in "123"])
        with pytest.raises(ValueError, match=foreign.rstrip("/")):
            save_dataset(bigger, str(out))
        assert sorted(os.listdir(out)) == before
        assert (out / "train.txt").read_text() == "0\t0\t1\t0\n"
        assert sorted(os.listdir(tmp_path)) == ["a", "b", "data"]

    def test_save_through_a_symlink_replaces_its_target(self, tmp_path):
        real, link = tmp_path / "real", tmp_path / "data"
        save_dataset(load_dataset_from_rows(tmp_path / "a", [("0", "0", "1", "0")]), str(real))
        link.symlink_to(real, target_is_directory=True)
        bigger = load_dataset_from_rows(tmp_path / "b", [("1", "0", "0", t) for t in "123"])
        save_dataset(bigger, str(link))
        assert link.is_symlink() and os.path.realpath(link) == str(real)
        assert (real / "train.txt").read_text() == "1\t0\t0\t1\n1\t0\t0\t2\n1\t0\t0\t3\n"
        assert sorted(os.listdir(tmp_path)) == ["a", "b", "data", "real"]

    def test_failed_move_aside_leaves_the_directory(self, tmp_path, monkeypatch):
        out = tmp_path / "data"
        save_dataset(load_dataset_from_rows(tmp_path / "a", [("0", "0", "1", "0")]), str(out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        rename = os.rename

        def busy_rename(src, dst):
            # the old directory cannot be moved, as with a mount point
            if str(src) == str(out):
                raise OSError(errno.EBUSY, "Device or resource busy")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", busy_rename)
        bigger = load_dataset_from_rows(tmp_path / "b", [("1", "0", "0", t) for t in "123"])
        with pytest.raises(OSError, match=f"cannot move {out} aside"):
            save_dataset(bigger, str(out))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert sorted(os.listdir(tmp_path)) == ["a", "b", "data"]


def load_dataset_from_rows(path, rows):
    path.mkdir()
    write_dataset_dir(path, train=rows,
                      id_maps=([("e0", 0), ("e1", 1)], [("r0", 0)]))
    return load_dataset(str(path), DatasetSpec(inverse=True))


class TestUnionAndStats:
    def test_union_deduplicates(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            train=[("0", "0", "1", "0")],
            valid=[("0", "0", "1", "0")],
            test=[("0", "0", "1", "1")],
        )
        ds = load_dataset(str(tmp_path), DatasetSpec(inverse=False))
        union = ds.union_kg()
        assert len(union) == 2

    def test_single_edge_stats(self, tmp_path):
        write_dataset_dir(tmp_path, train=[("0", "0", "1", "0")])
        ds = load_dataset(str(tmp_path), DatasetSpec(inverse=False))
        assert (len(ds.train.base_quads()), len(ds.entities), ds.num_base_relations) == \
            (1, 2, 1)

    def test_inverse_pairing_invariant(self, synthetic_dataset):
        kg = synthetic_dataset.train
        n_base = synthetic_dataset.num_base_relations
        quads = set(edges_of(kg))
        originals = [q for q in quads if q.relation < n_base]
        assert len(originals) * 2 == len(quads)
        for q in originals:
            assert Quadruple(q.object, q.relation + n_base, q.subject, q.t) in quads


# -- array indices against a pure-Python reference ---------------------------


def random_rows(rng, n_entities, n_relations, n_rows, t_max=6):
    """(s, r, o, t) tuples over a small id space, so duplicates are common."""
    return [
        (int(rng.integers(n_entities)), int(rng.integers(n_relations)),
         int(rng.integers(n_entities)), int(rng.integers(t_max)))
        for _ in range(n_rows)
    ]


def reference_graph(rows):
    """Canonical edges and every index, by sorting and dict-appending."""
    edges = sorted(set(rows), key=lambda q: (q[3], q[0], q[1], q[2]))
    by_sr, by_r, by_so, last = defaultdict(list), defaultdict(list), defaultdict(list), {}
    for pos, (s, r, o, t) in enumerate(edges):
        by_sr[(s, r)].append(pos)
        by_r[r].append(pos)
        by_so[(s, o)].append(pos)
        last[(s, r, o)] = max(t, last.get((s, r, o), -1))
    return edges, by_sr, by_r, by_so, last


def random_graph(seed):
    rng = np.random.default_rng(seed)
    n_entities, n_base = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    rows = random_rows(rng, n_entities, n_base, int(rng.integers(0, 40)))
    inverse = bool(seed % 2)
    kg = make_kg(rows, n_entities=n_entities, n_relations=n_base, inverse=inverse)
    if inverse:
        rows = rows + [(o, r + n_base, s, t) for s, r, o, t in rows]
    return rng, kg, rows


class TestCheckIds:
    def test_ids_inside_pass(self):
        for ids in (0, 4, None, [], [0, 4], np.array([3, 0, 4])):
            check_ids("f", ids, 5)

    @pytest.mark.parametrize("ids, bad", [(5, 5), (-1, -1), ([0, 7, -2], 7),
                                          (np.array([1, -3, 9]), -3)])
    def test_first_id_outside_named(self, ids, bad):
        with pytest.raises(ValueError) as info:
            check_ids("facts.s", ids, 5)
        assert str(info.value) == f"facts.s: id {bad} is outside the vocabulary of 5"


class TestQuadShape:
    @pytest.mark.parametrize("quads, shape", [
        ([(0, 1, 2), (3, 0, 1), (2, 3, 0), (1, 2, 3)], "(4, 3)"),
        ([(0, 1, 2, 3, 1, 0, 3, 2)], "(1, 8)"),
        (np.arange(8), "(8,)"),
    ])
    def test_rows_not_of_four_refused(self, quads, shape):
        with pytest.raises(ValueError, match=re.escape(f"got an array of shape {shape}")):
            TemporalKG(["a", "b", "c", "d"], ["p", "q", "r", "s"], quads)

    @pytest.mark.parametrize("quads", [[], (), np.empty((0, 4), dtype=np.int64),
                                       [(0, 1, 2, 3), (3, 0, 1, 2)],
                                       np.array([[0, 1, 2, 3], [3, 0, 1, 2]])])
    def test_empty_and_rows_of_four_load(self, quads):
        kg = TemporalKG(["a", "b", "c", "d"], ["p", "q", "r", "s"], quads)
        assert edges_of(kg) == [Quadruple(3, 0, 1, 2), Quadruple(0, 1, 2, 3)][:len(quads)]


class TestIndicesAgainstReference:
    SEEDS = range(200)

    @pytest.mark.parametrize("seed", SEEDS[::20])
    def test_tuple_and_array_input_agree(self, seed):
        _rng, kg, rows = random_graph(seed)
        from_array = TemporalKG(kg.entities, kg.relations,
                                np.array(rows, dtype=np.int64).reshape(-1, 4),
                                kg.num_base_relations)
        assert edges_of(from_array) == edges_of(kg)

    def test_edges_and_position_lookups(self):
        for seed in self.SEEDS:
            _rng, kg, rows = random_graph(seed)
            edges, by_sr, by_r, _by_so, _last = reference_graph(rows)
            assert [tuple(q) for q in edges_of(kg)] == edges
            n_ent, n_rel = len(kg.entities), len(kg.relations)
            relations = list(range(-2, n_rel + 2)) + [n_rel + 10**6, 2**40]
            for r in relations:
                assert kg.relation_positions(r).tolist() == by_r.get(r, [])
                for s in range(-1, n_ent + 2):
                    got = key_range(kg, s, r, 0, kg.t_max + 1)
                    assert got.tolist() == by_sr.get((s, r), [])

    def test_base_quads(self):
        for seed in self.SEEDS:
            _rng, kg, rows = random_graph(seed)
            edges = reference_graph(rows)[0]
            want = [list(e) for e in edges if e[1] < kg.num_base_relations]
            got = kg.base_quads()
            assert got.dtype == np.int64 and got.shape == (len(want), 4)
            assert got.tolist() == want
            if kg.has_inverses:
                assert 2 * len(got) == len(kg)

    def test_returning_positions(self):
        for seed in self.SEEDS:
            _rng, kg, rows = random_graph(seed)
            edges, _by_sr, _by_r, by_so, _last = reference_graph(rows)
            n = len(kg.entities)
            for s in range(-1, n + 1):
                for o in range(-1, n + 1):
                    for t in range(-1, kg.t_max + 2):
                        want = [p for p in by_so.get((s, o), []) if edges[p][3] < t]
                        assert kg.returning_positions(s, o, t).tolist() == want

    def test_pair_ids(self):
        for seed in self.SEEDS:
            _rng, kg, rows = random_graph(seed)
            edges, _by_sr, _by_r, by_so, _last = reference_graph(rows)
            want = [0] * len(edges)
            for pair_id, key in enumerate(sorted(by_so)):
                for pos in by_so[key]:
                    want[pos] = pair_id
            got = kg.pair_ids()
            assert got.dtype == np.int64 and got.tolist() == want

    def test_contains(self):
        for seed in self.SEEDS:
            _rng, kg, rows = random_graph(seed)
            edges = set(reference_graph(rows)[0])
            n_ent, n_rel = len(kg.entities), len(kg.relations)
            for s in range(-1, n_ent + 1):
                for r in range(-1, n_rel + 1):
                    for o in range(-1, n_ent + 1):
                        for t in range(-1, kg.t_max + 2):
                            present = o in kg.obj[key_range(kg, s, r, t, t + 1)].tolist()
                            assert present == ((s, r, o, t) in edges)

    def test_last_time_of_scalar_and_array(self):
        for seed in self.SEEDS:
            rng, kg, rows = random_graph(seed)
            *_, last = reference_graph(rows)
            n_ent, n_rel = len(kg.entities), len(kg.relations)
            triples = [(s, r, o) for s in range(-1, n_ent + 1)
                       for r in range(-1, n_rel + 1) for o in range(-1, n_ent + 1)]
            for s, r, o in triples:
                got = kg.last_time_of(s, r, o)
                assert type(got) is int and got == last.get((s, r, o), -1)
            subs, rels, objs = (np.array(c, dtype=np.int64) for c in zip(*triples))
            got = kg.last_time_of(subs, rels, objs)
            assert got.dtype == np.int64
            assert got.tolist() == [last.get(t, -1) for t in triples]
            head = int(rng.integers(n_rel))
            assert kg.last_time_of(subs, head, objs).tolist() == [
                last.get((s, head, o), -1) for s, o in zip(subs.tolist(), objs.tolist())
            ]
            assert kg.last_time_of(subs[:0], head, objs[:0]).tolist() == []

    def test_key_search(self):
        for seed in self.SEEDS:
            rng, kg, rows = random_graph(seed)
            edges, by_sr, *_ = reference_graph(rows)
            n_ent, n_rel = len(kg.entities), len(kg.relations)
            relations = list(range(-2, n_rel + 2)) + [n_rel + 10**6, 2**40]
            n_windows = int(rng.integers(0, 8))
            t_lo = rng.integers(-3, kg.t_max + 4, n_windows)
            t_hi = t_lo + rng.integers(0, kg.t_max + 4, n_windows)
            if n_windows:
                t_hi[-1] = 10**9
            for subject in range(-1, n_ent + 2):
                order, found = kg.key_search(subject, relations, np.append(t_lo, t_hi))
                assert found.shape == (len(relations), 2 * n_windows)
                for i, (lo, hi) in enumerate(zip(t_lo.tolist(), t_hi.tolist())):
                    for j, r in enumerate(relations):
                        want = [p for p in by_sr.get((subject, r), [])
                                if lo <= edges[p][3] < hi]
                        assert order[found[j, i]:found[j, n_windows + i]].tolist() == want

    def test_positions_at(self):
        """One (subject, relation, t) key's range: the edges `key_search`
        finds in [t, t + 1), empty for ids and times outside the graph."""
        for seed in self.SEEDS:
            _rng, kg, _rows = random_graph(seed)
            n_ent, n_rel = len(kg.entities), len(kg.relations)
            for subject in range(-1, n_ent + 2):
                for relation in [*range(-2, n_rel + 2), 2**40]:
                    for t in range(-2, kg.t_max + 3):
                        assert (kg.positions_at(subject, relation, t).tolist()
                                == key_range(kg, subject, relation, t, t + 1).tolist())

    def test_union_kg(self):
        for seed in self.SEEDS:
            rng, train, rows = random_graph(seed)
            splits = {"train": train}
            for name in ("valid", "test"):
                extra = random_rows(rng, len(train.entities), len(train.relations),
                                    int(rng.integers(0, 15)))
                splits[name] = TemporalKG(train.entities, train.relations, extra,
                                          train.num_base_relations)
                rows = rows + extra
            dataset = Dataset(train.entities, train.relations, train.num_base_relations,
                              splits, time_gap=1, time_origin=0)
            union = dataset.union_kg()
            assert [tuple(q) for q in edges_of(union)] == reference_graph(rows)[0]
            assert union.num_base_relations == train.num_base_relations
            assert edges_of(dataset.union_kg(("test",))) == edges_of(splits["test"])
            assert len(dataset.union_kg(())) == 0

    def test_union_of_one_split_with_edges_is_that_split(self):
        """Graphs are immutable, so the union of a split with empty ones
        shares the split's graph; two splits with edges are merged."""
        train = make_kg([(0, 0, 1, 1), (1, 0, 0, 2)], n_entities=2, inverse=True)
        empty = make_kg([], n_entities=2, inverse=True)
        test = make_kg([(0, 0, 1, 3)], n_entities=2, inverse=True)
        dataset = Dataset(train.entities, train.relations, 1,
                          {"train": train, "valid": empty, "test": test}, 1, 0)
        assert dataset.union_kg(("train",)) is dataset.train
        assert dataset.union_kg(("train", "valid")) is dataset.train
        assert dataset.union_kg(("valid", "test")) is dataset.test
        assert len(dataset.union_kg()) == len(train) + len(test)

    def test_empty_graph(self):
        kg = make_kg([], n_entities=3, n_relations=2)
        assert len(kg) == 0
        assert key_range(kg, 0, 0, 0, 10**9).tolist() == []
        assert kg.relation_positions(0).tolist() == []
        assert kg.returning_positions(0, 1, 5).tolist() == []
        assert kg.pair_ids().tolist() == []
        order, found = kg.key_search(0, [0, 1, 2, -1], [0, 3, -5, 10**9, 4, 0])
        assert order.tolist() == [] and found.shape == (4, 6)
        assert not found.any()
        assert kg.last_time_of(0, 1, 2) == -1
        assert kg.last_time_of(np.array([0, 1]), 0, np.array([2, 2])).tolist() == [-1, -1]
        for graph in (kg, make_kg([], n_entities=3, n_relations=2, inverse=True)):
            assert graph.base_quads().shape == (0, 4)
            assert graph.base_quads().dtype == np.int64

    def test_key_packing_guarded_against_overflow(self):
        top = np.array([2**21 - 1])
        # 2**63 distinct keys still fit: the largest one is the int64 maximum
        assert _pack((top, top, top), (2**21, 2**21, 2**21)).tolist() == [2**63 - 1]
        with pytest.raises(ValueError, match="too large"):
            _pack((top, top, top), (2**21, 2**21, 2**21 + 1))
