import struct
from collections import Counter

import numpy as np
import pytest

from trn.data import (
    Dataset,
    SyntheticSpec,
    VideoSample,
    derive_class_sequences,
    generate_dataset,
    order_critical_spec,
    order_free_spec,
    read_features,
    shuffle_frames,
    write_features,
)
from trn.errors import FormatError, InputError


def small_spec(**overrides):
    base = dict(
        num_classes=4,
        motif_count=6,
        feature_dim=5,
        frames_per_video=10,
        motifs_per_class=6,
        noise_sigma=0.05,
        distractor_rate=0.2,
        reversal_pairs=((0, 1),),
        order_sensitive=True,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_motifs_cannot_exceed_frames(self):
        with pytest.raises(InputError):
            small_spec(motifs_per_class=11)

    def test_reversal_pair_must_be_two_distinct_classes(self):
        with pytest.raises(InputError):
            small_spec(reversal_pairs=((2, 2),))
        with pytest.raises(InputError):
            small_spec(reversal_pairs=((0, 9),))

    def test_class_in_one_pair_only(self):
        with pytest.raises(InputError):
            small_spec(reversal_pairs=((0, 1), (1, 2)))

    def test_order_free_rejects_reversal_pairs(self):
        with pytest.raises(InputError):
            small_spec(order_sensitive=False, reversal_pairs=((0, 1),))

    def test_rates_bounded(self):
        with pytest.raises(InputError):
            small_spec(distractor_rate=1.5)
        with pytest.raises(InputError):
            small_spec(noise_sigma=-0.1)


class TestClassSequences:
    def test_reversal_pair_shares_multiset_with_different_order(self):
        seqs = derive_class_sequences(small_spec())
        a, b = seqs[0], seqs[1]
        assert sorted(a) == sorted(b)
        assert a != b
        assert a == list(reversed(b))

    def test_order_sensitive_classes_all_share_one_multiset(self):
        seqs = derive_class_sequences(order_critical_spec())
        reference = sorted(seqs[0])
        for seq in seqs[1:]:
            assert sorted(seq) == reference
        assert len({tuple(s) for s in seqs}) == len(seqs)

    def test_order_free_classes_have_distinct_multisets(self):
        seqs = derive_class_sequences(order_free_spec())
        multisets = {tuple(sorted(s)) for s in seqs}
        assert len(multisets) == len(seqs)

    def test_sequence_lengths_match_spec(self):
        spec = order_critical_spec()
        for seq in derive_class_sequences(spec):
            assert len(seq) == spec.motifs_per_class


class TestGeneration:
    def test_noiseless_full_placement_equals_motifs_exactly(self):
        spec = small_spec(
            noise_sigma=0.0, distractor_rate=0.0, motifs_per_class=10, frames_per_video=10
        )
        bundle = generate_dataset(spec, seed=3, counts={"train": 8})
        ds = bundle["train"]
        for sample in ds.samples:
            seq = ds.class_sequences[sample.label]
            for frame, motif_id in zip(sample.frames, seq):
                np.testing.assert_array_equal(frame, ds.motifs[motif_id])

    def test_same_spec_and_seed_bit_identical(self):
        spec = small_spec()
        a = generate_dataset(spec, seed=11, counts={"train": 20, "val": 10})
        b = generate_dataset(spec, seed=11, counts={"train": 20, "val": 10})
        for split in ("train", "val"):
            for sa, sb in zip(a[split].samples, b[split].samples):
                assert sa.label == sb.label
                assert sa.frames.tobytes() == sb.frames.tobytes()

    def test_different_seeds_differ(self):
        spec = small_spec()
        a = generate_dataset(spec, 1, {"train": 4})["train"]
        b = generate_dataset(spec, 2, {"train": 4})["train"]
        assert any(
            sa.frames.tobytes() != sb.frames.tobytes()
            for sa, sb in zip(a.samples, b.samples)
        )

    def test_labels_cycle_and_balance(self):
        bundle = generate_dataset(small_spec(), 0, {"train": 40})
        counts = Counter(s.label for s in bundle["train"].samples)
        assert counts == {0: 10, 1: 10, 2: 10, 3: 10}

    def test_motifs_are_unit_vectors(self):
        ds = generate_dataset(small_spec(), 5, {"train": 4})["train"]
        norms = np.linalg.norm(ds.motifs, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_reversal_pair_frame_multisets_identical_in_noiseless_case(self):
        # with full placement and no noise, an order-invariant view of the
        # frames cannot tell the paired classes apart: the sorted frame
        # multisets coincide exactly
        spec = small_spec(
            noise_sigma=0.0, distractor_rate=0.0, motifs_per_class=10, frames_per_video=10
        )
        ds = generate_dataset(spec, 13, {"train": 8})["train"]
        a = next(s for s in ds.samples if s.label == 0)
        b = next(s for s in ds.samples if s.label == 1)
        sorted_a = sorted(row.tobytes() for row in a.frames)
        sorted_b = sorted(row.tobytes() for row in b.frames)
        assert sorted_a == sorted_b
        assert a.frames.tobytes() != b.frames.tobytes()

    def test_empty_counts_rejected(self):
        with pytest.raises(InputError):
            generate_dataset(small_spec(), 0, {})
        with pytest.raises(InputError):
            generate_dataset(small_spec(), 0, {"train": 0})


class TestShuffleFrames:
    def test_single_frame_unchanged(self):
        sample = VideoSample(np.arange(4, dtype=np.float32).reshape(1, 4), 0)
        out = shuffle_frames(sample, np.random.default_rng(0))
        np.testing.assert_array_equal(out.frames, sample.frames)
        assert out.label == 0

    def test_multiset_preserved(self):
        rng = np.random.default_rng(1)
        sample = VideoSample(rng.normal(size=(6, 3)).astype(np.float32), 2)
        out = shuffle_frames(sample, np.random.default_rng(7))
        original = sorted(row.tobytes() for row in sample.frames)
        shuffled = sorted(row.tobytes() for row in out.frames)
        assert original == shuffled

    def test_permutations_uniform_over_seeds(self):
        # n=4: each of the 24 permutations should appear with frequency
        # 1/24 within +-0.01 over 10,000 seeds
        frames = np.arange(4, dtype=np.float32).reshape(4, 1)
        sample = VideoSample(frames, 0)
        counts = Counter()
        trials = 10_000
        for seed in range(trials):
            out = shuffle_frames(sample, np.random.default_rng(seed))
            counts[tuple(int(v) for v in out.frames[:, 0])] += 1
        assert len(counts) == 24
        for count in counts.values():
            assert abs(count / trials - 1 / 24) < 0.01


class TestFeatureFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        bundle = generate_dataset(small_spec(), 9, {"train": 12})
        ds = bundle["train"]
        path = tmp_path / "train.trnf"
        write_features(path, ds)
        loaded = read_features(path)
        assert len(loaded) == len(ds)
        for a, b in zip(ds.samples, loaded.samples):
            assert a.label == b.label
            assert a.frames.tobytes() == b.frames.tobytes()

    def test_wrong_magic_names_offset_zero(self, tmp_path):
        path = tmp_path / "bad.trnf"
        path.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 0

    def test_declared_count_beyond_payload_is_truncation(self, tmp_path):
        ds = generate_dataset(small_spec(), 2, {"train": 3})["train"]
        path = tmp_path / "train.trnf"
        write_features(path, ds)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (10).to_bytes(4, "little")  # claim 10 samples
        bad = tmp_path / "overdeclared.trnf"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_features(bad)
        assert "truncated" in str(err.value)

    def test_oversized_frame_header_is_format_error(self, tmp_path):
        # one sample claiming 65535 x 65535 frames (17 GB) in a 24-byte file
        path = tmp_path / "huge.trnf"
        path.write_bytes(b"TRNF" + struct.pack("<IIIII", 1, 1, 0, 65535, 65535))
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert err.value.offset == 24
        assert "truncated" in str(err.value)

    def test_truncated_payload_reports_offset(self, tmp_path):
        ds = generate_dataset(small_spec(), 2, {"train": 2})["train"]
        path = tmp_path / "train.trnf"
        write_features(path, ds)
        clipped = tmp_path / "clipped.trnf"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError) as err:
            read_features(clipped)
        assert err.value.offset is not None

    def test_inconsistent_feature_dim_rejected(self, tmp_path):
        a = VideoSample(np.zeros((2, 3), dtype=np.float32), 0)
        b = VideoSample(np.zeros((2, 4), dtype=np.float32), 1)
        path = tmp_path / "mixed.trnf"
        write_features(path, Dataset(samples=[a, b]))
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert "feature dim" in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        ds = generate_dataset(small_spec(), 2, {"train": 1})["train"]
        path = tmp_path / "train.trnf"
        write_features(path, ds)
        padded = tmp_path / "padded.trnf"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_features(padded)
