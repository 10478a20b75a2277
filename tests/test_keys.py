import copy
import dataclasses
import pickle
import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from timecloak import keys as keys_module
from timecloak.keys import (
    HexKeyStream,
    KeyConsumedError,
    KeyExhaustedError,
    KmsStore,
    UnknownKeyError,
    load_keys,
    mock_qkd_source,
    save_keys,
)


def _stored_ids(directory) -> list[str]:
    """The key ids a store directory holds: the stems of its key files."""
    return sorted(path.stem for path in directory.glob("*.hex"))


def _write_key(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return path


_KEY_TEXT = b"0123456789abcdefABCDEF \t\r\n\x0b\x0c"


def _load_keys_oracle(raw: bytes) -> bytes | str:
    """A byte-by-byte reading of key text: the digit values, or the error
    text (without the path) that load_keys must raise."""
    digits = bytearray()
    for offset, byte in enumerate(raw):
        if byte in b" \t\r\n\x0b\x0c":
            continue
        ch = chr(byte)
        if ch not in "0123456789abcdefABCDEF":
            return f"invalid hex character {ch!r} at offset {offset}"
        digits.append(int(ch, 16))
    return bytes(digits) if digits else "no hexadecimal digits"


def _assert_matches_oracle(path, raw: bytes) -> None:
    path.write_bytes(raw)
    expected = _load_keys_oracle(raw)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            load_keys(path)
        assert str(info.value) == f"{path}: {expected}"
    else:
        stream = load_keys(path)
        assert stream.digits == expected
        assert stream.to_hex() == "".join(f"{d:x}" for d in expected)


class TestLoadKeys:
    def test_plain_hex(self, tmp_path):
        stream = load_keys(_write_key(tmp_path, "k1.hex", "FF00"))
        assert list(stream.digits) == [15, 15, 0, 0]
        assert stream.key_id == "k1"

    def test_case_and_whitespace(self, tmp_path):
        stream = load_keys(_write_key(tmp_path, "k2.hex", "ab\nCD"))
        assert list(stream.digits) == [10, 11, 12, 13]

    def test_invalid_character_names_offset(self, tmp_path):
        with pytest.raises(ValueError, match="offset 0"):
            load_keys(_write_key(tmp_path, "bad.hex", "GZ"))

    def test_invalid_character_later_offset(self, tmp_path):
        with pytest.raises(ValueError, match="offset 3"):
            load_keys(_write_key(tmp_path, "bad2.hex", "ab1x"))

    @pytest.mark.parametrize("text, offset", [("0x1x", 1), ("ab\nGz G", 3), ("FF\xffFF\xff", 2)])
    def test_repeated_invalid_character_names_its_first_offset(self, tmp_path, text, offset):
        path = tmp_path / "twice.hex"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=rf"at offset {offset}$"):
            load_keys(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="no hexadecimal digits"):
            load_keys(_write_key(tmp_path, "empty.hex", " \n "))

    def test_every_byte_value_matches_oracle(self, tmp_path):
        for byte in range(256):
            _assert_matches_oracle(tmp_path / "k.hex", b"a " + bytes([byte]) + b"F")

    @given(
        st.lists(st.one_of(st.sampled_from(_KEY_TEXT), st.integers(0, 255)), max_size=64).map(
            bytes
        )
    )
    @example(b"\x00")
    @example(b"ab\x85")
    @example(b"\t0F\xff")
    @example(b"\x0b\x0c \r\n")
    @example(b"0g1g\xff")
    def test_matches_byte_by_byte_oracle(self, tmp_path_factory, raw):
        _assert_matches_oracle(tmp_path_factory.mktemp("oracle") / "k.hex", raw)

    @given(st.binary(min_size=1, max_size=256).map(lambda b: bytes(v % 16 for v in b)))
    def test_round_trip_through_file(self, tmp_path_factory, digits):
        tmp = tmp_path_factory.mktemp("roundtrip")
        stream = HexKeyStream(digits, key_id="rt")
        save_keys(stream, tmp / "rt.hex")
        reloaded = load_keys(tmp / "rt.hex")
        assert reloaded.digits == digits
        # and the hex text matches the file's hex content, whitespace aside
        on_disk = re.sub(r"\s", "", (tmp / "rt.hex").read_text())
        assert reloaded.to_hex() == on_disk.lower()


class TestMockSource:
    def test_deterministic(self):
        a = mock_qkd_source(1, 8)
        b = mock_qkd_source(1, 8)
        assert a.digits == b.digits

    def test_seed_changes_stream(self):
        assert mock_qkd_source(1, 64).digits != mock_qkd_source(2, 64).digits

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            mock_qkd_source(1, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            mock_qkd_source(-1, 8)

    def test_digit_range(self):
        stream = mock_qkd_source(3, 10_000)
        assert max(stream.digits) <= 15

    def test_uniformity_chi_square(self):
        # 16 bins over 1e6 digits must pass at the 0.001 level
        stream = mock_qkd_source(12345, 1_000_000)
        counts = [0] * 16
        for d in stream.digits:
            counts[d] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001


class TestTakeChunks:
    def test_pairs_preserve_order(self):
        stream = HexKeyStream(bytes([15, 15, 0, 0]))
        assert stream.take_digits(2, 2).tolist() == [[15, 15], [0, 0]]

    def test_pairs_exhaustion(self):
        stream = HexKeyStream(bytes([1, 2, 3]))
        with pytest.raises(KeyExhaustedError):
            stream.take_digits(2, 2)

    def test_cursor_advances_between_calls(self):
        stream = HexKeyStream(bytes([1, 2, 3, 4]))
        assert stream.take_digits(1, 2).tolist() == [[1, 2]]
        assert stream.take_digits(1, 2).tolist() == [[3, 4]]

    def test_triplets(self):
        stream = HexKeyStream(bytes([9, 15, 15, 7, 0, 1]))
        assert stream.take_digits(2, 3).tolist() == [[9, 15, 15], [7, 0, 1]]

    def test_triplets_exhaustion(self):
        stream = HexKeyStream(bytes([0, 1, 2, 3, 4]))
        with pytest.raises(KeyExhaustedError):
            stream.take_digits(2, 3)

    def test_zero_chunks_leave_cursor(self):
        stream = HexKeyStream(bytes([0, 1, 2]))
        assert stream.take_digits(0, 3).shape == (0, 3)
        assert stream.cursor == 0

    def test_digit_array_is_a_read_only_view_in_order(self):
        stream = HexKeyStream(bytes([9, 15, 15, 7, 0, 1, 4]))
        block = stream.take_digits(2, 3)
        assert block.shape == (2, 3)
        assert block.tolist() == [[9, 15, 15], [7, 0, 1]]
        assert not block.flags.writeable
        assert stream.cursor == 6
        with pytest.raises(KeyExhaustedError):
            stream.take_digits(1, 2)
        assert stream.cursor == 6

    @pytest.mark.parametrize("n, size", [(1, -1), (1, 0), (-1, 2)])
    def test_bad_shape_is_refused_before_the_cursor_moves(self, n, size):
        # take_digits(1, -1) once moved the cursor back a digit and handed it out again
        stream = mock_qkd_source(1, 10)
        stream.take_digits(2, 3)
        with pytest.raises(ValueError, match=r"size >= 1, got n=-?\d+, size=-?\d+$"):
            stream.take_digits(n, size)
        assert stream.cursor == 6
        assert stream.take_digits(1, 4).tobytes() == mock_qkd_source(1, 10).digits[6:]

    @pytest.mark.parametrize(
        "rewind",
        [
            lambda s: dataclasses.replace(s),
            lambda s: setattr(s, "cursor", 0),
            lambda s: setattr(s, "digits", bytes(10)),
            lambda s: setattr(s, "key_id", "other"),
            copy.copy,
            copy.deepcopy,
            pickle.dumps,
        ],
        ids=["replace", "cursor", "digits", "key_id", "copy", "deepcopy", "pickle"],
    )
    def test_consumed_digits_cannot_be_handed_out_again(self, rewind):
        # a dataclass stream was rewound or cloned by each of these and gave digits twice
        stream = mock_qkd_source(1, 10)
        first = stream.take_digits(5, 1).tobytes()
        with pytest.raises((AttributeError, TypeError)):
            rewind(stream)
        assert stream.cursor == 5 and stream.key_id == "mock-1"
        rest = stream.take_digits(5, 1).tobytes()
        assert first + rest == mock_qkd_source(1, 10).digits

    def test_stream_takes_no_new_attributes(self):
        with pytest.raises(AttributeError):
            HexKeyStream(bytes([1])).position = 0

    def test_exhaustion_does_not_consume(self):
        stream = HexKeyStream(bytes([1, 2, 3]))
        with pytest.raises(KeyExhaustedError):
            stream.take_digits(2, 2)
        assert stream.cursor == 0
        assert stream.take_digits(1, 2).tolist() == [[1, 2]]

    @given(
        st.binary(min_size=0, max_size=120).map(lambda b: bytes(v % 16 for v in b)),
        st.lists(
            st.tuples(st.sampled_from([2, 3]), st.integers(min_value=0, max_value=8)),
            max_size=12,
        ),
    )
    @settings(max_examples=200)
    def test_consumption_accounting(self, digits, operations):
        stream = HexKeyStream(digits)
        consumed = 0
        for size, n in operations:
            try:
                chunks = stream.take_digits(n, size)
            except KeyExhaustedError:
                continue
            assert chunks.tobytes() == digits[consumed : consumed + size * n]
            consumed += size * n
            assert chunks.shape == (n, size)
        assert stream.cursor == consumed
        # the consumed prefix is exactly the digits handed out, in order
        assert stream.digits[:consumed] == digits[:consumed]

    def test_digits_validated(self):
        with pytest.raises(ValueError):
            HexKeyStream(bytes([16]))

    @pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
    def test_mutable_buffer_is_copied_to_bytes(self, wrap):
        source = bytearray([1, 2, 3])
        stream = HexKeyStream(wrap(source))
        source[0] = 9  # the stream holds its own copy
        assert type(stream.digits) is bytes and stream.digits == bytes([1, 2, 3])

    def test_digit_out_of_range_at_the_end_of_a_long_stream(self):
        with pytest.raises(ValueError, match=r"\[0, 15\]"):
            HexKeyStream(bytes(range(16)) * 6000 + bytes([16]))


class TestKmsStore:
    def test_both_parties_get_identical_digits(self, tmp_path):
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(7, 32))
        a = store.get("mock-7", "A")
        b = store.get("mock-7", "B")
        assert a.digits == b.digits

    def test_consume_once_per_party(self, tmp_path):
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(7, 32))
        store.get("mock-7", "A")
        with pytest.raises(KeyConsumedError):
            store.get("mock-7", "A")

    def test_unknown_key(self, tmp_path):
        store = KmsStore(tmp_path)
        with pytest.raises(UnknownKeyError):
            store.get("nope", "A")

    def test_invalid_party(self, tmp_path):
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(7, 8))
        with pytest.raises(ValueError):
            store.get("mock-7", "C")

    def test_duplicate_add_rejected(self, tmp_path):
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(7, 8))
        with pytest.raises(ValueError):
            store.add(mock_qkd_source(7, 8))

    def test_persistence_round_trip(self, tmp_path):
        store = KmsStore(tmp_path / "kms")
        store.add(mock_qkd_source(5, 16))
        store.get("mock-5", "A")

        reopened = KmsStore.open_dir(tmp_path / "kms")
        assert _stored_ids(tmp_path / "kms") == ["mock-5"]
        # A's consumption survived the reopen, B's retrieval still works
        with pytest.raises(KeyConsumedError):
            reopened.get("mock-5", "A")
        assert reopened.get("mock-5", "B").digits == mock_qkd_source(5, 16).digits

    def test_reopening_with_the_constructor_keeps_consumption(self, tmp_path):
        store = KmsStore(tmp_path / "kms")
        store.add(mock_qkd_source(1, 16))
        store.get("mock-1", "A")

        reopened = KmsStore(tmp_path / "kms")
        assert _stored_ids(tmp_path / "kms") == ["mock-1"]
        with pytest.raises(ValueError, match="already stored"):
            reopened.add(mock_qkd_source(1, 16))
        with pytest.raises(KeyConsumedError):
            reopened.get("mock-1", "A")
        assert reopened.get("mock-1", "B").digits == mock_qkd_source(1, 16).digits

    def test_add_refuses_a_key_another_store_wrote(self, tmp_path):
        first, second = KmsStore(tmp_path / "kms"), KmsStore(tmp_path / "kms")
        first.add(mock_qkd_source(1, 16))
        first.get("mock-1", "A")
        with pytest.raises(ValueError, match="already stored"):
            second.add(mock_qkd_source(1, 16))
        # the second store reads the key file, and finds A's claim
        with pytest.raises(KeyConsumedError):
            second.get("mock-1", "A")

    def test_key_added_after_a_store_opened_is_served(self, tmp_path):
        early, late = KmsStore(tmp_path), KmsStore(tmp_path)
        late.add(mock_qkd_source(3, 16))
        assert early.get("mock-3", "A").digits == mock_qkd_source(3, 16).digits

    def test_corrupt_key_file_fails_only_its_own_id(self, tmp_path):
        (tmp_path / "bad.hex").write_text("xyz\n")
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(1, 16))
        assert store.get("mock-1", "A").digits == mock_qkd_source(1, 16).digits
        with pytest.raises(ValueError, match="bad.hex: invalid hex character 'x' at offset 0"):
            store.get("bad", "A")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.hex", "mock-1.A", "mock-1.hex"]

    def test_unknown_key_makes_no_claim(self, tmp_path):
        with pytest.raises(UnknownKeyError):
            KmsStore(tmp_path).get("nope", "B")
        assert list(tmp_path.iterdir()) == []

    def test_interleaved_adds_of_one_id_keep_the_first(self, tmp_path, monkeypatch):
        # store y adds the id with other digits while x's add is under way;
        # without an exclusive publish both adds succeed and A and B get different digits
        x, y = KmsStore(tmp_path), KmsStore(tmp_path)
        save = keys_module.save_keys

        def y_adds_first(stream, path):
            monkeypatch.setattr(keys_module, "save_keys", save)
            y.add(HexKeyStream(bytes([2] * 16), key_id="k"))
            save(stream, path)

        monkeypatch.setattr(keys_module, "save_keys", y_adds_first)
        with pytest.raises(ValueError, match="already stored"):
            x.add(HexKeyStream(bytes([1] * 16), key_id="k"))
        assert _stored_ids(tmp_path) == ["k"]  # y's key, not x's
        assert KmsStore(tmp_path).get("k", "A").digits == y.get("k", "B").digits == bytes([2] * 16)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.A", "k.B", "k.hex"]

    def test_concurrent_gets_consume_exactly_once(self, tmp_path):
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(11, 64))
        assert _race_for_key([store], "mock-11") == ["A", "B"]

    def test_threads_over_two_stores_consume_exactly_once(self, tmp_path):
        first = KmsStore(tmp_path)
        first.add(mock_qkd_source(11, 64))
        second = KmsStore(tmp_path)
        assert _race_for_key([first, second], "mock-11") == ["A", "B"]

    def test_second_store_refuses_what_the_first_handed_out(self, tmp_path):
        first = KmsStore(tmp_path)
        first.add(mock_qkd_source(1, 16))
        second = KmsStore(tmp_path)
        first.get("mock-1", "A")
        with pytest.raises(KeyConsumedError):
            second.get("mock-1", "A")
        second.get("mock-1", "B")
        with pytest.raises(KeyConsumedError):
            first.get("mock-1", "B")

    def test_retrieval_creates_one_claim_file_per_party(self, tmp_path):
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(1, 16))
        store.get("mock-1", "B")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mock-1.B", "mock-1.hex"]
        assert (tmp_path / "mock-1.B").read_bytes() == b""

    def test_hand_made_claim_file_refuses_that_party(self, tmp_path):
        KmsStore(tmp_path).add(mock_qkd_source(1, 16))
        (tmp_path / "mock-1.A").touch()
        fresh = KmsStore(tmp_path)
        with pytest.raises(KeyConsumedError):
            fresh.get("mock-1", "A")
        assert fresh.get("mock-1", "B").digits == mock_qkd_source(1, 16).digits

    def test_failed_sync_keeps_the_claim_and_returns_nothing(self, tmp_path, monkeypatch):
        store = KmsStore(tmp_path)
        store.add(mock_qkd_source(1, 16))

        def failing_fsync(fd):
            raise OSError("disk gone")

        with monkeypatch.context() as patch:
            patch.setattr(keys_module.os, "fsync", failing_fsync)
            with pytest.raises(OSError, match="disk gone"):
                store.get("mock-1", "A")
        with pytest.raises(KeyConsumedError):
            KmsStore(tmp_path).get("mock-1", "A")

    def test_cut_key_write_leaves_no_key_file(self, tmp_path, monkeypatch):
        def cut_write(path, text):
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("write cut")

        monkeypatch.setattr(keys_module, "write_text", cut_write)
        with pytest.raises(OSError, match="write cut"):
            KmsStore(tmp_path).add(mock_qkd_source(1, 16))
        assert list(tmp_path.iterdir()) == []  # no key file and no temporary file

    def test_old_consume_log_is_refused(self, tmp_path):
        (tmp_path / "consumed.txt").write_text("mock-1,A\n")
        with pytest.raises(ValueError, match="consumed.txt"):
            KmsStore(tmp_path)

    @pytest.mark.parametrize("key_id", ["../escaped", "a/b", ""])
    def test_id_that_names_no_file_in_the_directory_is_refused(self, tmp_path, key_id):
        store = KmsStore(tmp_path / "store")
        with pytest.raises(ValueError, match="does not name a file"):
            store.add(HexKeyStream(bytes([1, 2, 3]), key_id=key_id))
        assert list(tmp_path.rglob("*")) == [tmp_path / "store"]

    @pytest.mark.parametrize("key_id", ["../x", "a/b", "", "x\0"])
    def test_get_of_an_id_that_names_no_file_in_the_directory_is_unknown(self, tmp_path, key_id):
        # a key file outside the store, and one in a subdirectory, are not read or claimed
        (tmp_path / "x.hex").write_text("ab\n")
        (tmp_path / "store" / "a").mkdir(parents=True)
        (tmp_path / "store" / "a" / "b.hex").write_text("ab\n")
        before = sorted(tmp_path.rglob("*"))
        store = KmsStore(tmp_path / "store")
        for party in ("A", "B"):
            with pytest.raises(UnknownKeyError):
                store.get(key_id, party)
        assert sorted(tmp_path.rglob("*")) == before

    def test_dotted_id_is_stored_and_reopened(self, tmp_path):
        KmsStore(tmp_path).add(HexKeyStream(bytes([1, 2, 3]), key_id="a.b"))
        reopened = KmsStore(tmp_path)
        assert _stored_ids(tmp_path) == ["a.b"]
        assert reopened.get("a.b", "A").digits == bytes([1, 2, 3])

    def test_store_needs_a_directory(self):
        with pytest.raises(TypeError):
            KmsStore()


def _race_for_key(stores, key_id):
    """Eight threads, alternating parties and spread over the stores, each
    try to retrieve key_id once; returns the parties that got it, sorted."""
    results = []
    barrier = threading.Barrier(8)

    def worker(store, party):
        barrier.wait()
        try:
            store.get(key_id, party)
            results.append(("ok", party))
        except KeyConsumedError:
            results.append(("dup", party))

    threads = [
        threading.Thread(target=worker, args=(stores[i // 2 % len(stores)], "A" if i % 2 else "B"))
        for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    return sorted(party for status, party in results if status == "ok")
