import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from timecloak.keys import (
    HexKeyStream,
    HexParseError,
    KeyConsumedError,
    KeyExhaustedError,
    KmsStore,
    UnknownKeyError,
    load_keys,
    mock_qkd_source,
    save_keys,
)


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
        with pytest.raises(HexParseError) as info:
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
        with pytest.raises(HexParseError, match="offset 0"):
            load_keys(_write_key(tmp_path, "bad.hex", "GZ"))

    def test_invalid_character_later_offset(self, tmp_path):
        with pytest.raises(HexParseError, match="offset 3"):
            load_keys(_write_key(tmp_path, "bad2.hex", "ab1x"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(HexParseError, match="no hexadecimal digits"):
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


class TestKmsStore:
    def test_both_parties_get_identical_digits(self):
        store = KmsStore()
        store.add(mock_qkd_source(7, 32))
        a = store.get("mock-7", "A")
        b = store.get("mock-7", "B")
        assert a.digits == b.digits

    def test_consume_once_per_party(self):
        store = KmsStore()
        store.add(mock_qkd_source(7, 32))
        store.get("mock-7", "A")
        with pytest.raises(KeyConsumedError):
            store.get("mock-7", "A")

    def test_unknown_key(self):
        store = KmsStore()
        with pytest.raises(UnknownKeyError):
            store.get("nope", "A")

    def test_invalid_party(self):
        store = KmsStore()
        store.add(mock_qkd_source(7, 8))
        with pytest.raises(ValueError):
            store.get("mock-7", "C")

    def test_duplicate_add_rejected(self):
        store = KmsStore()
        store.add(mock_qkd_source(7, 8))
        with pytest.raises(ValueError):
            store.add(mock_qkd_source(7, 8))

    def test_persistence_round_trip(self, tmp_path):
        store = KmsStore(tmp_path / "kms")
        store.add(mock_qkd_source(5, 16))
        store.get("mock-5", "A")

        reopened = KmsStore.open_dir(tmp_path / "kms")
        assert reopened.key_ids() == ["mock-5"]
        # A's consumption survived the reopen, B's retrieval still works
        with pytest.raises(KeyConsumedError):
            reopened.get("mock-5", "A")
        assert reopened.get("mock-5", "B").digits == mock_qkd_source(5, 16).digits

    def test_reopening_with_the_constructor_keeps_consumption(self, tmp_path):
        store = KmsStore(tmp_path / "kms")
        store.add(mock_qkd_source(1, 16))
        store.get("mock-1", "A")

        reopened = KmsStore(tmp_path / "kms")
        assert reopened.key_ids() == ["mock-1"]
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
        with pytest.raises(UnknownKeyError):
            second.get("mock-1", "A")

    def test_concurrent_gets_consume_exactly_once(self):
        store = KmsStore()
        store.add(mock_qkd_source(11, 64))
        results = []
        barrier = threading.Barrier(8)

        def worker(party):
            barrier.wait()
            try:
                store.get("mock-11", party)
                results.append(("ok", party))
            except KeyConsumedError:
                results.append(("dup", party))

        threads = [threading.Thread(target=worker, args=("A" if i % 2 else "B",)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ok = [party for status, party in results if status == "ok"]
        assert sorted(ok) == ["A", "B"]
