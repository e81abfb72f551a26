"""WARC source (sources/warc.py): record grammar, gzip-member layout,
HTTP stripping, the Ray read path, and crawl-archive -> linkage parity."""

import numpy as np
import pytest

from hgcn_name_disambiguation_ray.sources.warc import (
    gunzip_members,
    parse_warc,
    read_warc,
    strip_http_headers,
    synth_warc,
    warc_pages,
)

RECS = [
    {"url": "https://a.test/1", "date": "2020-09-13T12:26:40Z",
     "payload": b"<html>one</html>", "type": "response"},
    {"url": "https://a.test/2", "date": "2021-01-01T00:00:00Z",
     "payload": b"plain text two", "type": "conversion"},
    {"url": "https://a.test/3", "date": "2021-06-01T08:30:00Z",
     "payload": b"\x00\xffbinary<>\r\n\r\npayload", "type": "response"},
]


@pytest.mark.parametrize("gz", [True, False])
def test_roundtrip_both_layouts(gz):
    data = synth_warc(RECS, gzip_per_record=gz)
    parsed = parse_warc(data)
    assert parsed[0]["headers"]["warc-type"] == "warcinfo"
    body = [p for p in parsed[1:]]
    assert [b["headers"]["warc-target-uri"] for b in body] == [r["url"] for r in RECS]
    for b, r in zip(body, RECS):
        got = b["payload"]
        if r["type"] == "response":
            got = strip_http_headers(got)
        assert got == r["payload"]  # byte-exact incl. CRLF inside binary


def test_gzip_members_are_individually_valid():
    """Common Crawl layout: each record its own gzip member, so archives
    split at member boundaries. The concatenation must decompress to the
    plain layout exactly."""
    gz = synth_warc(RECS, gzip_per_record=True)
    plain = synth_warc(RECS, gzip_per_record=False)
    assert gunzip_members(gz) == plain


def test_truncation_and_corruption_raise_valueerror():
    data = synth_warc(RECS, gzip_per_record=True)
    for cut in (5, len(data) // 3, len(data) // 2, len(data) - 3):
        with pytest.raises(ValueError):
            parse_warc(data[:cut])
    plain = synth_warc(RECS, gzip_per_record=False)
    with pytest.raises(ValueError):
        parse_warc(plain[: len(plain) - 10])
    with pytest.raises(ValueError):
        parse_warc(b"NOT A WARC\r\n\r\n")


def test_strip_http_headers_passthrough():
    assert strip_http_headers(b"no http here") == b"no http here"
    assert strip_http_headers(b"HTTP/1.1 200 OK\r\nA: b\r\n\r\nBODY") == b"BODY"


def test_read_warc_dataset(ray_session, tmp_path):
    p = tmp_path / "a.warc.gz"
    p.write_bytes(synth_warc(RECS, gzip_per_record=True))
    df = read_warc(str(p)).to_pandas().sort_values("url").reset_index(drop=True)
    assert list(df["url"]) == [r["url"] for r in RECS]
    assert list(df["warc_type"]) == ["response", "conversion", "response"]
    assert bytes(df["payload"][0]) == b"<html>one</html>"  # HTTP stripped
    # WARC-Date parsed to real timestamps
    assert str(df["warc_ts"][0]).startswith("2020-09-13 12:26:40")


def test_read_warc_on_error_skip(ray_session, tmp_path):
    good = tmp_path / "good.warc.gz"
    good.write_bytes(synth_warc(RECS, gzip_per_record=True))
    bad = tmp_path / "bad.warc.gz"
    bad.write_bytes(b"\x1f\x8bgarbage not gzip at all")
    with pytest.raises(Exception):
        read_warc([str(good), str(bad)]).to_pandas()
    df = read_warc([str(good), str(bad)], on_error="skip").to_pandas()
    assert len(df) == len(RECS)  # the corrupt archive dropped, not the job


def test_warc_pages_feeds_linkage_identically(ray_session, tmp_path):
    """The full crawl-archive story: fixture pages exported as a WARC
    archive, ingested via warc_pages, run through run_linkage — clusters
    must be IDENTICAL to running over the parquet pages directly."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    paths = write_fixture(
        FixtureSpec(n_names=2, persons_per_name=2, docs_per_person=6),
        str(tmp_path / "fixture"),
    )
    pages = pq.read_table(paths["pages"])
    recs = [
        {"url": u, "date": "2020-09-13T12:26:40Z", "payload": h, "type": "response"}
        for u, h in zip(pages["url"].to_pylist(), pages["html"].to_pylist())
    ]
    # two shards to exercise the multi-archive read
    mid = len(recs) // 2
    w1, w2 = tmp_path / "p1.warc.gz", tmp_path / "p2.warc.gz"
    w1.write_bytes(synth_warc(recs[:mid], gzip_per_record=True))
    w2.write_bytes(synth_warc(recs[mid:], gzip_per_record=True))

    def norm(ds) -> pd.DataFrame:
        return (
            ds.to_pandas()[["block_key", "mention_id", "cluster_id"]]
            .sort_values(["block_key", "mention_id"])
            .reset_index(drop=True)
        )

    from_warc = norm(run_linkage(warc_pages([str(w1), str(w2)]), LinkageConfig()))
    from_parquet = norm(run_linkage(rd.read_parquet(paths["pages"]), LinkageConfig()))
    pd.testing.assert_frame_equal(from_warc, from_parquet)


def test_http_chunked_and_content_encoding_decode():
    """Real crawl captures store the HTTP message as transmitted:
    chunked transfer framing and gzip/deflate content encodings must be
    undone; broken/truncated encodings fall back to raw bytes instead of
    killing the archive."""
    import zlib

    body = b"<html>the real body</html>"
    # chunked framing
    chunked = b"".join(
        b"%x\r\n%s\r\n" % (len(c), c) for c in (body[:7], body[7:])
    ) + b"0\r\n\r\n"
    msg = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked
    )
    assert strip_http_headers(msg) == body
    # gzip content encoding
    co = zlib.compressobj(6, zlib.DEFLATED, 31)
    gz = co.compress(body) + co.flush()
    msg = b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n\r\n" + gz
    assert strip_http_headers(msg) == body
    # chunked + gzip together (transport framing outside, content inside)
    chunked_gz = b"%x\r\n%s\r\n0\r\n\r\n" % (len(gz), gz)
    msg = (
        b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n" + chunked_gz
    )
    assert strip_http_headers(msg) == body
    # raw deflate (the historically misimplemented variant)
    raw = zlib.compressobj(6, zlib.DEFLATED, -15)
    msg = (
        b"HTTP/1.1 200 OK\r\nContent-Encoding: deflate\r\n\r\n"
        + raw.compress(body) + raw.flush()
    )
    assert strip_http_headers(msg) == body
    # truncated gzip: best-effort raw fallback, never an exception
    msg = b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n\r\n" + gz[:10]
    assert strip_http_headers(msg) == gz[:10]
    # broken chunk framing: raw fallback
    msg = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZZ\r\nnope"
    assert strip_http_headers(msg) == b"ZZZ\r\nnope"


def test_chunked_response_record_roundtrip(ray_session, tmp_path):
    """A WARC response record captured with chunked+gzip encodings must
    come out of read_warc as the decoded body."""
    import zlib

    body = b"<html>chunk me</html>"
    co = zlib.compressobj(6, zlib.DEFLATED, 31)
    gz = co.compress(body) + co.flush()
    http = (
        b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n%s\r\n0\r\n\r\n" % (len(gz), gz)
    )
    # payload already a full HTTP message: synth must not re-wrap
    data = synth_warc(
        [{"url": "https://c.test/x", "payload": http, "type": "response"}],
        with_http_headers=False,
    )
    p = tmp_path / "c.warc.gz"
    p.write_bytes(data)
    df = read_warc(str(p)).to_pandas()
    assert bytes(df["payload"][0]) == body


def test_dechunk_adversarial_inputs_never_hang():
    """Review findings: a negative hex chunk size must raise (it used to
    walk pos backwards and loop forever), a missing chunk CRLF must raise
    (it used to silently truncate already-de-chunked bodies), and a
    chunked+gzip header pair over an already-de-chunked gzip body must
    still reach the content decode."""
    import zlib

    from hgcn_name_disambiguation_ray.sources.warc import _dechunk

    with pytest.raises(ValueError, match="negative"):
        _dechunk(b"-6\r\n" + b"X" * 100)
    # coincidental hex first line without proper chunk CRLF framing
    with pytest.raises(ValueError, match="CRLF"):
        _dechunk(b"5\r\nAAAAAno-crlf-here")
    # a plain body starting "0\r\n" must NOT silently become empty
    with pytest.raises(ValueError):
        _dechunk(b"0\r\nplain text that is not chunked")
    # RFC 7230 trailer fields after the last chunk decode, they are not
    # framing errors (which would fall back to the raw framed body)
    assert _dechunk(b"5\r\nhello\r\n0\r\nExpires: never\r\nX-Sum: a1\r\n\r\n") == b"hello"
    with pytest.raises(ValueError):
        _dechunk(b"5\r\nhello\r\n0\r\nExpires: never\r\n")  # no final CRLF
    # de-chunked-but-still-compressed capture: content decode still runs
    body = b"<html>still compressed</html>"
    co = zlib.compressobj(6, zlib.DEFLATED, 31)
    gz = co.compress(body) + co.flush()
    msg = (
        b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n" + gz  # NOT chunk-framed
    )
    assert strip_http_headers(msg) == body
