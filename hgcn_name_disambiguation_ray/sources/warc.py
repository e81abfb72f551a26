"""WARC source (ISO 28500) — the Common Crawl container format.

The engine's north-star input is a Common-Crawl-style pages table
(url, warc_ts, html, ...); this module closes the loop from the actual
crawl archives to that table with no external library: stdlib zlib
handles the member-per-record gzip layout Common Crawl ships
(`.warc.gz` / `.warc.wet.gz` are CONCATENATED gzip members, one per
record, so archives are splittable at member boundaries), and the WARC
record grammar is a CRLF header block + Content-Length payload.

`read_warc` distributes one parse task per archive path (Common Crawl
segments are ~1 GB, the natural block unit): a `from_items` over the
path list, then a `map_batches` that reads each archive through
pyarrow.fs with compression pinned OFF (Arrow would otherwise infer
gzip from the .gz extension and decompress inside the read operator,
where a corrupt member is an uncatchable OSError) and emits one row per
response/conversion record with the pages-table shape. At 256-node
scale the path list is the partitioning; no shuffle anywhere.

`synth_warc` writes spec-shaped archives (warcinfo record + per-record
gzip members, WARC/1.0 headers) so tests and the oracle query can round
trip without external data.
"""

from __future__ import annotations

import re
import zlib
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa
from ray.data import Dataset

_GZ_MAGIC = b"\x1f\x8b"


def gunzip_members(data: bytes) -> bytes:
    """Decompress a stream of CONCATENATED gzip members (the WARC
    layout), surfacing truncation/corruption as ValueError.

    Streams fixed-size memoryview slices into each decompressobj and
    advances an offset: `unused_data` then copies at most one chunk's
    tail per member, keeping the whole pass linear — a 1 GB segment has
    tens of thousands of members, so the naive feed-the-whole-remainder
    loop would memcpy quadratically."""
    out = bytearray()
    mv = memoryview(data)
    n = len(mv)
    pos = 0
    chunk_size = 1 << 20
    while pos < n:
        d = zlib.decompressobj(31)  # 31 = gzip wrapper
        fed = 0
        try:
            while not d.eof and pos + fed < n:
                chunk = mv[pos + fed : pos + fed + chunk_size]
                out += d.decompress(chunk)
                fed += len(chunk)
            out += d.flush()
        except zlib.error as e:
            raise ValueError(f"corrupt gzip member in WARC ({e})") from e
        if not d.eof:
            raise ValueError("truncated gzip member in WARC")
        pos += fed - len(d.unused_data)
    return bytes(out)


def _parse_warc_date(s: str) -> int:
    """WARC-Date (ISO 8601, e.g. 2020-09-13T12:26:40Z) -> epoch micros;
    0 when absent/unparseable (a missing date must not kill the record)."""
    try:
        dt = datetime.fromisoformat(s.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp() * 1_000_000)
    except ValueError:
        return 0


def parse_warc(data: bytes) -> list[dict]:
    """WARC bytes (plain or gzip-member stream) -> list of records, each
    {"headers": {lowercased name: value}, "payload": bytes}. Raises
    ValueError on structural corruption."""
    if data[:2] == _GZ_MAGIC:
        data = gunzip_members(data)
    records: list[dict] = []
    pos = 0
    n = len(data)
    while pos < n:
        while data.startswith(b"\r\n", pos) or data.startswith(b"\n", pos):
            pos += 2 if data.startswith(b"\r\n", pos) else 1
        if pos >= n:
            break
        end_hdr = data.find(b"\r\n\r\n", pos)
        if end_hdr < 0:
            raise ValueError("truncated WARC header block")
        head_lines = data[pos:end_hdr].decode("utf-8", "replace").split("\r\n")
        if not head_lines[0].startswith("WARC/"):
            raise ValueError("not a WARC record (missing version line)")
        headers: dict[str, str] = {}
        for line in head_lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as e:
            raise ValueError("corrupt WARC Content-Length") from e
        start = end_hdr + 4
        payload = data[start : start + length]
        if len(payload) < length:
            raise ValueError("truncated WARC payload")
        records.append({"headers": headers, "payload": payload})
        pos = start + length
    return records


# trailer section after the last chunk: *(field-line CRLF) CRLF, a field
# line being `token ":" value` (RFC 7230 §4.1.2, §3.2)
_TRAILER = re.compile(rb"(?:[!#$%&'*+.^_`|~0-9A-Za-z-]+:[^\r\n]*\r\n)*\r\n")


def _dechunk(body: bytes) -> bytes:
    """Undo Transfer-Encoding: chunked framing (hex size line + CRLF per
    chunk, 0-size terminator). Raises ValueError on broken framing."""
    out = bytearray()
    pos = 0
    while True:
        eol = body.find(b"\r\n", pos)
        if eol < 0:
            raise ValueError("corrupt chunked encoding (missing size line)")
        size_field = body[pos:eol].split(b";")[0].strip()
        try:
            size = int(size_field, 16)
        except ValueError as e:
            raise ValueError("corrupt chunked encoding (bad chunk size)") from e
        if size < 0:
            # int(b"-6", 16) parses; without this check a negative size
            # walks pos backwards and loops forever growing `out`
            raise ValueError("corrupt chunked encoding (negative chunk size)")
        pos = eol + 2
        if size == 0:
            # last-chunk must be followed by optional trailer fields and
            # the terminating CRLF (or nothing, for truncated-at-the-
            # boundary captures); a plain body that merely STARTS with
            # "0\r\n" must not silently decode to empty
            if pos < len(body) and not _TRAILER.fullmatch(body, pos):
                raise ValueError("corrupt chunked encoding (bad terminator)")
            break
        if pos + size > len(body):
            raise ValueError("corrupt chunked encoding (chunk past end)")
        out += body[pos : pos + size]
        # the CRLF after the chunk data is mandatory; treating its absence
        # as corruption (-> raw-body fallback) protects already-de-chunked
        # bodies whose first line merely LOOKS like a hex size
        if body[pos + size : pos + size + 2] != b"\r\n":
            raise ValueError("corrupt chunked encoding (missing chunk CRLF)")
        pos += size + 2
    return bytes(out)


def strip_http_headers(payload: bytes) -> bytes:
    """A WARC `response` payload is the HTTP message AS CAPTURED; the
    body starts after the first blank line and may still carry its
    transport/content encodings. This undoes both: Transfer-Encoding:
    chunked de-framing, then Content-Encoding gzip/x-gzip/deflate
    decompression — real crawlers (wget/Heritrix) store exactly these.
    Decoding is best-effort: a body whose declared encoding fails to
    decode comes back raw rather than killing the archive (crawl
    captures are routinely truncated mid-body). Payloads without an
    HTTP status line pass through unchanged (mislabeled records)."""
    if not payload.startswith(b"HTTP/"):
        return payload
    sep = payload.find(b"\r\n\r\n")
    if sep < 0:
        return payload
    body = payload[sep + 4 :]
    te = ce = ""
    for line in payload[:sep].decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "transfer-encoding":
            te = value.strip().lower()
        elif name == "content-encoding":
            ce = value.strip().lower()
    if "chunked" in te:
        try:
            body = _dechunk(body)
        except ValueError:
            # broken/already-undone framing: keep the raw body but STILL
            # attempt the content decode below — a crawler that de-chunked
            # while preserving headers leaves valid gzip here
            pass
    if ce in ("gzip", "x-gzip", "deflate"):
        try:
            # wbits=47 auto-detects zlib/gzip wrappers; raw deflate
            # (the historically misimplemented variant) needs -15
            try:
                body = zlib.decompress(body, 47)
            except zlib.error:
                body = zlib.decompress(body, -15)
        except zlib.error:
            pass  # truncated/corrupt capture: keep the raw bytes
    return body


def read_warc(
    paths: str | list[str],
    record_types: tuple[str, ...] = ("response", "conversion"),
    strip_http: bool = True,
    on_error: str = "raise",
) -> Dataset:
    """WARC archive path(s) -> Dataset(url, warc_ts, payload, warc_type).

    One input archive = one parse unit (Common Crawl segments are the
    natural block unit), read inside the map task through pyarrow.fs
    with compression=None — Arrow's reader would otherwise infer gzip
    from the .gz extension and decompress inside the read operator,
    where a corrupt member is an uncatchable OSError; raw bytes keep
    the gzip-member handling (and its ValueError contract) in
    parse_warc. `on_error="skip"` drops corrupt/unreadable ARCHIVES
    instead of failing the job — the resumable-ingest contract."""
    import ray.data as rd

    if on_error not in ("raise", "skip"):
        raise ValueError("on_error must be 'raise' or 'skip'")
    if isinstance(paths, str):
        paths = [paths]
    files = rd.from_items([{"path": p} for p in paths])

    def _read_raw(path: str) -> bytes:
        import pyarrow.fs as pafs

        if "://" in path:
            fs, rel = pafs.FileSystem.from_uri(path)
        else:
            fs, rel = pafs.LocalFileSystem(), path
        with fs.open_input_stream(rel, compression=None) as f:
            return f.read()

    def to_rows(t: pa.Table) -> pa.Table:
        urls: list[str] = []
        tss: list[int] = []
        payloads: list[bytes] = []
        types: list[str] = []
        for path in t["path"].to_pylist():
            try:
                recs = parse_warc(_read_raw(path))
            except (ValueError, OSError) as e:
                if on_error == "skip":
                    continue
                if isinstance(e, ValueError):
                    raise
                raise ValueError(f"unreadable WARC archive {path}: {e}") from e
            for rec in recs:
                h = rec["headers"]
                wtype = h.get("warc-type", "")
                if wtype not in record_types:
                    continue
                body = rec["payload"]
                if strip_http and wtype == "response":
                    body = strip_http_headers(body)
                urls.append(h.get("warc-target-uri", ""))
                tss.append(_parse_warc_date(h.get("warc-date", "")))
                payloads.append(body)
                types.append(wtype)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(
                    np.asarray(tss, dtype=np.int64), pa.timestamp("us")
                ),
                "payload": pa.array(payloads, pa.binary()),
                "warc_type": pa.array(types, pa.string()),
            }
        )

    return files.map_batches(to_rows, batch_format="pyarrow")


def warc_pages(
    paths: str | list[str], on_error: str = "raise"
) -> Dataset:
    """WARC archives -> the engine's pages-table shape (url, warc_ts,
    html) — plug the result straight into `run_linkage`."""

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url": t["url"], "warc_ts": t["warc_ts"], "html": t["payload"]}
        )

    return read_warc(
        paths, record_types=("response",), strip_http=True, on_error=on_error
    ).map_batches(rename, batch_format="pyarrow")


# -- writer (tests / oracle round trips; spec-shaped output) -----------------


def _warc_record(headers: list[tuple[str, str]], payload: bytes) -> bytes:
    head = "WARC/1.0\r\n" + "".join(f"{k}: {v}\r\n" for k, v in headers)
    head += f"Content-Length: {len(payload)}\r\n\r\n"
    return head.encode("utf-8") + payload + b"\r\n\r\n"


def synth_warc(
    records: list[dict],
    gzip_per_record: bool = True,
    with_http_headers: bool = True,
) -> bytes:
    """records: [{"url", "date" (ISO 8601 str), "payload" (bytes),
    "type" ("response"|"conversion")}] -> WARC bytes, Common-Crawl
    style: a warcinfo record first, then one (optionally gzip-member)
    record per page; `with_http_headers` wraps response payloads in a
    minimal HTTP/1.1 message like real crawl captures."""
    chunks: list[bytes] = []
    info = _warc_record(
        [
            ("WARC-Type", "warcinfo"),
            ("WARC-Date", "2020-09-13T12:00:00Z"),
            ("WARC-Record-ID", "<urn:uuid:00000000-0000-0000-0000-000000000000>"),
            ("Content-Type", "application/warc-fields"),
        ],
        b"software: hgcn-name-disambiguation-ray synth_warc\r\n",
    )
    chunks.append(info)
    for i, rec in enumerate(records):
        payload = rec["payload"]
        rtype = rec.get("type", "response")
        if rtype == "response" and with_http_headers:
            payload = (
                b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
        chunks.append(
            _warc_record(
                [
                    ("WARC-Type", rtype),
                    ("WARC-Target-URI", rec["url"]),
                    ("WARC-Date", rec.get("date", "2020-09-13T12:26:40Z")),
                    ("WARC-Record-ID", f"<urn:uuid:{i:032x}>"),
                    (
                        "Content-Type",
                        "application/http; msgtype=response"
                        if rtype == "response"
                        else "text/plain",
                    ),
                ],
                payload,
            )
        )
    if gzip_per_record:
        out = bytearray()
        for c in chunks:
            co = zlib.compressobj(6, zlib.DEFLATED, 31)
            out += co.compress(c) + co.flush()
        return bytes(out)
    return b"".join(chunks)
