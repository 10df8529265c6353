//! Minimal HTTP/1.1 plumbing for the evaluation service.
//!
//! The workspace is offline, so the wire layer is hand-rolled over
//! `std::net`: enough HTTP/1.1 to serve `curl` and the bundled client —
//! request line, headers, `Content-Length` bodies, `Connection: close`
//! responses. Responses stream: progress lines flush as the job executes
//! (`Transfer-Encoding` is avoided by closing the connection to delimit
//! the body, which every HTTP/1.1 client understands). Deliberately *not*
//! a web framework: no keep-alive, no chunked encoding, no routing table
//! — the service has a handful of endpoints.
//!
//! Sockets carry read/write deadlines (set by the server before parsing):
//! a stalled or slow-loris client surfaces as [`ReadError::Timeout`],
//! which the server answers with `408` instead of pinning a connection
//! worker forever.
//!
//! Every message is formatted into one buffer and handed to the socket
//! in one `write_all`: a request, a complete response, and each chunk of
//! a streamed response (see [`StreamingResponse`]). `write!` straight
//! onto a `TcpStream` would issue a system call, and with the server's
//! `TCP_NODELAY` a segment, per format fragment.

use std::io::{BufRead, Write};

/// Largest accepted request body. A job spec is a few hundred bytes; a
/// megabyte bound keeps a misbehaving client from ballooning the server.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed HTTP request: method, path (query split off), body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request target without the query string (`/jobs`, `/stats`).
    pub path: String,
    /// Raw query string after `?` (empty when absent). The service's
    /// only query knob is `wait=1`; see [`Request::query_flag`].
    pub query: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// True when the query string carries `name=1` (exact token match —
    /// `wait=2` or `wait` alone is not a flag).
    pub fn query_flag(&self, name: &str) -> bool {
        self.query
            .split('&')
            .any(|kv| kv.strip_prefix(name).and_then(|r| r.strip_prefix('=')) == Some("1"))
    }
}

/// Why a request could not be read. The server's answer differs per
/// variant: `Closed` is silence (the client never sent anything worth
/// diagnosing), `Timeout` is `408`, `Malformed` is `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Clean EOF before any request byte — the client connected and hung
    /// up (health probes and port scans do this); nothing to answer.
    Closed,
    /// The socket's read deadline expired mid-request (slow-loris or a
    /// stalled client).
    Timeout,
    /// The bytes that did arrive are not a valid request; the payload is
    /// the client-facing diagnostic.
    Malformed(String),
}

fn io_read_error(context: &str, e: &std::io::Error) -> ReadError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ReadError::Timeout,
        _ => ReadError::Malformed(format!("{context}: {e}")),
    }
}

/// Read one request off `r`.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ReadError> {
    let mut line = String::new();
    let n = r
        .read_line(&mut line)
        .map_err(|e| io_read_error("reading request line", &e))?;
    if n == 0 {
        return Err(ReadError::Closed);
    }
    let malformed = |m: String| ReadError::Malformed(m);
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| malformed("request line missing path".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    let version = parts
        .next()
        .ok_or_else(|| malformed("request line missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported protocol {version:?}")));
    }

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header)
            .map_err(|e| io_read_error("reading header", &e))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(malformed(format!("malformed header {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed(format!("bad Content-Length {value:?}")))?;
            if content_length > MAX_BODY_BYTES {
                return Err(malformed(format!(
                    "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )));
            }
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        std::io::Read::read_exact(r, &mut body)
            .map_err(|e| io_read_error(&format!("reading {content_length}-byte body"), &e))?;
    }
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Write a complete response with a known body.
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_with_headers(w, status, reason, content_type, &[], body)
}

/// [`respond`] with extra headers (`Retry-After`, `Location`, ...), each
/// a `(name, value)` pair. The whole response leaves in one write.
pub fn respond_with_headers<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut out = response_head(status, reason, content_type, Some(body.len()), extra);
    out.extend_from_slice(body.as_bytes());
    w.write_all(&out)?;
    w.flush()
}

/// Status line and headers through the blank line that ends them, with
/// a `Content-Length` when the body's length is known in advance.
fn response_head(
    status: u16,
    reason: &str,
    content_type: &str,
    content_length: Option<usize>,
    extra: &[(&str, String)],
) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n");
    if let Some(n) = content_length {
        head.push_str(&format!("Content-Length: {n}\r\n"));
    }
    head.push_str("Connection: close\r\n");
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// A streaming response: `200` with no `Content-Length` (the connection
/// close delimits the body), sent one chunk at a time. Body text written
/// to it collects in a buffer, and each [`flush`](Write::flush) hands
/// the buffer to the socket in one `write_all`: the status line and
/// headers wait for the first flush and leave with the first chunk.
/// Until then nothing is on the wire, so the caller can still drop the
/// stream (see [`StreamingResponse::started`]) and answer with an error
/// status instead.
pub struct StreamingResponse<W: Write> {
    inner: W,
    pending: Vec<u8>,
    started: bool,
}

impl<W: Write> StreamingResponse<W> {
    /// Buffer the status line and headers (`X-Job-Id`, ...) of a
    /// streaming response of `content_type` on `inner`.
    pub fn new(inner: W, content_type: &str, extra: &[(&str, String)]) -> Self {
        StreamingResponse {
            inner,
            pending: response_head(200, "OK", content_type, None, extra),
            started: false,
        }
    }

    /// Whether the headers are on the wire (a flush has sent them).
    pub fn started(&self) -> bool {
        self.started
    }

    /// The underlying writer; unsent bytes are dropped.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for StreamingResponse<W> {
    /// Append to the pending chunk; nothing reaches the socket.
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    /// Send the pending chunk (with the headers, the first time) in one
    /// `write_all`.
    fn flush(&mut self) -> std::io::Result<()> {
        if !self.pending.is_empty() {
            self.inner.write_all(&self.pending)?;
            self.pending.clear();
            self.started = true;
        }
        self.inner.flush()
    }
}

/// Send a request with a `Content-Length` body (empty for none) in one
/// write: request line, headers and body.
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: addict\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    w.write_all(request.as_bytes())?;
    w.flush()
}

/// A parsed response with the headers the client cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Retry-After` in seconds, when the server sent one (the overload
    /// answers do) and it parsed as an integer.
    pub retry_after: Option<u64>,
    /// Body text.
    pub body: String,
}

/// Parse a response off `r`. Reads to EOF when no `Content-Length` is
/// present (the server's streaming mode).
pub fn read_response_meta<R: BufRead>(r: &mut R) -> Result<Response, String> {
    let mut line = String::new();
    r.read_line(&mut line)
        .map_err(|e| format!("reading status line: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    loop {
        let mut header = String::new();
        r.read_line(&mut header)
            .map_err(|e| format!("reading header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            std::io::Read::read_exact(r, &mut body)
                .map_err(|e| format!("reading {n}-byte body: {e}"))?;
        }
        None => {
            std::io::Read::read_to_end(r, &mut body)
                .map_err(|e| format!("reading streamed body: {e}"))?;
        }
    }
    let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8".to_owned())?;
    Ok(Response {
        status,
        retry_after,
        body,
    })
}

/// Parse a response off `r`: `(status, body)`.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<(u16, String), String> {
    read_response_meta(r).map(|r| (r.status, r.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_post_with_body() {
        let raw = "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query, "");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_get_without_body() {
        let req = read_request(&mut Cursor::new("GET /stats HTTP/1.1\r\n\r\n")).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn splits_query_and_matches_flags_exactly() {
        let req = read_request(&mut Cursor::new("POST /jobs?wait=1&x=2 HTTP/1.1\r\n\r\n")).unwrap();
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query, "wait=1&x=2");
        assert!(req.query_flag("wait"));
        assert!(!req.query_flag("x"));
        for not_a_flag in ["/jobs?wait=2", "/jobs?wait", "/jobs?await=1", "/jobs"] {
            let raw = format!("POST {not_a_flag} HTTP/1.1\r\n\r\n");
            let req = read_request(&mut Cursor::new(raw)).unwrap();
            assert!(!req.query_flag("wait"), "{not_a_flag}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",                                      // no version
            "GET / SPDY/3\r\n\r\n",                               // wrong protocol
            "GET / HTTP/1.1\r\nbroken header\r\n\r\n",            // no colon
            "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",       // bad length
            "POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", // truncated body
        ] {
            assert!(
                matches!(
                    read_request(&mut Cursor::new(bad)),
                    Err(ReadError::Malformed(_))
                ),
                "accepted {bad:?}"
            );
        }
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        match read_request(&mut Cursor::new(huge)) {
            Err(ReadError::Malformed(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("accepted oversized body: {other:?}"),
        }
        // Clean EOF before any byte is Closed, not Malformed — the
        // server drops it silently.
        assert_eq!(read_request(&mut Cursor::new("")), Err(ReadError::Closed));
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        respond(
            &mut wire,
            400,
            "Bad Request",
            "application/json",
            "{\"e\":1}",
        )
        .unwrap();
        let (status, body) = read_response(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(status, 400);
        assert_eq!(body, "{\"e\":1}");
    }

    #[test]
    fn extra_headers_round_trip() {
        let mut wire = Vec::new();
        respond_with_headers(
            &mut wire,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "5".to_owned())],
            "{}",
        )
        .unwrap();
        let resp = read_response_meta(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(5));
        assert_eq!(resp.body, "{}");
    }

    #[test]
    fn streamed_response_reads_to_eof() {
        let mut stream = StreamingResponse::new(Vec::new(), "text/plain", &[]);
        writeln!(stream, "# progress").unwrap();
        stream.flush().unwrap();
        write!(stream, "\nresult").unwrap();
        stream.flush().unwrap();
        let wire = stream.into_inner();
        let (status, body) = read_response(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "# progress\n\nresult");
    }

    /// A sink that records each `write` call's bytes separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_and_chunk_is_one_write() {
        let mut sink = Writes::default();
        let extra = [
            ("Retry-After", "5".to_owned()),
            ("Location", "/jobs/3".to_owned()),
        ];
        respond_with_headers(
            &mut sink,
            429,
            "Too Many Requests",
            "text/plain",
            &extra,
            "{}",
        )
        .unwrap();
        assert_eq!(sink.0.len(), 1, "a complete response is one write");
        let resp = read_response_meta(&mut Cursor::new(&sink.0[0])).unwrap();
        assert_eq!((resp.status, resp.retry_after), (429, Some(5)));

        let mut sink = Writes::default();
        write_request(&mut sink, "POST", "/jobs?wait=1", "{\"n_xcts\":4}").unwrap();
        assert_eq!(sink.0.len(), 1, "a request is one write");
        let req = read_request(&mut Cursor::new(&sink.0[0])).unwrap();
        assert_eq!(req.body, b"{\"n_xcts\":4}");

        // Headers and the first batch of progress lines share one write;
        // nothing leaves before the flush.
        let mut stream =
            StreamingResponse::new(Writes::default(), "text/plain", &[("X-Job-Id", "7".into())]);
        for line in ["fetched", "point 1/2", "point 2/2"] {
            writeln!(stream, "# {line}").unwrap();
        }
        assert!(!stream.started());
        stream.flush().unwrap();
        assert!(stream.started());
        // Then one write per batch; an empty flush writes nothing.
        write!(stream, "\n{{}}").unwrap();
        stream.flush().unwrap();
        stream.flush().unwrap();
        let writes = stream.into_inner().0;
        assert_eq!(writes.len(), 2, "{writes:?}");
        let head = String::from_utf8(writes[0].clone()).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("X-Job-Id: 7\r\n"), "{head}");
        assert!(
            head.ends_with("\r\n\r\n# fetched\n# point 1/2\n# point 2/2\n"),
            "{head}"
        );
        assert_eq!(writes[1], b"\n{}");
    }
}
