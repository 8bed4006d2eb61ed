//! A hand-rolled HTTP/1.1 subset over `std::net` — exactly what the
//! protection service needs, nothing more.
//!
//! The build environment is offline, so there is no hyper/axum to
//! lean on; this module implements the slice of RFC 9112 the service
//! speaks: request line + headers + `Content-Length` bodies, keep-alive
//! by default, `Connection: close` honored, no chunked transfer
//! encoding (rejected with 501). Reads are timeout-polled so connection
//! workers can observe shutdown and idle deadlines without dedicated
//! timer threads, and every malformed input maps to a 4xx/5xx status
//! instead of a hang.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Serialize;

/// Cap on the request head (request line + all headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, as sent (path plus optional query).
    pub target: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// The first value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path, with any query string stripped.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }
}

/// What one attempt to read a request from a connection produced.
#[derive(Debug)]
pub enum RequestOutcome {
    /// A complete request.
    Complete(Request),
    /// The peer closed (or broke) the connection at a request boundary;
    /// nothing to answer.
    Closed,
    /// The read timed out with no request bytes buffered — the
    /// connection is idle; the caller decides whether to keep waiting.
    Idle,
    /// Protocol violation or mid-request timeout: answer with `status`
    /// and close the connection.
    Bad {
        /// HTTP status to answer with (4xx/5xx).
        status: u16,
        /// Human-readable reason, for the error body.
        reason: String,
    },
}

/// Parsed request head, before the body is read.
#[derive(Debug)]
struct Head {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    close: bool,
}

/// A head split into its first line and the lowercased header list.
pub(crate) type SplitHead<'a> = (&'a str, Vec<(String, String)>);

/// Splits a raw head block (no trailing `\r\n\r\n`) into its first line
/// and the header list (names lowercased, values trimmed). Shared by
/// the server-side request parser and the loopback client's response
/// parser so header handling cannot drift between the two.
pub(crate) fn split_head(bytes: &[u8]) -> Result<SplitHead<'_>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let first = lines.next().ok_or_else(|| "empty head".to_string())?;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line `{line}`"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((first, headers))
}

/// Parses the request head (everything before the blank line).
fn parse_head(bytes: &[u8]) -> Result<Head, (u16, String)> {
    let (request_line, headers) = split_head(bytes).map_err(|reason| (400u16, reason))?;
    let parts: Vec<&str> = request_line.split(' ').collect();
    let [method, target, version] = parts[..] else {
        return Err((400, format!("malformed request line `{request_line}`")));
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err((400, format!("malformed method `{method}`")));
    }
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err((505, format!("unsupported protocol version `{version}`")));
    }
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err((501, "transfer-encoding is not supported".to_string()));
    }
    // Conflicting duplicate Content-Length headers are the classic
    // request-smuggling shape (RFC 9112 §6.3): reject, don't pick one.
    let mut content_length = 0usize;
    let mut seen_length: Option<&str> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        if seen_length.is_some_and(|prev| prev != v) {
            return Err((400, "conflicting content-length headers".to_string()));
        }
        seen_length = Some(v);
        content_length = v
            .parse::<usize>()
            .map_err(|_| (400u16, format!("invalid content-length `{v}`")))?;
    }
    // `Connection` is a comma-separated token list (RFC 9110 §7.6.1);
    // match tokens, not the whole value.
    let connection_tokens: Vec<String> = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| {
            v.split(',')
                .map(|t| t.trim().to_ascii_lowercase())
                .collect()
        })
        .unwrap_or_default();
    let close = if connection_tokens.iter().any(|t| t == "close") {
        true
    } else if connection_tokens.iter().any(|t| t == "keep-alive") {
        false
    } else {
        version == "HTTP/1.0"
    };
    Ok(Head {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        content_length,
        close,
    })
}

/// Result of one read attempt on the socket.
enum Fill {
    Data,
    Eof,
    Timeout,
}

/// A server-side connection: the socket plus its read buffer.
///
/// Pipelined requests work naturally — bytes past the current request
/// stay buffered for the next [`Conn::read_request`] call.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Wraps an accepted stream, arming the poll-read timeout that
    /// drives [`RequestOutcome::Idle`].
    ///
    /// # Errors
    ///
    /// Returns the error from configuring the socket.
    pub fn new(stream: TcpStream, poll: Duration) -> io::Result<Self> {
        stream.set_read_timeout(Some(poll))?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    fn fill(&mut self) -> io::Result<Fill> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(Fill::Data)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Fill::Timeout)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads the next request off the connection.
    ///
    /// `request_timeout` is the wall-clock bound on a *partially
    /// received* request: the deadline arms when the first request byte
    /// arrives, and a request still incomplete past it becomes a 408 —
    /// whether the client goes silent or keeps dribbling single bytes
    /// (slowloris). Idle waits (no bytes at all) return
    /// [`RequestOutcome::Idle`] after a single poll so the caller can
    /// check shutdown and keep-alive deadlines.
    pub fn read_request(&mut self, max_body: usize, request_timeout: Duration) -> RequestOutcome {
        // Pipelined leftovers count as an already-started request.
        let mut deadline = if self.buf.is_empty() {
            None
        } else {
            Some(Instant::now() + request_timeout)
        };
        let overdue = |deadline: &Option<Instant>, phase: &str| -> Option<RequestOutcome> {
            match deadline {
                Some(d) if Instant::now() >= *d => Some(RequestOutcome::Bad {
                    status: 408,
                    reason: format!("timed out reading request {phase}"),
                }),
                _ => None,
            }
        };
        let mut scanned = 0;
        let head_len = loop {
            if let Some(end) = head_end(&self.buf, &mut scanned) {
                break end;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return RequestOutcome::Bad {
                    status: 431,
                    reason: format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                };
            }
            if let Some(bad) = overdue(&deadline, "head") {
                return bad;
            }
            match self.fill() {
                Ok(Fill::Data) => {
                    deadline.get_or_insert_with(|| Instant::now() + request_timeout);
                }
                Ok(Fill::Eof) => {
                    return if self.buf.is_empty() {
                        RequestOutcome::Closed
                    } else {
                        RequestOutcome::Bad {
                            status: 400,
                            reason: "connection closed mid-request".to_string(),
                        }
                    }
                }
                Ok(Fill::Timeout) => {
                    if self.buf.is_empty() {
                        return RequestOutcome::Idle;
                    }
                }
                Err(_) => return RequestOutcome::Closed,
            }
        };
        let head = match parse_head(&self.buf[..head_len - 4]) {
            Ok(head) => head,
            Err((status, reason)) => return RequestOutcome::Bad { status, reason },
        };
        if head.content_length > max_body {
            return RequestOutcome::Bad {
                status: 413,
                reason: format!(
                    "body of {} bytes exceeds the {max_body}-byte limit",
                    head.content_length
                ),
            };
        }
        while self.buf.len() < head_len + head.content_length {
            if let Some(bad) = overdue(&deadline, "body") {
                return bad;
            }
            match self.fill() {
                Ok(Fill::Data | Fill::Timeout) => {}
                Ok(Fill::Eof) => {
                    return RequestOutcome::Bad {
                        status: 400,
                        reason: "connection closed mid-body".to_string(),
                    }
                }
                Err(_) => return RequestOutcome::Closed,
            }
        }
        let body = self.buf[head_len..head_len + head.content_length].to_vec();
        self.buf.drain(..head_len + head.content_length);
        RequestOutcome::Complete(Request {
            method: head.method,
            target: head.target,
            headers: head.headers,
            body,
            close: head.close,
        })
    }

    /// Writes `response` to the connection.
    ///
    /// # Errors
    ///
    /// Returns the transport error, if any; the caller should close.
    pub fn write_response(&mut self, response: &Response) -> io::Result<()> {
        response.write_to(&mut self.stream)
    }

    /// Chaos-fault path: writes `response` cut off mid-body (see
    /// [`Response::write_truncated_to`]); the caller must then close.
    ///
    /// # Errors
    ///
    /// Returns the transport error, if any.
    pub fn write_response_truncated(&mut self, response: &Response) -> io::Result<()> {
        response.write_truncated_to(&mut self.stream)
    }
}

/// First position of `needle` in `haystack`.
pub(crate) fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// The length of the head in `buf`, through its closing `\r\n\r\n`,
/// once it has arrived. `scanned` carries where the search resumes: three
/// bytes before the end of the last one, where a terminator split across
/// reads can start. A head that trickles in is thus searched once
/// overall, not once per read.
pub(crate) fn head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    match find_subsequence(&buf[*scanned..], b"\r\n\r\n") {
        Some(pos) => Some(*scanned + pos + 4),
        None => {
            *scanned = buf.len().saturating_sub(3);
            None
        }
    }
}

/// One HTTP response about to be written.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `content-type` header value.
    pub content_type: &'static str,
    /// Response body; `content-length` is derived from it.
    pub body: Vec<u8>,
    /// Whether to send `connection: close` (the caller then closes).
    pub close: bool,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    /// A JSON response. The shim's streaming writer serializes `value`
    /// into the buffer that becomes the body: no value tree, no
    /// intermediate `String`, no second copy.
    pub fn json<T: Serialize>(status: u16, value: &T) -> Self {
        match serde_json::to_vec(value) {
            Ok(body) => Self {
                status,
                content_type: "application/json",
                body,
                close: false,
            },
            Err(e) => Self::text(500, &format!("response serialization failed: {e}\n")),
        }
    }

    /// The same response, marked connection-closing.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// The response head (status line + headers + blank line) as bytes.
    fn head_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        if self.close {
            head.extend_from_slice(b"connection: close\r\n");
        }
        head.extend_from_slice(b"\r\n");
        head
    }

    /// Serializes the response (status line, headers, body) into `out`,
    /// riding out short writes: `Interrupted` retries immediately and
    /// `WouldBlock` (a throttled non-blocking or send-timeout socket)
    /// retries with a bounded patience instead of dropping the tail of
    /// the response on the floor.
    ///
    /// # Errors
    ///
    /// Returns the transport error, if any; `TimedOut` when the peer
    /// stays unwritable past the patience window.
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write_all_patient(out, &self.head_bytes(), WRITE_PATIENCE)?;
        write_all_patient(out, &self.body, WRITE_PATIENCE)?;
        flush_patient(out, WRITE_PATIENCE)
    }

    /// Chaos-fault write path: sends the full head but only the first
    /// half of the body, then stops. The `content-length` header still
    /// promises the full body, so a client that counts bytes sees an
    /// unambiguous truncation (`UnexpectedEof` once the server closes) —
    /// a *retryable* failure, never a plausible short response.
    ///
    /// # Errors
    ///
    /// Returns the transport error, if any.
    pub fn write_truncated_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        write_all_patient(out, &self.head_bytes(), WRITE_PATIENCE)?;
        write_all_patient(out, &self.body[..self.body.len() / 2], WRITE_PATIENCE)?;
        flush_patient(out, WRITE_PATIENCE)
    }
}

/// How long a response write keeps retrying `WouldBlock` before giving
/// up on the peer.
const WRITE_PATIENCE: Duration = Duration::from_secs(5);

/// How long to back off between `WouldBlock` retries.
const WRITE_RETRY_PAUSE: Duration = Duration::from_millis(1);

/// `write_all` that survives interrupted and throttled sockets:
/// `Interrupted` retries immediately, `WouldBlock` retries after a
/// short pause until `patience` is spent, and a zero-length write is
/// reported as `WriteZero` instead of looping forever.
pub(crate) fn write_all_patient<W: Write>(
    out: &mut W,
    mut buf: &[u8],
    patience: Duration,
) -> io::Result<()> {
    let started = Instant::now();
    while !buf.is_empty() {
        match out.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer accepts no more bytes",
                ));
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if started.elapsed() >= patience {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stayed unwritable past the write patience",
                    ));
                }
                std::thread::sleep(WRITE_RETRY_PAUSE);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `flush` with the same `Interrupted`/`WouldBlock` patience as
/// [`write_all_patient`].
fn flush_patient<W: Write>(out: &mut W, patience: Duration) -> io::Result<()> {
    let started = Instant::now();
    loop {
        match out.flush() {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if started.elapsed() >= patience {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stayed unflushable past the write patience",
                    ));
                }
                std::thread::sleep(WRITE_RETRY_PAUSE);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Canonical reason phrase for the statuses this service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(raw: &str) -> Result<Head, (u16, String)> {
        parse_head(raw.as_bytes())
    }

    #[test]
    fn parses_a_request_head() {
        let h = head("POST /v1/protect HTTP/1.1\r\nHost: x\r\nContent-Length: 12").unwrap();
        assert_eq!(h.method, "POST");
        assert_eq!(h.target, "/v1/protect");
        assert_eq!(h.content_length, 12);
        assert!(!h.close, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(h.headers[0], ("host".to_string(), "x".to_string()));
    }

    #[test]
    fn connection_semantics() {
        assert!(head("GET / HTTP/1.1\r\nConnection: close").unwrap().close);
        assert!(head("GET / HTTP/1.0").unwrap().close);
        assert!(
            !head("GET / HTTP/1.0\r\nConnection: Keep-Alive")
                .unwrap()
                .close
        );
        // Token lists: any `close` token closes; `keep-alive` in a
        // list keeps an HTTP/1.0 connection open.
        assert!(
            head("GET / HTTP/1.1\r\nConnection: close, TE")
                .unwrap()
                .close
        );
        assert!(
            !head("GET / HTTP/1.0\r\nConnection: Keep-Alive, Upgrade")
                .unwrap()
                .close
        );
    }

    #[test]
    fn malformed_heads_map_to_4xx() {
        assert_eq!(head("GET /").unwrap_err().0, 400);
        assert_eq!(head("GET / HTTP/1.1 extra").unwrap_err().0, 400);
        assert_eq!(head("get / HTTP/1.1").unwrap_err().0, 400);
        assert_eq!(head("GET / HTTP/2.0").unwrap_err().0, 505);
        assert_eq!(head("GET / HTTP/1.1\r\nbroken header").unwrap_err().0, 400);
        assert_eq!(
            head("GET / HTTP/1.1\r\nContent-Length: nope")
                .unwrap_err()
                .0,
            400
        );
        assert_eq!(
            head("GET / HTTP/1.1\r\nTransfer-Encoding: chunked")
                .unwrap_err()
                .0,
            501
        );
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // The request-smuggling shape: two disagreeing lengths.
        let err = head("POST / HTTP/1.1\r\nContent-Length: 10\r\nContent-Length: 0").unwrap_err();
        assert_eq!(err.0, 400);
        assert!(err.1.contains("conflicting"), "{}", err.1);
        // Agreeing duplicates are tolerated (RFC 9112 §6.3 allows it).
        let h = head("POST / HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7").unwrap();
        assert_eq!(h.content_length, 7);
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::text(200, "ok\n").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 3\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok\n"), "{text}");
        assert!(!text.contains("connection: close"), "{text}");

        let mut out = Vec::new();
        Response::text(503, "busy")
            .closing()
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close\r\n"), "{text}");
    }

    #[test]
    fn json_response_streams_serialization() {
        let resp = Response::json(200, &vec![1u64, 2, 3]);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"[1,2,3]");
        assert_eq!(resp.content_type, "application/json");
        // Non-finite floats cannot serialize; the response degrades to
        // a 500 instead of panicking a worker.
        let resp = Response::json(200, &f64::NAN);
        assert_eq!(resp.status, 500);
    }

    #[test]
    fn find_subsequence_positions() {
        assert_eq!(find_subsequence(b"abc\r\n\r\nrest", b"\r\n\r\n"), Some(3));
        assert_eq!(find_subsequence(b"abc", b"\r\n\r\n"), None);
    }

    #[test]
    fn head_end_resumes_across_reads_one_byte_at_a_time() {
        let raw = b"GET / HTTP/1.1\r\nHost: x\r\n\r\nbody";
        let head = raw.len() - 4;
        let mut scanned = 0;
        for len in 0..=raw.len() {
            let found = head_end(&raw[..len], &mut scanned);
            assert_eq!(found, (len >= head).then_some(head), "after {len} bytes");
            assert!(scanned <= len, "the search never skips unread bytes");
            if found.is_some() {
                break;
            }
        }
    }

    #[test]
    fn a_request_written_a_byte_at_a_time_parses() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_nodelay(true).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted, Duration::from_millis(10)).unwrap();
        let raw = b"POST /v1/protect HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}";
        let dribble = std::thread::spawn(move || {
            for byte in raw {
                peer.write_all(&[*byte]).unwrap();
                peer.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            peer
        });
        let request = loop {
            match conn.read_request(1024, Duration::from_secs(5)) {
                RequestOutcome::Complete(request) => break request,
                RequestOutcome::Idle => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/v1/protect");
        assert_eq!(request.body, b"{}");
        drop(dribble.join().unwrap());
    }

    /// A `Write` that accepts at most `chunk` bytes per call and
    /// interleaves scripted `Interrupted`/`WouldBlock` errors between
    /// accepted chunks — the shape of a throttled or signal-riddled
    /// socket.
    struct ThrottleStream {
        written: Vec<u8>,
        chunk: usize,
        hiccups: std::collections::VecDeque<io::ErrorKind>,
    }

    impl ThrottleStream {
        fn new(chunk: usize, hiccups: &[io::ErrorKind]) -> Self {
            Self {
                written: Vec::new(),
                chunk,
                hiccups: hiccups.iter().copied().collect(),
            }
        }
    }

    impl Write for ThrottleStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if let Some(kind) = self.hiccups.pop_front() {
                return Err(io::Error::new(kind, "scripted hiccup"));
            }
            let n = buf.len().min(self.chunk);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_to_rides_out_short_writes_and_hiccups() {
        use io::ErrorKind::{Interrupted, WouldBlock};
        let response = Response::text(200, "a body long enough to need many chunks");
        let mut reference = Vec::new();
        response.write_to(&mut reference).unwrap();

        let mut throttled = ThrottleStream::new(
            3,
            &[
                Interrupted,
                WouldBlock,
                Interrupted,
                Interrupted,
                WouldBlock,
                WouldBlock,
            ],
        );
        response.write_to(&mut throttled).unwrap();
        assert_eq!(
            throttled.written, reference,
            "short writes must not lose or reorder bytes"
        );
    }

    #[test]
    fn persistent_would_block_times_out() {
        // A peer that never becomes writable: every call WouldBlocks.
        struct Wedged;
        impl Write for Wedged {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "wedged"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_all_patient(&mut Wedged, b"payload", Duration::from_millis(20))
            .expect_err("a wedged peer must time out");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn zero_length_write_is_write_zero_not_a_spin() {
        struct Stuck;
        impl Write for Stuck {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_all_patient(&mut Stuck, b"payload", Duration::from_millis(20))
            .expect_err("Ok(0) forever must error");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn truncated_write_promises_more_than_it_sends() {
        let response = Response::text(200, "0123456789");
        let mut out = Vec::new();
        response.write_truncated_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // Full head with the full content-length…
        assert!(text.contains("content-length: 10\r\n"), "{text}");
        // …but only half the body follows.
        assert!(text.ends_with("\r\n\r\n01234"), "{text}");
    }
}
