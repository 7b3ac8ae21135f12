//! Minimal HTTP/1.1 framing over `std::net`, for both ends of the wire.
//!
//! Just enough protocol for a JSON API: request-line + headers +
//! `Content-Length`-framed bodies in, status + headers + body out. A
//! connection stays open only when the request asks for it
//! (`connection: keep-alive`); every other request is answered with
//! `connection: close` and a close. Because one connection can carry many
//! requests — and a client may write the next before reading the last
//! answer — the reader is one [`BufRead`] per connection, never one per
//! request. Limits on line length, header count, and body size keep a
//! misbehaving peer from exhausting memory.

use std::io::{BufRead, Read, Write};

/// Maximum accepted request-body size (1 MiB).
const MAX_BODY: usize = 1 << 20;
/// Maximum accepted header line length.
const MAX_LINE: usize = 8 * 1024;
/// Maximum number of headers.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (no query-string splitting; Velox routes don't use them).
    pub path: String,
    /// Lowercased header name → value.
    pub headers: Vec<(String, String)>,
    /// Request body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Body decoded as UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Malformed("non-UTF-8 body".into()))
    }

    /// Whether the client asked to keep the connection open
    /// (`connection: keep-alive`). Absent that, the server closes.
    pub fn keep_alive(&self) -> bool {
        has_token(self.header("connection"), "keep-alive")
    }
}

/// A parsed HTTP response, as the client reads it.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Lowercased header name → value.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Whether the connection may carry another request: the response was
    /// `Content-Length`-framed and did not say `connection: close`.
    pub reusable: bool,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// Protocol-level errors.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure, including a peer that closed before sending
    /// anything (`UnexpectedEof`).
    Io(std::io::Error),
    /// The message violated the protocol or a limit.
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
}

/// Whether a comma-separated header value lists `token` (case-insensitive).
fn has_token(value: Option<&str>, token: &str) -> bool {
    value.is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String, HttpError> {
    let mut line = Vec::new();
    reader.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', &mut line)?;
    if line.last() != Some(&b'\n') {
        return Err(HttpError::Malformed(if line.len() > MAX_LINE {
            "header line too long".into()
        } else {
            "connection closed mid-line".into()
        }));
    }
    line.pop();
    // Strip only the CRLF terminator's \r; a \r elsewhere in the line is
    // part of the value (or malformed input the route layer rejects), not
    // framing.
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 header".into()))
}

/// Reads a start line and the header block behind it. A peer that closes
/// before the first byte is an `Io(UnexpectedEof)` — the orderly end of a
/// kept connection — not a malformed message.
fn read_head<R: BufRead>(reader: &mut R) -> Result<(String, Vec<(String, String)>), HttpError> {
    if reader.fill_buf()?.is_empty() {
        return Err(HttpError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    let start = read_line(reader)?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok((start, headers));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    header(headers, "content-length")
        .map(|v| v.parse::<usize>().map_err(|_| HttpError::Malformed("bad content-length".into())))
        .transpose()
}

/// Reads exactly `len` body bytes, allocating only as they arrive.
fn read_body<R: Read>(reader: &mut R, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    reader.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(HttpError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(body)
}

/// Reads one request from a connection's reader.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let (request_line, headers) = read_head(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts.next().ok_or_else(|| HttpError::Malformed("missing path".into()))?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version}")));
    }
    let content_length = content_length(&headers)?.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::Malformed("body too large".into()));
    }
    let body = read_body(reader, content_length)?;
    Ok(Request { method, path, headers, body })
}

/// Reads one response from a connection's reader. A response without
/// `Content-Length` runs to the close and leaves the connection unusable.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Response, HttpError> {
    let (status_line, headers) = read_head(reader)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed("missing status line".into()))?;
    let (body, framed) = match content_length(&headers)? {
        Some(len) => (read_body(reader, len)?, true),
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            (body, false)
        }
    };
    let reusable = framed && !has_token(header(&headers, "connection"), "close");
    Ok(Response { status, headers, body, reusable })
}

/// Writes one response — status, content type, `extra_headers` (e.g.
/// `Retry-After` on a shed `503`), body — in a single write. The
/// `connection` header says whether the server keeps the connection open
/// afterwards; closing it is the caller's move.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Result<(), HttpError> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(name);
        response.push_str(": ");
        response.push_str(value);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    w.write_all(response.as_bytes())?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get() {
        let req = parse(b"GET /models HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/models");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"), "case-insensitive lookup");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive(), "no connection header means close");
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /models/m/predict HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"uid\":1}")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str().unwrap(), "{\"uid\":1}");
    }

    #[test]
    fn lowercases_method_and_headers() {
        let req = parse(b"post /x HTTP/1.1\r\nX-Custom-Header: Value \r\n\r\n").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.header("x-custom-header"), Some("Value"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(b"\r\n\r\n").is_err());
        assert!(parse(b"GET\r\n\r\n").is_err());
        assert!(parse(b"GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n").is_err());
        assert!(matches!(parse(b"GET / HTTP/1.1\r\nHost"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse(&[b'a'; MAX_LINE + 2]), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn a_close_before_the_first_byte_is_an_io_eof() {
        match parse(b"") {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_body_claim() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse(raw.as_bytes()).is_err());
    }

    #[test]
    fn pipelined_requests_share_one_reader() {
        let raw = b"POST /a HTTP/1.1\r\nconnection: keep-alive\r\ncontent-length: 2\r\n\r\nhiGET /b HTTP/1.1\r\nConnection: Keep-Alive, Upgrade\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let first = read_request(&mut reader).unwrap();
        assert_eq!((first.path.as_str(), first.body.as_slice()), ("/a", &b"hi"[..]));
        assert!(first.keep_alive());
        let second = read_request(&mut reader).unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.keep_alive(), "token lists are matched case-insensitively");
        assert!(matches!(read_request(&mut reader), Err(HttpError::Io(_))));
    }

    #[test]
    fn response_round_trips_and_reports_reuse() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", &[], "{\"ok\":true}", true).unwrap();
        write_response(&mut wire, 503, "application/json", &[("retry-after", "2")], "{}", false)
            .unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json"));

        let mut reader = BufReader::new(&wire[..]);
        let kept = read_response(&mut reader).unwrap();
        assert_eq!((kept.status, kept.body.as_slice()), (200, &b"{\"ok\":true}"[..]));
        assert!(kept.reusable);
        let shed = read_response(&mut reader).unwrap();
        assert_eq!(shed.status, 503);
        assert_eq!(shed.header("Retry-After"), Some("2"), "extra headers land before the body");
        assert_eq!(shed.body, b"{}");
        assert!(!shed.reusable, "connection: close is honoured");
    }

    #[test]
    fn an_unframed_response_runs_to_the_close() {
        let raw = b"HTTP/1.1 200 OK\r\n\r\n{\"models\":[]}";
        let response = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(response.body, b"{\"models\":[]}");
        assert!(!response.reusable);
    }
}
