//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! The shape follows Firecracker's `micro_http` split: a tiny, auditable
//! request parser and response writer that speak exactly the subset of
//! HTTP/1.1 the API server needs — no chunked transfer, no pipelining, one
//! request per connection (`Connection: close` on every response). Anything
//! the parser does not understand is a typed [`ParseError`] the server maps
//! to a `400`, never a panic.

use std::fmt;
use std::io::{BufRead, Write};

/// Largest request body the parser will buffer. Requests beyond this are
/// answered with `413 Payload Too Large` instead of consuming memory.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Request methods the API speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `PUT`
    Put,
    /// `DELETE`
    Delete,
}

impl Method {
    /// Parses a request-line method token.
    pub fn parse(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// The canonical token, for error messages.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a connection's bytes could not become a [`Request`].
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed the connection before sending a request line.
    ConnectionClosed,
    /// The bytes were not a well-formed HTTP/1.x request.
    Malformed(String),
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// The method token is valid HTTP but not one the API speaks.
    UnsupportedMethod(String),
    /// The underlying stream failed (timeouts land here).
    Io(std::io::Error),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed before a request"),
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
            }
            ParseError::UnsupportedMethod(m) => write!(f, "unsupported method `{m}`"),
            ParseError::Io(e) => write!(f, "i/o error reading request: {e}"),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target's path component (query string stripped).
    pub path: String,
    /// The raw query string (without the `?`), if the target had one.
    pub query: Option<String>,
    /// Raw header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with the given case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The value of one `name=value` query parameter, if present. A bare
    /// `name` token (no `=`) yields an empty value.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (n, v) = pair.split_once('=').unwrap_or((pair, ""));
            (n == name).then_some(v)
        })
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError::Malformed`] on invalid UTF-8.
    pub fn body_str(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.body)
            .map_err(|e| ParseError::Malformed(format!("body is not UTF-8: {e}")))
    }

    /// Reads and parses one request from a buffered stream.
    ///
    /// # Errors
    ///
    /// Every early exit is a typed [`ParseError`]; see the variants.
    pub fn read_from(reader: &mut impl BufRead) -> Result<Request, ParseError> {
        let request_line = read_crlf_line(reader)?;
        if request_line.is_empty() {
            return Err(ParseError::ConnectionClosed);
        }
        let mut parts = request_line.split(' ');
        let (method_token, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) => (m, t, v),
                _ => {
                    return Err(ParseError::Malformed(format!(
                        "request line `{request_line}` is not `METHOD TARGET VERSION`"
                    )))
                }
            };
        if !version.starts_with("HTTP/1.") {
            return Err(ParseError::Malformed(format!("unsupported version `{version}`")));
        }
        let method = Method::parse(method_token)
            .ok_or_else(|| ParseError::UnsupportedMethod(method_token.to_string()))?;
        // Routing sees the bare path; the query survives separately for
        // handlers that accept parameters (e.g. `/metrics?format=...`).
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };
        if !path.starts_with('/') {
            return Err(ParseError::Malformed(format!("target `{target}` is not absolute")));
        }

        let mut headers = Vec::new();
        loop {
            let line = read_crlf_line(reader)?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| {
                ParseError::Malformed(format!("header line `{line}` has no colon"))
            })?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }

        let request = Request { method, path, query, headers, body: Vec::new() };
        let body_len = match request.header("content-length") {
            Some(raw) => raw
                .parse::<usize>()
                .map_err(|_| ParseError::Malformed(format!("bad Content-Length `{raw}`")))?,
            None => 0,
        };
        if body_len > MAX_BODY_BYTES {
            return Err(ParseError::BodyTooLarge(body_len));
        }
        let mut body = vec![0u8; body_len];
        reader.read_exact(&mut body).map_err(ParseError::Io)?;
        Ok(Request { body, ..request })
    }
}

/// Reads one `\r\n`-terminated line (tolerating bare `\n`), without the
/// terminator. Returns an empty string on EOF or a blank line.
fn read_crlf_line(reader: &mut impl BufRead) -> Result<String, ParseError> {
    let mut raw = String::new();
    reader.read_line(&mut raw).map_err(ParseError::Io)?;
    while raw.ends_with('\n') || raw.ends_with('\r') {
        raw.pop();
    }
    Ok(raw)
}

/// Response status codes the API emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200
    Ok,
    /// 201
    Created,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 408
    RequestTimeout,
    /// 409
    Conflict,
    /// 413
    PayloadTooLarge,
    /// 429
    TooManyRequests,
    /// 500
    InternalServerError,
    /// 503
    ServiceUnavailable,
}

impl StatusCode {
    /// The numeric code.
    pub fn code(&self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::Created => 201,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::MethodNotAllowed => 405,
            StatusCode::RequestTimeout => 408,
            StatusCode::Conflict => 409,
            StatusCode::PayloadTooLarge => 413,
            StatusCode::TooManyRequests => 429,
            StatusCode::InternalServerError => 500,
            StatusCode::ServiceUnavailable => 503,
        }
    }

    /// The reason phrase.
    pub fn reason(&self) -> &'static str {
        match self {
            StatusCode::Ok => "OK",
            StatusCode::Created => "Created",
            StatusCode::BadRequest => "Bad Request",
            StatusCode::NotFound => "Not Found",
            StatusCode::MethodNotAllowed => "Method Not Allowed",
            StatusCode::RequestTimeout => "Request Timeout",
            StatusCode::Conflict => "Conflict",
            StatusCode::PayloadTooLarge => "Payload Too Large",
            StatusCode::TooManyRequests => "Too Many Requests",
            StatusCode::InternalServerError => "Internal Server Error",
            StatusCode::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// Whether the code reports a client or server failure.
    pub fn is_error(&self) -> bool {
        self.code() >= 400
    }
}

/// One response, always `Connection: close`. The default content type is
/// `application/json` (almost everything this API says is JSON); the
/// Prometheus exposition uses [`Response::text`] to override it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status line's code.
    pub status: StatusCode,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the fixed set (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given body.
    pub fn json(status: StatusCode, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A response with an explicit content type (e.g. `text/plain;
    /// version=0.0.4` for the Prometheus exposition).
    pub fn text(
        status: StatusCode,
        content_type: &'static str,
        body: impl Into<Vec<u8>>,
    ) -> Response {
        Response { content_type, ..Response::json(status, body) }
    }

    /// A JSON error response with an `{"error": ...}` body.
    pub fn error(status: StatusCode, message: &str) -> Response {
        Response::json(status, crate::api::error_body(message))
    }

    /// Adds one extra header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl fmt::Display) -> Response {
        self.extra_headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Writes the full response (status line, headers, body).
    ///
    /// # Errors
    ///
    /// Propagates stream write failures.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nServer: rr-serve\r\nConnection: close\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status.code(),
            self.status.reason(),
            self.content_type,
            self.body.len(),
        )?;
        for (name, value) in &self.extra_headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_request() {
        let req = parse("GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/health");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"), "headers are case-insensitive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_strips_query() {
        let req = parse(
            "POST /jobs?verbose=1 HTTP/1.1\r\nContent-Length: 15\r\n\r\n{\"kind\":\"fig5\"}",
        )
        .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/jobs", "query string is stripped before routing");
        assert_eq!(req.query.as_deref(), Some("verbose=1"), "but the query survives");
        assert_eq!(req.query_param("verbose"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body_str().unwrap(), "{\"kind\":\"fig5\"}");
    }

    #[test]
    fn query_parameters_parse_pairs_and_bare_tokens() {
        let req = parse("GET /metrics?format=prometheus&debug HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("debug"), Some(""), "bare tokens have empty values");
        let bare = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(bare.query, None);
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse("GET /metrics HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/metrics");
    }

    #[test]
    fn rejects_garbage_and_eof() {
        assert!(matches!(parse(""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(parse("how about no\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse("GET /x SPDY/3\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(parse("GET relative HTTP/1.1\r\n\r\n"), Err(ParseError::Malformed(_))));
        assert!(matches!(
            parse("PATCH /jobs HTTP/1.1\r\n\r\n"),
            Err(ParseError::UnsupportedMethod(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn caps_the_body_size() {
        let raw = format!("POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(&raw), Err(ParseError::BodyTooLarge(_))));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        assert!(matches!(
            parse("POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ParseError::Io(_))
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(StatusCode::TooManyRequests, "{\"error\":\"slow down\"}")
            .with_header("Retry-After", 2)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 21\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"slow down\"}"));
    }

    #[test]
    fn text_responses_override_the_content_type() {
        let mut out = Vec::new();
        Response::text(StatusCode::Ok, "text/plain; version=0.0.4", "rr_up 1\n")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.ends_with("\r\n\r\nrr_up 1\n"));
    }

    #[test]
    fn status_code_properties() {
        assert_eq!(StatusCode::Ok.code(), 200);
        assert!(!StatusCode::Created.is_error());
        assert!(StatusCode::TooManyRequests.is_error());
        assert_eq!(StatusCode::ServiceUnavailable.reason(), "Service Unavailable");
    }

    /// A generated well-formed request and the fields it must parse to.
    #[derive(Debug, Clone)]
    struct Valid {
        method: Method,
        path: String,
        query: Option<String>,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    }

    impl Valid {
        fn wire(&self) -> Vec<u8> {
            let query = self.query.as_ref().map_or(String::new(), |q| format!("?{q}"));
            let mut out = format!("{} {}{query} HTTP/1.1\r\n", self.method, self.path);
            for (name, value) in &self.headers {
                out.push_str(&format!("{name}: {value}\r\n"));
            }
            out.push_str(&format!("Content-Length: {}\r\n\r\n", self.body.len()));
            let mut wire = out.into_bytes();
            wire.extend_from_slice(&self.body);
            wire
        }
    }

    fn valid() -> impl Strategy<Value = Valid> {
        let method =
            prop_oneof![Just(Method::Get), Just(Method::Post), Just(Method::Put), Just(Method::Delete)];
        let query = prop_oneof![Just(None), "[a-z0-9=&_?%]{0,12}".prop_map(Some)];
        // Names cannot collide with Content-Length; values carry no
        // surrounding whitespace, which the parser trims.
        let header = ("X-[A-Za-z0-9-]{1,10}", "[!-~]([ -~]{0,16}[!-~])?");
        (
            method,
            "/[A-Za-z0-9_./%-]{0,16}",
            query,
            prop::collection::vec(header, 0..5),
            prop::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(method, path, query, headers, body)| Valid {
                method,
                path,
                query,
                headers,
                body,
            })
    }

    fn parse_bytes(raw: &[u8]) -> Result<Request, ParseError> {
        Request::read_from(&mut BufReader::new(raw))
    }

    proptest! {
        /// Arbitrary bytes, alone or after a valid request line, parse to a
        /// request or a typed error — never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..512),
            after_request_line in any::<bool>(),
        ) {
            let mut raw = Vec::new();
            if after_request_line {
                raw.extend_from_slice(b"POST /jobs HTTP/1.1\r\n");
            }
            raw.extend_from_slice(&bytes);
            let _ = parse_bytes(&raw);
        }

        /// Every truncation of a valid request, and a byte flip anywhere in
        /// it, parses or fails cleanly.
        #[test]
        fn truncated_and_flipped_requests_never_panic(
            req in valid(),
            cut in any::<usize>(),
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let wire = req.wire();
            let _ = parse_bytes(&wire[..cut % (wire.len() + 1)]);
            let mut flipped = wire.clone();
            let i = at % flipped.len();
            flipped[i] ^= mask;
            let _ = parse_bytes(&flipped);
        }

        /// A generated well-formed request round-trips method, path,
        /// query, headers (in order, Content-Length last) and body.
        #[test]
        fn valid_requests_round_trip(req in valid()) {
            let parsed = parse_bytes(&req.wire()).unwrap();
            prop_assert_eq!(parsed.method, req.method);
            prop_assert_eq!(&parsed.path, &req.path);
            prop_assert_eq!(&parsed.query, &req.query);
            let mut headers = req.headers.clone();
            headers.push(("Content-Length".to_string(), req.body.len().to_string()));
            prop_assert_eq!(&parsed.headers, &headers);
            prop_assert_eq!(&parsed.body, &req.body);
        }
    }
}
