//! A minimal HTTP/1.1 client for the in-process daemon: one connection per
//! request, read until the server closes it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A response: status code and body bytes.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "response body is not UTF-8".to_string())
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<serde::Value, String> {
        serde_json::from_str(self.text()?).map_err(|e| format!("response is not JSON: {e}"))
    }
}

/// Sends one request and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("{method} {path}: cannot send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: cannot read: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header block"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    raw.drain(..split + 4);
    Ok(Reply { status, body: raw })
}

/// A JSON object field as an unsigned integer.
pub fn field_u64(v: &serde::Value, name: &str) -> Option<u64> {
    match v.get(name)? {
        serde::Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// A JSON object field as a string.
pub fn field_str<'a>(v: &'a serde::Value, name: &str) -> Option<&'a str> {
    match v.get(name)? {
        serde::Value::Str(s) => Some(s),
        _ => None,
    }
}
