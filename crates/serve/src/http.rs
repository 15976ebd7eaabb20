//! A deliberately tiny HTTP/1.1 layer over `std::net::TcpStream`: request
//! line + headers + `Content-Length` bodies in, `Connection: close`
//! responses out. No keep-alive, no chunked encoding, no TLS — exactly the
//! surface the serve binary needs and nothing more (DESIGN §10).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Request line + headers may not exceed this many bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// A request body may not exceed this many bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, and the raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client; not normalized here).
    pub method: String,
    /// The request target, e.g. `/classify`.
    pub path: String,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers → 400.
    BadRequest(String),
    /// Header block or body over the hard caps → 413.
    TooLarge(String),
    /// The socket failed mid-read; there is nobody left to answer.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Read one request from `stream`. Hostile bytes give a typed error,
/// never a panic: the header cap is enforced while reading, so a line with
/// no newline cannot grow a buffer past it.
pub fn read_request(stream: impl Read) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEADER_BYTES;
    let line = read_header_line(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no path".into()))?
        .to_string();

    let mut content_length = 0usize;
    loop {
        let header = read_header_line(&mut reader, &mut budget)?;
        if header.is_empty() {
            return Err(HttpError::BadRequest(
                "connection closed mid-headers".into(),
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    HttpError::BadRequest(format!("bad content-length {:?}", value.trim()))
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Request { method, path, body })
}

/// Read one line of the request line + header block (empty at end of
/// input), charging its bytes to `budget`. At most one byte past the budget
/// is ever buffered.
fn read_header_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let cap = *budget as u64 + 1;
    let n = reader
        .take(cap)
        .read_until(b'\n', &mut line)
        .map_err(HttpError::Io)?;
    *budget = budget
        .checked_sub(n)
        .ok_or_else(|| HttpError::TooLarge(format!("headers exceed {MAX_HEADER_BYTES} bytes")))?;
    String::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("request line or header is not UTF-8".into()))
}

/// Write a full response and close the connection (the only mode we speak).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}
