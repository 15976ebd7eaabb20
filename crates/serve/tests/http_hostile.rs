//! Hostile bytes into the HTTP request reader: every input gives a typed
//! result — never a panic, and never a buffer that grows past the header
//! cap. `read_request` takes any `Read`, so no socket is needed.

use structmine_serve::http::{read_request, HttpError, MAX_BODY_BYTES, MAX_HEADER_BYTES};

/// What a hostile input must come back as.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok { body_len: usize },
    BadRequest,
    TooLarge,
    Io(std::io::ErrorKind),
}

fn outcome(bytes: &[u8]) -> Outcome {
    match read_request(bytes) {
        Ok(r) => Outcome::Ok {
            body_len: r.body.len(),
        },
        Err(HttpError::BadRequest(_)) => Outcome::BadRequest,
        Err(HttpError::TooLarge(_)) => Outcome::TooLarge,
        Err(HttpError::Io(e)) => Outcome::Io(e.kind()),
    }
}

#[test]
fn hostile_bytes_give_typed_errors() {
    let long_header = format!(
        "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(MAX_HEADER_BYTES)
    );
    let huge_body = format!(
        "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let cases: Vec<(&str, Vec<u8>, Outcome)> = vec![
        ("empty input", b"".to_vec(), Outcome::BadRequest),
        (
            "oversized header line",
            long_header.into_bytes(),
            Outcome::TooLarge,
        ),
        (
            "request line without path",
            b"GET\r\n\r\n".to_vec(),
            Outcome::BadRequest,
        ),
        (
            "eof mid-headers",
            b"GET / HTTP/1.1\r\nHost: x\r\n".to_vec(),
            Outcome::BadRequest,
        ),
        (
            "non-numeric content-length",
            b"POST /classify HTTP/1.1\r\nContent-Length: ten\r\n\r\n".to_vec(),
            Outcome::BadRequest,
        ),
        (
            "negative content-length",
            b"POST /classify HTTP/1.1\r\nContent-Length: -1\r\n\r\n".to_vec(),
            Outcome::BadRequest,
        ),
        (
            "overflowing content-length",
            b"POST /classify HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\nx".to_vec(),
            Outcome::BadRequest,
        ),
        (
            "content-length over the cap",
            huge_body.into_bytes(),
            Outcome::TooLarge,
        ),
        (
            // No body is read without a length; the route rejects it.
            "missing content-length",
            b"POST /classify HTTP/1.1\r\nHost: x\r\n\r\nignored".to_vec(),
            Outcome::Ok { body_len: 0 },
        ),
        (
            "non-utf8 request line",
            b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec(),
            Outcome::BadRequest,
        ),
        (
            "non-utf8 header",
            b"GET / HTTP/1.1\r\nX-Bad: \xc3\x28\r\n\r\n".to_vec(),
            Outcome::BadRequest,
        ),
        (
            "truncated body",
            b"POST /classify HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
            Outcome::Io(std::io::ErrorKind::UnexpectedEof),
        ),
        (
            "well-formed request",
            b"POST /classify HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc".to_vec(),
            Outcome::Ok { body_len: 3 },
        ),
    ];
    for (name, bytes, want) in cases {
        assert_eq!(outcome(&bytes), want, "{name}");
    }
}

#[test]
fn endless_line_without_newline_stops_at_the_cap() {
    // A client that never sends a newline: reading stops one byte past
    // the header cap instead of buffering until the socket deadline.
    assert!(matches!(
        read_request(std::io::repeat(b'A')),
        Err(HttpError::TooLarge(_))
    ));
}

#[test]
fn header_cap_counts_the_whole_block() {
    // Request line + one padded header + blank line at exactly the cap
    // parses; one byte more is rejected.
    let fixed = "GET / HTTP/1.1\r\nX: \r\n\r\n".len();
    let at_cap =
        |pad: usize| format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "p".repeat(pad)).into_bytes();
    let fits = at_cap(MAX_HEADER_BYTES - fixed);
    assert_eq!(fits.len(), MAX_HEADER_BYTES);
    assert_eq!(outcome(&fits), Outcome::Ok { body_len: 0 });
    assert_eq!(
        outcome(&at_cap(MAX_HEADER_BYTES - fixed + 1)),
        Outcome::TooLarge
    );
}
