//! In-process server smoke: concurrent `/classify` requests return exactly
//! the bytes the CLI path produces for the same documents, and `/stats`
//! parses against the run-report schema.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use structmine_engine::{
    format_prediction_line, Engine, EngineConfig, EngineSource, MethodKind, PlmSpec,
};
use structmine_serve::{BatcherConfig, ServeConfig, Server};

const DOCS: &[&str] = &[
    "the striker scored a goal and the keeper was offside",
    "the stock market fell as the company reported earnings",
    "the senator won the election after the campaign debate",
    "the processor chip in the new device runs fast software",
];

fn load_engine() -> Engine {
    Engine::load(EngineConfig {
        source: EngineSource::Labels(
            ["sports", "business", "politics", "technology"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        method: MethodKind::Match,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: structmine_linalg::ExecPolicy::default(),
    })
    .expect("engine loads")
}

fn request(addr: &SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post_classify(addr: &SocketAddr, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST /classify HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn concurrent_requests_match_cli_bytes_and_stats_parses() {
    let engine = load_engine();
    engine.warm().expect("warm");

    // The reference: what `structmine classify` prints for these documents.
    let lines: Vec<String> = DOCS.iter().map(|s| s.to_string()).collect();
    let expected: String = engine
        .classify(&lines)
        .expect("cli-path classify")
        .iter()
        .zip(&lines)
        .map(|(p, l)| format_prediction_line(p, l) + "\n")
        .collect();

    let mut server = Server::start(
        Arc::new(engine),
        ServeConfig {
            port: 0,
            // A small size cap, so the concurrent wave below is answered
            // from several coalesced batches.
            batch: BatcherConfig {
                max_batch: 8,
                queue_cap: 64,
            },
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    // Health first.
    let (status, body) = request(&addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ok (precision=exact)\n"));

    // A wave of concurrent whole-set requests: every response must carry
    // the exact CLI bytes, however the batcher coalesced them.
    let responses: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = lines.join("\n");
                scope.spawn(move || post_classify(&addr, &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (status, body) in &responses {
        assert_eq!(*status, 200);
        assert_eq!(
            body, &expected,
            "a concurrent response must be byte-identical to the CLI output"
        );
    }

    // Single-document requests agree with the corresponding CLI line.
    for (i, doc) in DOCS.iter().enumerate() {
        let (status, body) = post_classify(&addr, doc);
        assert_eq!(status, 200);
        assert_eq!(body, expected.lines().nth(i).unwrap().to_string() + "\n");
    }

    // /stats is a live, schema-valid run report with the serve counters.
    let (status, body) = request(&addr, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let report = structmine_store::obs::validate_report(&body)
        .unwrap_or_else(|e| panic!("/stats failed schema validation: {e}"));
    let json = serde_json::to_string(&report).unwrap();
    assert!(
        json.contains("serve.requests"),
        "report should count serve requests: {json}"
    );
    assert!(json.contains("serve.batches"));

    // Bad requests are answered, not dropped.
    let (status, _) = post_classify(&addr, "\n\n");
    assert_eq!(status, 400, "empty body is a client error");
    let (status, _) = request(&addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 404);

    server.stop();
}

#[test]
fn oversized_bodies_are_rejected() {
    let engine = load_engine();
    let mut server = Server::start(
        Arc::new(engine),
        ServeConfig {
            port: 0,
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let (status, _) = request(
        &addr,
        &format!(
            "POST /classify HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            2 * 1024 * 1024
        ),
    );
    assert_eq!(status, 413);
    server.stop();
}

fn post_ingest(addr: &SocketAddr, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn ingest_appends_generations_and_matches_classify_bytes() {
    let engine = load_engine();
    engine.warm().expect("warm");

    let lines: Vec<String> = DOCS.iter().map(|s| s.to_string()).collect();
    let expected: String = engine
        .classify(&lines)
        .expect("cli-path classify")
        .iter()
        .zip(&lines)
        .map(|(p, l)| format_prediction_line(p, l) + "\n")
        .collect();

    let mut server = Server::start(
        Arc::new(engine),
        ServeConfig {
            port: 0,
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    // Two deltas; each response is a generation receipt plus exactly the
    // prediction lines /classify (and the CLI) would emit.
    let (status, body) = post_ingest(&addr, &lines[..2].join("\n"));
    assert_eq!(status, 200);
    let mut it = body.lines();
    assert_eq!(it.next(), Some("generation\t1"));
    let rest: String = it.map(|l| l.to_string() + "\n").collect();
    let first_two: String = expected
        .lines()
        .take(2)
        .map(|l| l.to_string() + "\n")
        .collect();
    assert_eq!(
        rest, first_two,
        "/ingest predictions must match /classify bytes"
    );

    let (status, body) = post_ingest(&addr, &lines[2..].join("\n"));
    assert_eq!(status, 200);
    assert_eq!(body.lines().next(), Some("generation\t2"));

    // Classify after ingestion: the serving rule is frozen, bytes unchanged.
    let (status, body) = post_classify(&addr, &lines.join("\n"));
    assert_eq!(status, 200);
    assert_eq!(body, expected, "ingest must not move the serving rule");

    // /stats now carries the engine's generation counters.
    let (status, body) = request(&addr, "GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    let report = structmine_store::obs::validate_report(&body)
        .unwrap_or_else(|e| panic!("/stats failed schema validation: {e}"));
    let json = serde_json::to_string(&report).unwrap();
    assert!(
        json.contains("serve.ingests"),
        "report should count ingests: {json}"
    );
    assert!(
        json.contains("engine.generation"),
        "report should carry the live generation: {json}"
    );

    // Empty deltas are client errors, not silent no-ops.
    let (status, _) = post_ingest(&addr, "\n\n");
    assert_eq!(status, 400);

    server.stop();
}
