//! Graceful-shutdown coverage: the real `structmine-serve` binary is
//! killed with SIGTERM mid-load and must still answer every accepted
//! request, flush the final micro-batch, write a schema-valid JSON run
//! report, and exit 0; and an idle in-process server's blocked accept is
//! woken by `Server::stop`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_serve::{ServeConfig, Server};

fn report_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "structmine-serve-shutdown-{}.json",
        std::process::id()
    ))
}

fn spawn_server(report: &std::path::Path) -> (Child, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_structmine-serve"))
        .args([
            "--labels",
            "sports,business,politics,technology",
            "--method",
            "match",
            "--tier",
            "test",
            "--port",
            "0",
            "--report-json",
            report.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn structmine-serve");
    // The binary prints `listening on 127.0.0.1:<port>` once ready.
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.parse().expect("parse listen address");
        }
    };
    (child, addr)
}

#[test]
fn sigterm_mid_load_drains_and_writes_report() {
    let report = report_path();
    let _ = std::fs::remove_file(&report);
    let (mut child, addr) = spawn_server(&report);

    // Load the server from a few client threads while the signal lands.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let answered: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut ok = 0;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Connections may be refused once shutdown begins;
                        // that is expected. Accepted ones must be answered.
                        if let Ok(mut stream) = TcpStream::connect(addr) {
                            let body = "the striker scored a goal";
                            let req = format!(
                                "POST /classify HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                                body.len()
                            );
                            if stream.write_all(req.as_bytes()).is_ok() {
                                let mut response = String::new();
                                if stream.read_to_string(&mut response).is_ok()
                                    && response.starts_with("HTTP/1.1 200")
                                {
                                    ok += 1;
                                }
                            }
                        }
                    }
                    ok
                })
            })
            .collect();

        // Let some requests through, then SIGTERM the server mid-load.
        std::thread::sleep(Duration::from_millis(300));
        let killed = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(killed.success(), "kill -TERM failed");
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        answered.iter().sum::<usize>() > 0,
        "load generator never got a successful response"
    );

    // The server must exit 0 (graceful), not be killed by the signal.
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "server must exit 0 after SIGTERM");

    // And its run report must exist and validate.
    let json = std::fs::read_to_string(&report)
        .unwrap_or_else(|e| panic!("report {} missing: {e}", report.display()));
    let value = structmine_store::obs::validate_report(&json)
        .unwrap_or_else(|e| panic!("schema-invalid report after shutdown: {e}"));
    let text = serde_json::to_string(&value).unwrap();
    assert!(
        text.contains("serve.requests"),
        "report should include serve counters: {text}"
    );
    let _ = std::fs::remove_file(&report);
}

fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let started = std::time::Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if started.elapsed() > deadline {
            let _ = child.kill();
            panic!("server did not exit within {deadline:?} after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn stop_wakes_an_idle_blocking_accept() {
    let engine = Engine::load(EngineConfig {
        source: EngineSource::Labels(vec!["sports".into(), "business".into()]),
        method: MethodKind::Match,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec: structmine_linalg::ExecPolicy::default(),
    })
    .expect("engine loads");
    let server = Server::start(
        Arc::new(engine),
        ServeConfig {
            port: 0,
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    // No traffic at all: the accept thread is blocked in `accept`, and
    // only `stop`'s wake-up connection can return it. A missed wake fails
    // here after 5 s instead of hanging the suite.
    let (done, stopped) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let mut server = server;
        server.stop();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(Duration::from_secs(5))
        .expect("Server::stop must return on an idle server");
    stopper.join().expect("stop thread");

    let refused = TcpStream::connect(addr).expect_err("listener must be closed after stop");
    assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
}
