//! `serve_small` and `serve_bulk`: `structmine-serve` as a separate
//! process, driven over HTTP from this process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use structmine_engine::format_prediction_line;
use structmine_linalg::{ExecPolicy, Precision};

use crate::report::Outcome;
use crate::runreport::RunReport;
use crate::{client, gen, procs, replay, stats, Ctx};

/// Offered load of `serve_small`, requests per second.
const RATE: f64 = 100.0;
/// Documents per `serve_bulk` request: above the server's `max_batch`
/// (32), so every batch flushes on size.
const BULK_DOCS: usize = 128;
/// Distinct `serve_bulk` request bodies, cycled by the closed loop.
const BULK_BODIES: usize = 64;
/// Server starts per run: `setup_s` is their median, `fit_s` the fastest
/// of their X-Class fits.
const STARTS: usize = 25;
/// Unmeasured requests sent before the window.
const WARMUP: usize = 16;
const TIMEOUT: Duration = Duration::from_secs(10);

pub struct Spec {
    pub precision: Precision,
    /// Open loop (seeded Poisson arrivals, one document each) or closed
    /// loop (each connection sends its next bulk request on a reply).
    pub open_loop: bool,
}

/// One request: body bytes and the exact response body expected.
struct Req {
    body: Vec<u8>,
    docs: Vec<String>,
    expected: Vec<u8>,
}

/// Per-request record of a measured window.
#[derive(Default)]
struct Window {
    /// Latency from the due time (open loop) or send time (closed loop).
    latency_ms: Vec<f64>,
    /// Latency from the send time.
    sent_ms: Vec<f64>,
    /// How late each request was sent.
    late_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    docs_ok: u64,
    wall_s: f64,
}

/// Client threads and connections: at most the vCPUs of the host, and at
/// most two, so the benchmark measures the server, not the scheduler.
pub fn connections() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = 2.min(nproc);
    assert!(conns <= nproc, "load threads exceed available parallelism");
    conns
}

pub fn run(
    ctx: &Ctx,
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let policy = ExecPolicy::from_env().with_precision(spec.precision);
    let twin = crate::load_engine(policy)?;
    let (warmup, reqs, due) = inputs(spec, seed, seconds);
    // Expected responses come from the in-process twin, before any timing.
    let expect = |docs: Vec<String>| -> Result<Req, String> {
        let preds = twin.classify(&docs).map_err(|e| e.to_string())?;
        let mut expected = String::new();
        for (p, d) in preds.iter().zip(&docs) {
            expected.push_str(&format_prediction_line(p, d));
            expected.push('\n');
        }
        Ok(Req {
            body: (docs.join("\n") + "\n").into_bytes(),
            docs,
            expected: expected.into_bytes(),
        })
    };
    let warmup: Vec<Req> = warmup.into_iter().map(expect).collect::<Result<_, _>>()?;
    let reqs: Vec<Req> = reqs.into_iter().map(expect).collect::<Result<_, _>>()?;

    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut server = None;
    for k in 0..STARTS {
        let s = Server::start(ctx, spec.precision, &ctx.work.join(format!("store-{k}")))?;
        setup_s.push(s.setup_s);
        let stats = s.stats()?;
        fit_s.push(stats.span_total("xclass/fit-model").0 / 1e3);
        if k + 1 < STARTS {
            let ok = s.stop()?;
            out.tally(1, u64::from(!ok));
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one start");
    let addr = server.addr;
    for r in &warmup {
        let ok = client::request(addr, "POST", "/classify", &r.body, TIMEOUT)
            .is_ok_and(|rep| rep.status == 200 && rep.body == r.expected);
        out.tally(1, u64::from(!ok));
    }

    let pid = server.pid();
    let cpu0 = procs::cpu_ms(pid).map_err(|e| e.to_string())?;
    let untraced = drive(addr, &reqs, &due, spec.open_loop, seconds);
    let cpu_ms = procs::cpu_ms(pid).map_err(|e| e.to_string())? - cpu0;
    let peak_rss_mb = procs::peak_rss_mb(pid).map_err(|e| e.to_string())?;
    out.tally(untraced.ok + untraced.failed, untraced.failed);

    let lat = |w: &Window, p: f64| {
        stats::percentile(&w.latency_ms, p).ok_or_else(|| format!("too few requests for p{p}"))
    };
    out.set("setup_s", stats::median(&setup_s));
    out.set("fit_s", stats::fastest(&fit_s));
    out.set("latency_p50_ms", lat(&untraced, 50.0)?);
    out.set("latency_p99_ms", lat(&untraced, 99.0)?);
    out.set("docs_per_s", untraced.docs_ok as f64 / untraced.wall_s);
    out.set("peak_rss_mb", peak_rss_mb);

    if trace {
        let before = server.stats()?;
        let traced = drive(addr, &reqs, &due, spec.open_loop, seconds);
        let after = server.stats()?;
        out.tally(traced.ok + traced.failed, traced.failed);
        let window = after.since(&before);
        let batches: Vec<Vec<String>> = reqs.iter().take(1000).map(|r| r.docs.clone()).collect();
        let plm = structmine_plm::cache::pretrained(structmine_plm::cache::Tier::Test, 0);
        let rep = replay::run(&twin, &plm, &policy, &batches)?;
        layer_metrics(&mut out, &untraced, &traced, &window, &after, &rep, cpu_ms);
        out.set(
            "store.bytes_written",
            procs::dir_bytes(&server.store) as f64,
        );
        out.set(
            "trace.overhead",
            lat(&traced, 50.0)? / lat(&untraced, 50.0)? - 1.0,
        );
    }
    let ok = server.stop()?;
    out.tally(1, u64::from(!ok));
    Ok(out)
}

/// Warm-up requests, measured requests and (open loop) their due times.
#[allow(clippy::type_complexity)]
fn inputs(spec: &Spec, seed: u64, seconds: u64) -> (Vec<Vec<String>>, Vec<Vec<String>>, Vec<f64>) {
    if spec.open_loop {
        // A fixed count of arrivals (1.1 x rate x seconds, spread over
        // 1.1 x seconds), so that p99 has at least ten samples beyond it
        // whatever the seed.
        let n = (RATE * seconds as f64 * 1.1).ceil() as usize;
        let mut docs = gen::documents(seed, WARMUP + n);
        let measured = docs.split_off(WARMUP);
        let one = |v: Vec<String>| v.into_iter().map(|d| vec![d]).collect();
        (
            one(docs),
            one(measured),
            gen::poisson_schedule(seed, RATE, n),
        )
    } else {
        let docs = gen::documents(seed, BULK_DOCS * BULK_BODIES);
        let bodies: Vec<Vec<String>> = docs.chunks(BULK_DOCS).map(<[String]>::to_vec).collect();
        (bodies[..WARMUP.min(4)].to_vec(), bodies, Vec::new())
    }
}

/// Run one measured window against the server at `addr`.
fn drive(addr: SocketAddr, reqs: &[Req], due: &[f64], open_loop: bool, seconds: u64) -> Window {
    let conns = connections();
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Window::default());
    let start = Instant::now();
    let end = start + Duration::from_secs(seconds);
    let last_done = Mutex::new(start);
    std::thread::scope(|s| {
        for c in 0..conns {
            let (next, records, last_done) = (&next, &records, &last_done);
            s.spawn(move || {
                let mut mine = Window::default();
                let mut j = c;
                let mut ready = Instant::now();
                loop {
                    let (req, due_at) = if open_loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            break;
                        }
                        let due_at = start + Duration::from_secs_f64(due[i]);
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        (&reqs[i], due_at)
                    } else {
                        if Instant::now() >= end {
                            break;
                        }
                        let r = &reqs[j % reqs.len()];
                        j += conns;
                        (r, ready)
                    };
                    let sent = Instant::now();
                    let ok = client::request(addr, "POST", "/classify", &req.body, TIMEOUT)
                        .is_ok_and(|rep| rep.status == 200 && rep.body == req.expected);
                    let done = Instant::now();
                    ready = done;
                    let ms = |d: Duration| d.as_secs_f64() * 1e3;
                    mine.late_ms
                        .push(ms(sent.saturating_duration_since(due_at)));
                    mine.sent_ms.push(ms(done - sent));
                    if ok {
                        mine.ok += 1;
                        mine.docs_ok += req.docs.len() as u64;
                        mine.latency_ms
                            .push(ms(done.saturating_duration_since(due_at)));
                    } else {
                        // A failed request misses every latency limit.
                        mine.failed += 1;
                        mine.latency_ms.push(f64::INFINITY);
                    }
                }
                let mut l = last_done.lock().expect("no panics while held");
                *l = (*l).max(ready);
                let mut all = records.lock().expect("no panics while held");
                all.latency_ms.append(&mut mine.latency_ms);
                all.sent_ms.append(&mut mine.sent_ms);
                all.late_ms.append(&mut mine.late_ms);
                all.ok += mine.ok;
                all.failed += mine.failed;
                all.docs_ok += mine.docs_ok;
            });
        }
    });
    let mut w = records.into_inner().expect("no panics while held");
    let done = last_done.into_inner().expect("no panics while held");
    w.wall_s = (done - start).as_secs_f64();
    w
}

fn layer_metrics(
    out: &mut Outcome,
    untraced: &Window,
    traced: &Window,
    window: &RunReport,
    whole: &RunReport,
    rep: &replay::Replay,
    cpu_ms: f64,
) {
    let (req_ms, req_n) = window.span_total("serve/request");
    let request_ms = req_ms / req_n.max(1) as f64;
    let (batch_ms, _) = window.span_total("serve/batch-classify");
    let batches = window.counter("serve.batches").max(1) as f64;
    let batch_mean_ms = batch_ms / batches;
    let client_ms = stats::mean(&traced.sent_ms);
    let docs = window.counter("serve.docs").max(1) as f64;
    out.set("serve.request_ms", request_ms);
    out.set("serve.outside_ms", client_ms - request_ms);
    out.set("serve.batch_wait_ms", request_ms - batch_mean_ms);
    out.set(
        "serve.flush_deadline_share",
        window.counter("serve.flushes_deadline") as f64 / batches,
    );
    out.set("serve.batch_docs_mean", docs / batches);
    out.set(
        "serve.rejections",
        window.counter("serve.rejections") as f64,
    );
    out.set("serve.timeouts", window.counter("serve.timeouts") as f64);
    rep.set_metrics(out);
    window.set_metrics(out, whole, docs);
    out.set(
        "proc.cpu_ms_per_doc",
        cpu_ms / untraced.docs_ok.max(1) as f64,
    );
    out.set("proc.cpu_util", cpu_ms / 1e3 / untraced.wall_s);
    gen_metrics(out, untraced);

    // Client latency = outside + serve self + the request's batch, with
    // the batch's engine time taken from the in-process replay.
    let layers = [
        ("outside", client_ms - request_ms),
        ("serve", request_ms - batch_mean_ms),
        ("engine.head", rep.self_per_batch_ms("engine")),
        ("textkit", rep.self_per_batch_ms("textkit")),
        ("plm", rep.self_per_batch_ms("plm")),
        ("linalg", rep.self_per_batch_ms("linalg")),
    ];
    out.set("trace.coverage", crate::coverage(&layers, client_ms));
}

fn gen_metrics(out: &mut Outcome, w: &Window) {
    let late = stats::percentile(&w.late_ms, 99.0)
        .unwrap_or_else(|| w.late_ms.iter().copied().fold(0.0, f64::max));
    out.set("gen.late_p99_ms", late);
    out.set("gen.sent", (w.ok + w.failed) as f64);
    out.set("gen.ok", w.ok as f64);
    out.set("gen.failed", w.failed as f64);
}

/// A running `structmine-serve` child; stopped (SIGTERM, then reaped) on
/// drop if not stopped explicitly.
struct Server {
    child: Option<Child>,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    store: PathBuf,
    setup_s: f64,
}

impl Server {
    /// Start a server on a fresh store and time it to its `listening on`
    /// line: engine load, the X-Class fit and, on Fast, the tolerance
    /// self-check.
    fn start(ctx: &Ctx, precision: Precision, store: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(store).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let mut child = procs::clean_command(&ctx.bin.join("structmine-serve"))
            .args([
                "--labels",
                crate::LABELS,
                "--method",
                "xclass",
                "--tier",
                "test",
            ])
            .args(["--port", "0", "--precision", precision.name()])
            .env("STRUCTMINE_STORE_DIR", store)
            .env("STRUCTMINE_PLM_CACHE_DIR", &ctx.plm_cache)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn structmine-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut server = Server {
            child: Some(child),
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            store: store.to_path_buf(),
            setup_s,
        };
        read.map_err(|e| format!("read server stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not start (printed {line:?})"))?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    fn stats(&self) -> Result<RunReport, String> {
        let r = client::request(self.addr, "GET", "/stats", b"", TIMEOUT)
            .map_err(|e| format!("GET /stats: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET /stats answered {}", r.status));
        }
        RunReport::parse(&String::from_utf8_lossy(&r.body))
    }

    /// Graceful shutdown; true when the server exited with status 0.
    fn stop(mut self) -> Result<bool, String> {
        let mut child = self.child.take().expect("running");
        let r = procs::terminate(&mut child, TIMEOUT).map_err(|e| e.to_string())?;
        Ok(r.status.success())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = procs::terminate(&mut child, Duration::from_secs(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_small_sends_each_document_once() {
        let spec = Spec {
            precision: Precision::Exact,
            open_loop: true,
        };
        let (warmup, measured, due) = inputs(&spec, 7, 20);
        assert_eq!(due.len(), measured.len());
        assert!(measured.len() >= 1000, "p99 needs 1000 samples");
        let docs: Vec<&String> = warmup.iter().chain(&measured).flatten().collect();
        let distinct: std::collections::HashSet<&&String> = docs.iter().collect();
        assert_eq!(distinct.len(), docs.len());
    }

    #[test]
    fn load_stays_within_available_parallelism() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!((1..=nproc).contains(&connections()));
    }
}
