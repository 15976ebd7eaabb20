//! `classify_offline`: the call `structmine classify` makes, one
//! `Engine::classify` over 20,000 distinct documents at Exact, in a child
//! process of its own so that set-up starts from a cold process and a
//! fresh store, and peak memory is the classifying process's alone.

use std::process::Stdio;
use std::time::Instant;

use structmine_linalg::{ExecPolicy, Precision};
use structmine_store::obs;

use crate::report::Outcome;
use crate::runreport::{self, RunReport};
use crate::{gen, procs, replay, stats, Ctx};

/// Documents per `Engine::classify` call.
pub const DOCS: usize = 20_000;
/// Documents re-classified alone to check batch invariance.
const INVARIANCE_SAMPLE: usize = 64;
/// Set-up-only child processes started before the measured one; the
/// measured child's set-up is one more sample. `setup_s` is their median,
/// `fit_s` the fastest of their fits.
const EXTRA_SETUPS: usize = 14;

pub fn run(ctx: &Ctx, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    for k in 0..=EXTRA_SETUPS {
        let measured = k == EXTRA_SETUPS;
        let store = ctx.work.join(format!("offline-store-{k}"));
        let mut cmd = procs::clean_command(&std::env::current_exe().map_err(|e| e.to_string())?);
        cmd.args([
            "--child",
            if measured { "offline" } else { "offline-setup" },
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--store")
        .arg(&store)
        .arg("--plm-cache")
        .arg(&ctx.plm_cache)
        .stdout(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn offline child: {e}"))?;
        let stdout = std::io::read_to_string(child.stdout.take().expect("stdout is piped"))
            .map_err(|e| format!("read offline child: {e}"));
        let reaped = procs::reap(&child, false)
            .map_err(|e| e.to_string())?
            .expect("blocking reap returns the child");
        let stdout = stdout?;
        if !reaped.status.success() {
            return Err(format!("offline child failed: {}", reaped.status));
        }
        let line = stdout.lines().last().unwrap_or_default();
        let child_metrics = parse_flat(line)?;
        let get = |k: &str| {
            child_metrics
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("offline child did not report {k}"))
        };
        setup_s.push((get("load_ms")? + get("warm_ms")?) / 1e3);
        fit_s.push(get("warm_ms")? / 1e3);
        if measured {
            out.tally(get("attempted")? as u64, get("failed")? as u64);
            for (name, value) in &child_metrics {
                if let Some(&(known, _)) = crate::report::END_TO_END
                    .iter()
                    .chain(crate::report::PER_LAYER)
                    .find(|(n, _)| n == name)
                {
                    out.set(known, *value);
                }
            }
            out.set("peak_rss_mb", reaped.peak_rss_mb);
            out.set("store.bytes_written", procs::dir_bytes(&store) as f64);
        }
    }
    out.set("setup_s", stats::median(&setup_s));
    out.set("fit_s", stats::fastest(&fit_s));
    Ok(out)
}

/// A flat JSON object of numbers, as the child prints it.
fn parse_flat(line: &str) -> Result<Vec<(String, f64)>, String> {
    let v: serde::Value =
        serde_json::from_str(line).map_err(|e| format!("offline child output {line:?}: {e}"))?;
    match v {
        serde::Value::Map(entries) => Ok(entries
            .into_iter()
            .filter_map(|(k, v)| runreport::as_f64(&v).map(|x| (k, x)))
            .collect()),
        _ => Err(format!("offline child output {line:?} is not an object")),
    }
}

/// The child process: load, warm, then classify for `seconds`; prints one
/// flat JSON object of numbers.
pub fn child(setup_only: bool, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let policy = ExecPolicy::from_env().with_precision(Precision::Exact);
    let t0 = Instant::now();
    let engine = crate::load_engine(policy)?;
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    engine.warm().map_err(|e| e.to_string())?;
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut fields = vec![("load_ms", load_ms), ("warm_ms", warm_ms)];
    if setup_only {
        return print_flat(&fields);
    }

    let docs = gen::documents(seed, DOCS);
    engine.classify(&docs[..256]).map_err(|e| e.to_string())?; // warm caches outside the timing
    let before = report_now()?;
    let cpu0 = procs::cpu_ms(std::process::id()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut calls_ms = Vec::new();
    let mut first = None;
    let mut failed = 0u64;
    while calls_ms.is_empty() || start.elapsed().as_secs() < seconds {
        let t = Instant::now();
        let preds = engine.classify(&docs).map_err(|e| e.to_string())?;
        calls_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // Every call must return the first call's predictions.
        match &first {
            None => first = Some(preds),
            Some(f) => failed += f.iter().zip(&preds).filter(|(a, b)| a != b).count() as u64,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ms = procs::cpu_ms(std::process::id()).map_err(|e| e.to_string())? - cpu0;
    let window = report_now()?.since(&before);
    let preds = first.expect("at least one call");

    // Batch invariance on a seeded sample: a document classified alone
    // gets exactly its in-batch prediction.
    let mut rng = gen::Rng::new(seed ^ 0x1a7a);
    for _ in 0..INVARIANCE_SAMPLE {
        let i = rng.below(DOCS);
        let alone = engine
            .classify(std::slice::from_ref(&docs[i]))
            .map_err(|e| e.to_string())?;
        failed += u64::from(alone[0] != preds[i]);
    }
    let n_docs = (DOCS * calls_ms.len()) as f64;
    // Each document's result is ready when its call returns.
    let per_doc: Vec<f64> = calls_ms
        .iter()
        .flat_map(|&ms| std::iter::repeat_n(ms, DOCS))
        .collect();
    let pct = |p| stats::percentile(&per_doc, p).ok_or("too few documents for percentile");
    fields.extend([
        ("attempted", n_docs + INVARIANCE_SAMPLE as f64),
        ("failed", failed as f64),
        ("latency_p50_ms", pct(50.0)?),
        ("latency_p99_ms", pct(99.0)?),
        ("docs_per_s", n_docs / wall_s),
    ]);
    if trace {
        let plm = structmine_plm::cache::pretrained(structmine_plm::cache::Tier::Test, 0);
        let rep = replay::run(&engine, &plm, &policy, std::slice::from_ref(&docs))?;
        let mut m = Outcome::default();
        rep.set_metrics(&mut m);
        window.set_metrics(&mut m, &report_now()?, n_docs);
        let call_ms = stats::mean(&calls_ms);
        let layers = [
            ("engine.head", rep.self_per_batch_ms("engine")),
            ("textkit", rep.self_per_batch_ms("textkit")),
            ("plm", rep.self_per_batch_ms("plm")),
            ("linalg", rep.self_per_batch_ms("linalg")),
        ];
        m.set("trace.coverage", crate::coverage(&layers, call_ms));
        m.set("trace.overhead", rep.per_batch_ms("engine") / call_ms - 1.0);
        m.set("proc.cpu_ms_per_doc", cpu_ms / n_docs);
        m.set("proc.cpu_util", cpu_ms / 1e3 / wall_s);
        m.set("gen.sent", n_docs);
        m.set("gen.ok", n_docs - failed as f64);
        m.set("gen.failed", failed as f64);
        crate::bypassed(&mut m, &["serve.", "gen.late_p99_ms"]);
        fields.extend(m.metrics.iter().map(|(k, v)| (*k, *v)));
    }
    print_flat(&fields)
}

fn report_now() -> Result<RunReport, String> {
    let json = serde_json::to_string(&obs::report("perfbench")).map_err(|e| e.to_string())?;
    RunReport::parse(&json)
}

fn print_flat(fields: &[(&str, f64)]) -> Result<(), String> {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    println!("{{{}}}", body.join(", "));
    Ok(())
}
