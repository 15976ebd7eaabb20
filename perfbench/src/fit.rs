//! `fit_cold`: a cold `table_xclass` at the CI golden configuration, with
//! fresh store and PLM-cache directories, checked byte for byte against
//! `ci/golden/table_xclass_test.out`.

use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

use crate::report::Outcome;
use crate::runreport::RunReport;
use crate::{gen, procs, replay, stats, Ctx};

const GOLDEN: &str = "ci/golden/table_xclass_test.out";
/// The golden's configuration (see `ci/golden/README.md`).
const GOLDEN_ENV: &[(&str, &str)] = &[
    ("STRUCTMINE_PLM_TIER", "test"),
    ("STRUCTMINE_ADAPT_STEPS", "50"),
    ("STRUCTMINE_SCALE", "0.05"),
    ("STRUCTMINE_SEEDS", "1"),
];
/// How often the run's directories and exit are checked.
const POLL: Duration = Duration::from_millis(2);

/// One cold run as seen from outside.
struct ColdRun {
    wall_s: f64,
    /// Start until the pretrained PLM checkpoint lands in the cache dir.
    plm_ready_s: f64,
    peak_rss_mb: f64,
    cpu_ms: f64,
    golden: bool,
    docs: f64,
    bytes_written: u64,
    report: Option<RunReport>,
}

/// The golden's inputs are pinned, so the seed does not vary this
/// workload. A cold run takes about as long as a run's `seconds`; another
/// is started only if one more fits in the time left.
pub fn run(ctx: &Ctx, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let golden = std::fs::read(ctx.root.join(GOLDEN)).map_err(|e| format!("read {GOLDEN}: {e}"))?;
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut runs: Vec<ColdRun> = Vec::new();
    while runs
        .last()
        .is_none_or(|r| start.elapsed().as_secs_f64() + r.wall_s <= seconds as f64)
    {
        let r = cold_run(
            ctx,
            &golden,
            &ctx.work.join(format!("cold-{}", runs.len())),
            false,
        )?;
        out.tally(1, u64::from(!r.golden));
        runs.push(r);
    }
    let med = |f: fn(&ColdRun) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
    let wall_s = med(|r| r.wall_s);
    out.set("setup_s", med(|r| r.plm_ready_s));
    out.set("fit_s", wall_s);
    // Every document's label is printed when the run ends, so all of
    // them share one latency.
    out.set("latency_p50_ms", wall_s * 1e3);
    out.set("latency_p99_ms", wall_s * 1e3);
    out.set("docs_per_s", med(|r| r.docs / r.wall_s));
    out.set("peak_rss_mb", med(|r| r.peak_rss_mb));

    if trace {
        let t = cold_run(ctx, &golden, &ctx.work.join("cold-traced"), true)?;
        out.tally(1, u64::from(!t.golden));
        let report = t.report.as_ref().expect("traced runs write a report");
        report.set_metrics(&mut out, report, t.docs);
        out.set("store.bytes_written", t.bytes_written as f64);
        out.set("proc.cpu_ms_per_doc", t.cpu_ms / t.docs);
        out.set("proc.cpu_util", t.cpu_ms / 1e3 / t.wall_s);
        out.set("trace.overhead", t.wall_s / wall_s - 1.0);
        // The report's root spans are the run's layers, against the wall
        // time seen from outside.
        let layers: Vec<(&str, f64)> = report
            .spans
            .iter()
            .filter(|s| s.path.len() == 1)
            .map(|s| (s.path[0].as_str(), s.wall_ms))
            .collect();
        out.set("trace.coverage", crate::coverage(&layers, t.wall_s * 1e3));
        // The kernels at the PLM's shapes, over agnews-length documents.
        let plm = structmine_plm::cache::pretrained(structmine_plm::cache::Tier::Test, 0);
        let gemm = replay::GemmShapes::of(&plm.config);
        let lens: Vec<usize> = gen::documents(0, 2048)
            .iter()
            .map(|d| gemm.seq_len(d.split_whitespace().count()))
            .collect();
        let policy = structmine_linalg::ExecPolicy::from_env();
        let rates = gemm.rates(&lens, &policy);
        out.set("linalg.gemm_gflops.exact", rates.exact);
        out.set("linalg.gemm_gflops.fast", rates.fast);
        let n = lens.len() as f64;
        out.set(
            "linalg.computed_gemm_flop_per_doc",
            lens.iter().map(|&l| gemm.flop(l)).sum::<f64>() / n,
        );
        out.set(
            "linalg.computed_gemm_bytes_per_doc",
            lens.iter().map(|&l| gemm.bytes(l)).sum::<f64>() / n,
        );
        crate::bypassed(
            &mut out,
            &[
                "serve.",
                "engine.",
                "textkit.",
                "plm.encode_ms",
                "plm.tokens_per_s",
                "linalg.gemm_ms",
                "gen.late_p99_ms",
            ],
        );
        let ok = runs.iter().filter(|r| r.golden).count() as f64;
        out.set("gen.sent", runs.len() as f64);
        out.set("gen.ok", ok);
        out.set("gen.failed", runs.len() as f64 - ok);
    }
    Ok(out)
}

fn cold_run(ctx: &Ctx, golden: &[u8], dir: &Path, traced: bool) -> Result<ColdRun, String> {
    let store = dir.join("store");
    let plm_cache = dir.join("plm-cache");
    for d in [&store, &plm_cache] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let stdout_path = dir.join("table.out");
    let report_path = dir.join("report.json");
    let mut cmd = procs::clean_command(&ctx.bin.join("table_xclass"));
    cmd.envs(GOLDEN_ENV.iter().copied())
        .env("STRUCTMINE_STORE_DIR", &store)
        .env("STRUCTMINE_PLM_CACHE_DIR", &plm_cache)
        .stdout(std::fs::File::create(&stdout_path).map_err(|e| e.to_string())?)
        .stderr(Stdio::null());
    if traced {
        cmd.arg("--report-json").arg(&report_path);
    }
    let t0 = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn table_xclass: {e}"))?;
    let mut plm_ready_s = None;
    let reaped = loop {
        if let Some(r) = procs::reap(&child, true).map_err(|e| e.to_string())? {
            break r;
        }
        if plm_ready_s.is_none() && procs::dir_has_entries(&plm_cache) {
            plm_ready_s = Some(t0.elapsed().as_secs_f64());
        }
        std::thread::sleep(POLL);
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let stdout = std::fs::read(&stdout_path).map_err(|e| e.to_string())?;
    let report = if traced {
        let json =
            std::fs::read_to_string(&report_path).map_err(|e| format!("read report: {e}"))?;
        Some(RunReport::parse(&json)?)
    } else {
        None
    };
    Ok(ColdRun {
        wall_s,
        plm_ready_s: plm_ready_s.unwrap_or(wall_s),
        peak_rss_mb: reaped.peak_rss_mb,
        cpu_ms: reaped.cpu_ms,
        golden: reaped.status.success() && stdout == golden,
        docs: documents_in(&String::from_utf8_lossy(&stdout)),
        bytes_written: procs::dir_bytes(&store) + procs::dir_bytes(&plm_cache),
        report,
    })
}

/// The sum of the `documents` column of the dataset-statistics table.
fn documents_in(table: &str) -> f64 {
    let mut lines = table.lines().skip_while(|l| !l.contains("documents"));
    let Some(header) = lines.next() else {
        return f64::NAN;
    };
    let Some(col) = header.split_whitespace().position(|h| h == "documents") else {
        return f64::NAN;
    };
    lines
        .skip(1) // the rule under the header
        .map_while(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            cells.get(col).and_then(|c| c.parse::<f64>().ok())
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_documents_column() {
        let table = "== stats ==\n   dataset  classes  documents  imbalance\n   -----\n   \
                     agnews   4        80         1.000\n   yelp     2        50         1.000\n   \
                     ✗ note\n";
        assert_eq!(documents_in(table), 130.0);
    }
}
