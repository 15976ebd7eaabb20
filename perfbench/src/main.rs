//! `perfbench` — the structmine benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (as `cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). It builds `structmine-serve` and
//! `table_xclass` from the repository into its own target directory,
//! runs one workload, checks every output, and prints as its last line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it names the host and the code measured. Workloads, metrics and the
//! layer map are described in `perfbench/README.md`.
//!
//! Everything it writes goes under `<target>/perfbench-work/`: the
//! pretrained-PLM cache shared by runs, and a directory per run that is
//! removed when the run ends.

mod client;
mod fit;
mod gen;
mod offline;
mod procs;
mod replay;
mod report;
mod runreport;
mod serve;
mod stats;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_linalg::{ExecPolicy, Precision};

/// The label names every workload classifies into.
pub const LABELS: &str = "sports,business,politics,technology";

const USAGE: &str =
    "usage: perfbench --workload <serve_small|serve_bulk|classify_offline|fit_cold> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where a run finds the repository and keeps its files.
pub struct Ctx {
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// Directory holding the built `structmine-serve` and `table_xclass`.
    pub bin: PathBuf,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// Pretrained-PLM cache shared by runs, so serving set-up loads the
    /// model rather than pretraining it.
    pub plm_cache: PathBuf,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn parse_args() -> Result<HashMap<String, String>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments {argv:?}")),
        }
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let v = args
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    v.parse().map_err(|_| format!("bad --{key} {v}"))
}

fn run(args: &HashMap<String, String>) -> Result<(), String> {
    let seed: u64 = flag(args, "seed")?;
    let seconds: u64 = flag(args, "seconds")?;
    let trace = match flag::<u8>(args, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace {t}")),
    };
    // Children see only the configuration a workload gives them; this
    // process's own engine uses the store and PLM cache set below.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("STRUCTMINE_") {
            std::env::remove_var(key);
        }
    }
    if let Some(child) = args.get("child") {
        set_dirs(
            &PathBuf::from(flag::<String>(args, "store")?),
            &PathBuf::from(flag::<String>(args, "plm-cache")?),
        )?;
        return match child.as_str() {
            "offline-setup" => offline::child(true, seed, seconds, trace),
            "offline" => offline::child(false, seed, seconds, trace),
            other => Err(format!("unknown child {other}")),
        };
    }
    let workload: String = flag(args, "workload")?;
    if !matches!(
        workload.as_str(),
        "serve_small" | "serve_bulk" | "classify_offline" | "fit_cold"
    ) {
        return Err(format!("unknown workload {workload}"));
    }

    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() {
        return Err("run from the repository root (no crates/ here)".into());
    }
    let bin = procs::build_binaries(&root).map_err(|e| format!("build: {e}"))?;
    let base = bin.join("..").join("perfbench-work");
    let work = base.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let ctx = Ctx {
        root: root.clone(),
        bin,
        work,
        plm_cache: base.join("plm-cache"),
    };
    set_dirs(&ctx.work.join("bench-store"), &ctx.plm_cache)?;
    println!("{}", procs::host_stamp(&root));

    let result = match workload.as_str() {
        "serve_small" => {
            let spec = serve::Spec {
                precision: Precision::Exact,
                open_loop: true,
            };
            serve::run(&ctx, &spec, seed, seconds, trace)
        }
        "serve_bulk" => {
            let spec = serve::Spec {
                precision: Precision::Fast,
                open_loop: false,
            };
            serve::run(&ctx, &spec, seed, seconds, trace)
        }
        "classify_offline" => offline::run(&ctx, seed, seconds, trace),
        _ => fit::run(&ctx, seconds, trace),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut out = result?;
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let catalog = if trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", out.to_json(catalog)?);
    Ok(())
}

/// Point this process's artifact store and PLM cache at `store` and
/// `plm_cache` (before either is first used).
fn set_dirs(store: &Path, plm_cache: &Path) -> Result<(), String> {
    for d in [store, plm_cache] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    std::env::set_var("STRUCTMINE_STORE_DIR", store);
    std::env::set_var("STRUCTMINE_PLM_CACHE_DIR", plm_cache);
    Ok(())
}

/// The engine `structmine-serve` and `structmine classify` load for the
/// workloads' labels: X-Class on the Test-tier PLM.
pub fn load_engine(exec: ExecPolicy) -> Result<Engine, String> {
    Engine::load(EngineConfig {
        source: EngineSource::Labels(LABELS.split(',').map(str::to_string).collect()),
        method: MethodKind::XClass,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed: None,
        exec,
    })
    .map_err(|e| format!("load engine: {e}"))
}

/// Sum of the layers' self times over the end-to-end time they split.
/// Each layer's line also goes to stderr, with its share.
pub fn coverage(layers: &[(&str, f64)], end_to_end_ms: f64) -> f64 {
    eprintln!("{:<26} {:>10} {:>9}", "layer", "self_ms", "share");
    for (name, ms) in layers {
        eprintln!("{name:<26} {ms:>10.3} {:>8.1}%", 100.0 * ms / end_to_end_ms);
    }
    layers.iter().map(|(_, ms)| ms.max(0.0)).sum::<f64>() / end_to_end_ms
}

/// Report 0 for every per-layer metric whose name starts with one of
/// `prefixes`: the layers a workload bypasses.
pub fn bypassed(out: &mut report::Outcome, prefixes: &[&str]) {
    for (name, _) in report::PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            out.set(name, 0.0);
        }
    }
}
