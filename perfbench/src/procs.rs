//! Child processes and what the kernel reports about them: exit status,
//! peak resident memory and CPU time. Also the host stamp and the build of
//! the measured binaries.

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::time::Duration;

/// `struct rusage` on Linux x86_64 / aarch64: two `timeval`s, then 14
/// `long` fields, of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
const SIGTERM: i32 = 15;

/// How a reaped child ended and what it used.
pub struct Reaped {
    pub status: ExitStatus,
    pub peak_rss_mb: f64,
    pub cpu_ms: f64,
}

/// Reap `child`, blocking unless `nohang`; `Ok(None)` if it still runs.
///
/// Uses `wait4` rather than `Child::wait` because only `wait4` reports the
/// child's own peak RSS and CPU time. The caller must not also call
/// `Child::wait`/`try_wait` on the same child.
pub fn reap(child: &Child, nohang: bool) -> io::Result<Option<Reaped>> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types `wait4` fills (an int and a Linux `struct rusage`, whose
        // layout `RUsage` reproduces); `pid` names our own child.
        let r = unsafe {
            wait4(
                pid,
                &mut status,
                if nohang { WNOHANG } else { 0 },
                &mut usage,
            )
        };
        if r == pid {
            let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
            return Ok(Some(Reaped {
                status: ExitStatus::from_raw(status),
                peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
                cpu_ms: ms(usage.utime) + ms(usage.stime),
            }));
        }
        if r == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Ask `child` to shut down gracefully (SIGTERM) and reap it, killing it
/// if it has not exited within `grace`.
pub fn terminate(child: &mut Child, grace: Duration) -> io::Result<Reaped> {
    // SAFETY: plain syscall on our own unreaped child's pid.
    unsafe { kill(child.id() as i32, SIGTERM) };
    let deadline = std::time::Instant::now() + grace;
    loop {
        if let Some(r) = reap(child, true)? {
            return Ok(r);
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            return reap(child, false)?.ok_or_else(|| io::Error::other("child vanished"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// User plus system CPU time of a live process, from `/proc/<pid>/stat`.
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((tick(11)? + tick(12)?) * 1000.0 / CLOCK_TICKS_PER_S)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Build the measured binaries (`structmine-serve`, `table_xclass`) from
/// the repository at `root` into the target directory this benchmark
/// itself was built into, and return that directory's `release` folder.
pub fn build_binaries(root: &Path) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let release = exe
        .parent()
        .ok_or_else(|| io::Error::other("benchmark executable has no directory"))?
        .to_path_buf();
    let target = release
        .parent()
        .ok_or_else(|| io::Error::other("benchmark executable is not in a target dir"))?;
    let status = Command::new("cargo")
        .current_dir(root)
        .args(["build", "--release", "--quiet", "--target-dir"])
        .arg(target)
        .args(["-p", "structmine-serve", "--bin", "structmine-serve"])
        .args(["-p", "structmine-bench", "--bin", "table_xclass"])
        .stdout(std::process::Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("cargo build failed: {status}")));
    }
    Ok(release)
}

/// A command with every inherited `STRUCTMINE_*` setting removed, so a
/// child sees only the configuration the workload gives it.
pub fn clean_command(program: &Path) -> Command {
    let mut cmd = Command::new(program);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("STRUCTMINE_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Whether `dir` holds any entry yet.
pub fn dir_has_entries(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|mut d| d.next().is_some())
}

/// One line naming the host and the code measured: CPU model, vCPUs,
/// SIMD flags, rustc version and the commit (or, outside a git checkout,
/// a hash of the sources).
pub fn host_stamp(root: &Path) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|v| v.split_whitespace().collect())
        .unwrap_or_default();
    let simd: Vec<&str> = ["sse2", "avx2", "fma", "avx512f"]
        .into_iter()
        .filter(|f| flags.contains(f))
        .collect();
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let output = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = output(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let commit = output(
        Command::new("git")
            .current_dir(root)
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null()),
    )
    .unwrap_or_else(|| format!("tree:{:016x}", source_hash(root)));
    format!(
        "host cpu=\"{model}\" vcpus={vcpus} simd={} rustc=\"{rustc}\" commit={commit}",
        simd.join(",")
    )
}

/// FNV-1a over the paths and bytes of the sources that build the measured
/// binaries, in sorted order.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "shims"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
