//! Host fingerprint, host speed, process memory and output digests.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// FNV-1a, 64-bit: a dependency-free digest for outputs and sources.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A fixed piece of harness work timed between jobs, to measure how fast
/// the host runs while the jobs run. On a shared host the same code runs
/// up to twice as slow in one minute as in another (cache and memory
/// contention from other tenants), and the jobs slow with it; end-to-end
/// timings are scaled by [`Probe::NOMINAL_NS`] over the probe's median
/// time in the run, which takes that drift out. The probe is harness
/// code, and it is timed only after an untimed warm-up round has put its
/// buffer back in cache, so neither a change to the program nor what a
/// job left in the caches changes its time.
pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    /// Scaled timings read as on a host where one probe round takes
    /// 1 ms (on the 2-vCPU Intel Xeon VM the benchmark was tuned on it
    /// took 0.9-1.9 ms, depending on the other tenants' load).
    pub const NOMINAL_NS: f64 = 1.0e6;

    pub fn new() -> Probe {
        // 16 MiB: past the per-core L2 and the TLB's reach, so the probe
        // runs from the shared cache, where other tenants' load shows.
        Probe {
            buf: vec![0; 1 << 21],
        }
    }

    /// 250k random read-modify-writes over the buffer, the same ones
    /// every round.
    fn round(&mut self) {
        let mask = self.buf.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..250_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (x >> 40) as usize & mask;
            self.buf[j] = self.buf[j].wrapping_add(i);
        }
        std::hint::black_box(&self.buf);
    }

    /// Warm up, then time one round.
    pub fn time_ns(&mut self) -> u64 {
        self.round();
        let start = Instant::now();
        self.round();
        start.elapsed().as_nanos() as u64
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// First line of a command's stdout, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Digest of the program's sources (`src/`, `crates/`, root manifests),
/// which identifies the code measured even where the checkout is not a
/// git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    h.hex()
}

/// The host fingerprint recorded in every results file, as JSON fields.
pub fn fingerprint(root: &Path, threads: usize, seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quote = |s: Option<String>| s.map_or("null".to_string(), |s| crate::report::json_str(&s));
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", quote(cpu_model())),
        ("rustc", quote(command_line("rustc", &["--version"]))),
        // Only a checkout that is itself a git repository has a commit; a
        // plain source tree must not pick up an enclosing repository's.
        (
            "git_commit",
            quote(
                root.join(".git")
                    .exists()
                    .then(|| command_line("git", &["rev-parse", "HEAD"]))
                    .flatten(),
            ),
        ),
        (
            "source_digest",
            crate::report::json_str(&source_digest(root)),
        ),
        ("threads", threads.to_string()),
        ("seed", seed.to_string()),
    ]
}
