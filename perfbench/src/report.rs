//! Output: run stamp, output checks, metric lines and the final JSON line.

use std::path::Path;
use std::process::Command;

/// FNV-1a 64-bit digest (stamps the workload config and the sources).
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every workspace source and manifest, in path order: the
/// revision stamp of a checkout that carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = FNV_OFFSET;
    for file in &files {
        let Ok(bytes) = std::fs::read(file) else {
            return "unavailable".into();
        };
        hash = fnv1a(file.to_string_lossy().as_bytes(), hash);
        hash = fnv1a(&bytes, hash);
    }
    format!("{hash:016x}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Prints the ledger fields every result carries: host parallelism, the
/// toolchain, the revision, the workload seed and a digest of the
/// workload's configuration.
pub fn print_stamp(workload: &str, seed: u64, trace: bool, config: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let git_rev =
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unavailable".into());
    println!(
        "stamp {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \
         \"rustc\": {}, \"git_rev\": {}, \"source_digest\": {}, \"config_digest\": \"{:016x}\"}}",
        json_str(workload),
        json_str(&rustc),
        json_str(&git_rev),
        json_str(&source_digest()),
        fnv1a(config.as_bytes(), FNV_OFFSET),
    );
    println!("config {config}");
}

/// Failed output checks, counted as failed operations.
#[derive(Debug, Default)]
pub struct Checks {
    failed: u64,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            println!("check FAILED: {what}");
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set size of this process (Linux `VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints one line per metric, then the result object as the last line.
pub fn finish(attempted: u64, checks: &Checks, metrics: &[Metric]) -> bool {
    for m in metrics {
        println!("metric {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = checks.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed(),
        body.join(", ")
    );
    correct
}
