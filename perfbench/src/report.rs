//! Statistics, provenance and the result record.

use divr_service::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Metrics printed by an untraced run (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_p50_us", "us"),
    ("frame_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed by a traced run (`--trace 1`), with units. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("json.parse_us", "us"),
    ("proto.frame_bytes", "bytes"),
    ("json.serialize_us", "us"),
    ("proto.ping_rtt_us", "us"),
    ("wire.decode_us", "us"),
    ("admission.us", "us"),
    ("admission.rejected", "count"),
    ("spec.key_us", "us"),
    ("relquery.canon_us", "us"),
    ("query.key_us", "us"),
    ("registry.serve_us", "us"),
    ("registry.overhead_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MB"),
    ("engine.prepare_ms", "ms"),
    ("coreset.prepare_ms", "ms"),
    ("engine.solve.max_sum_us", "us"),
    ("engine.solve.max_min_us", "us"),
    ("engine.solve.mono_us", "us"),
    ("engine.rescore.max_sum_us", "us"),
    ("engine.rescore.max_min_us", "us"),
    ("engine.rescore.mono_us", "us"),
    ("query.serve_us", "us"),
    ("relquery.eval_us", "us"),
    ("query.insert_us", "us"),
    ("query.remove_us", "us"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.recover_ms", "ms"),
    ("persist.wal_records", "count"),
    ("persist.wal_bytes_per_record", "bytes"),
    ("persist.snapshot_bytes", "bytes"),
    ("gen.late_p90_us", "us"),
    ("mutate_p50_us", "us"),
    ("mutate_p90_us", "us"),
    ("trace.coverage", "ratio"),
];

/// Quantile `q` of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run produced.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub diagnostics: Vec<(String, f64, &'static str)>,
    /// Filesystem type of the daemon's data directory (`none` without
    /// one): fsync cost depends on it.
    pub data_dir_fs: String,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            diagnostics: Vec::new(),
            data_dir_fs: "none".to_string(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn diag(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push((name.into(), value, unit));
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn listed(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// `{"name": {"value", "unit"}}` for every listed metric.
    pub fn metrics_json(&self) -> Value {
        Value::Object(
            self.listed()
                .iter()
                .map(|&(name, unit)| {
                    (
                        name.to_string(),
                        metric(self.metrics.get(name).copied().unwrap_or(0.0), unit),
                    )
                })
                .collect(),
        )
    }

    /// Prints the human-readable lines, the provenance record, and the
    /// result line last. Returns the process exit code.
    pub fn print(&self) -> i32 {
        let mode = if self.trace { "traced" } else { "untraced" };
        println!("== {} seed={} ({mode})", self.workload, self.seed);
        for &(name, unit) in self.listed() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            println!("  {name:<30} {value:>14.3} {unit}");
        }
        for (name, value, unit) in &self.diagnostics {
            println!("  (diag) {name:<23} {value:>14.3} {unit}");
        }
        for p in &self.problems {
            println!("  FAILED CHECK: {p}");
        }
        let succeeded = self.attempted.saturating_sub(self.failed);
        let failed_frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let mut record = provenance(&self.data_dir_fs);
        record.extend([
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("seed".to_string(), Value::Int(self.seed as i64)),
            ("trace".to_string(), Value::Bool(self.trace)),
            ("attempted".to_string(), Value::Int(self.attempted as i64)),
            ("succeeded".to_string(), Value::Int(succeeded as i64)),
            ("failed".to_string(), Value::Int(self.failed as i64)),
            ("failed_frac".to_string(), metric(failed_frac, "ratio")),
            ("metrics".to_string(), self.metrics_json()),
            (
                "diagnostics".to_string(),
                Value::Object(
                    self.diagnostics
                        .iter()
                        .map(|(n, v, u)| (n.clone(), metric(*v, u)))
                        .collect(),
                ),
            ),
            (
                "problems".to_string(),
                Value::Array(
                    self.problems
                        .iter()
                        .map(|p| Value::Str(p.clone()))
                        .collect(),
                ),
            ),
        ]);
        println!(
            "{}",
            Value::Object(vec![("record".to_string(), Value::Object(record))]).to_json()
        );
        println!(
            "{}",
            Value::Object(vec![
                ("correct".to_string(), Value::Bool(self.correct())),
                (
                    "attempted".to_string(),
                    Value::Int(self.attempted.max(1) as i64)
                ),
                ("failed".to_string(), Value::Int(self.failed as i64)),
                ("metrics".to_string(), self.metrics_json()),
            ])
            .to_json()
        );
        if self.correct() && self.failed == 0 {
            0
        } else {
            1
        }
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".to_string(), Value::Float(value)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ])
}

fn command_line(program: &str, args: &[&str], ceiling: Option<&Path>) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = ceiling {
        // Never let git answer for a repository above this directory.
        cmd.env("GIT_CEILING_DIRECTORIES", dir);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over the workspace sources, for checkouts without git
/// metadata.
fn source_digest() -> String {
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
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.push("Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unavailable".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unavailable".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unavailable".to_string(), |(_, t)| t)
}

fn provenance(data_dir_fs: &str) -> Vec<(String, Value)> {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(Path::to_path_buf);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "git_rev".to_string(),
            Value::Str(command_line(
                "git",
                &["rev-parse", "HEAD"],
                ceiling.as_deref(),
            )),
        ),
        ("source_digest".to_string(), Value::Str(source_digest())),
        ("nproc".to_string(), Value::Int(nproc as i64)),
        (
            "rustc".to_string(),
            Value::Str(command_line("rustc", &["--version"], None)),
        ),
        (
            "data_dir_fs".to_string(),
            Value::Str(data_dir_fs.to_string()),
        ),
    ]
}
