//! `perfbench`: the end-to-end, layer-attributed benchmark.
//!
//! ```text
//! perfbench --workload <batch|ingest|query|query-spill> --seed <n>
//!           --seconds <s> --trace <0|1> --energydx <path> [--work <dir>]
//!           [--mix <dashboard|equal>]
//! ```
//!
//! Drives the real `energydx` binary over a corpus generated from the
//! seed, checks every output, and prints the metrics by name and unit.
//! The last line of standard output is one JSON object: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. `perfbench/README.md` says why each
//! workload exists and which metric each layer should move.

mod batch;
mod corpus;
mod daemon;
mod proc;
mod scrape;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every workload reports, with units. Each
/// `opN_p50_ms` slot is the median of one kind of user-visible
/// operation, so each kind is gated on its own: `batch` fills the
/// three with its three jobs, `query*` with diagnose, regressions and
/// report, and `ingest`, which has one kind, fills all three with it.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op1_p50_ms", "ms"),
    ("op2_p50_ms", "ms"),
    ("op3_p50_ms", "ms"),
];

/// The per-kind slots of [`END_TO_END`].
const OP_SLOTS: [&str; 3] = ["op1_p50_ms", "op2_p50_ms", "op3_p50_ms"];

/// The per-layer metrics a traced run reports, with units. Times are
/// totals over the traced run's replayed or scraped work, in seconds.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("cli.read_s", "s"),
    ("cli.read_bytes", "B"),
    ("cli.unattributed_s", "s"),
    ("trace.from_log_s", "s"),
    ("trace.join_s", "s"),
    ("trace.prepare_wire_s", "s"),
    ("trace.salvaged", "count"),
    ("trace.repaired", "count"),
    ("trace.quarantined", "count"),
    ("trace.accept_ratio", "ratio"),
    ("powermodel.convert_s", "s"),
    ("core.map_s", "s"),
    ("core.fold_s", "s"),
    ("core.analyze_s", "s"),
    ("core.render_s", "s"),
    ("core.json_s", "s"),
    ("core.instances", "count"),
    ("fleetd.protocol_s", "s"),
    ("fleetd.protocol_bytes", "B"),
    ("fleetd.server.connect_s", "s"),
    ("fleetd.server.open_fds", "count"),
    ("fleetd.server.threads", "count"),
    ("fleetd.queue_wait_s", "s"),
    ("fleetd.queue.max_depth", "count"),
    ("fleetd.queue.shed", "count"),
    ("fleetd.state.submit_s", "s"),
    ("fleetd.state.compactions", "count"),
    ("fleetd.state.compact_s", "s"),
    ("fleetd.state.diagnose_hit_s", "s"),
    ("fleetd.state.diagnose_miss_s", "s"),
    ("fleetd.state.wait_s", "s"),
    ("fleetd.state.resident_bytes", "B"),
    ("fleetd.cache.state_hit_ratio", "ratio"),
    ("fleetd.cache.segment_hit_ratio", "ratio"),
    ("fleetd.cache.bytes", "B"),
    ("fleetd.cache.evictions", "count"),
    ("fleetd.checkpoint_s", "s"),
    ("fleetd.checkpoint_bytes", "B"),
    ("fleetd.spill.spills", "count"),
    ("fleetd.spill.foldbacks", "count"),
    ("segment.load_s", "s"),
    ("segment.save_s", "s"),
    ("segment.spilled_bytes", "B"),
    ("segment.files", "count"),
    ("regress.regressions_s", "s"),
    ("report.build_s", "s"),
    ("report.html_s", "s"),
    ("report.json_s", "s"),
    ("fleetd.report_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("loadgen.late_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs, uploads, queries).
    pub attempted: u64,
    /// Of those, operations that failed: a non-zero exit, an `Error`
    /// or `RetryAfter` answer, a socket error, or a wrong answer.
    pub failed: u64,
    /// Output checks that did not pass, by description.
    pub check_failures: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// The operation kind behind each `opN_p50_ms` slot.
    pub slot_kinds: [&'static str; 3],
    /// Per-layer metrics (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload does not exercise, and why.
    pub absent: Vec<(&'static str, &'static str)>,
}

impl Report {
    /// Records a failed output check (and prints it).
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("perfbench: check failed: {what}");
            self.check_failures.push(what);
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Adds to a per-layer metric.
    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_insert(0.0) += value;
    }

    /// Fills the `opN_p50_ms` slots: per-kind medians in ms, each with
    /// the name of the figure it repeats.
    pub fn op_slots(&mut self, kinds: [(&'static str, f64); 3]) {
        for (i, (kind, ms)) in kinds.into_iter().enumerate() {
            self.e2e.insert(OP_SLOTS[i], ms);
            self.slot_kinds[i] = kind;
        }
    }

    /// Marks layers this workload does not run.
    pub fn not_here(&mut self, names: &[&'static str], why: &'static str) {
        for n in names {
            self.absent.push((n, why));
        }
    }
}

/// Prints one named figure for the human reader.
pub fn show(name: &str, value: f64, unit: &str, basis: &str) {
    if basis.is_empty() {
        println!("{name:<32} {value:>14.6} {unit}");
    } else {
        println!("{name:<32} {value:>14.6} {unit}  ({basis})");
    }
}

/// The run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `energydx` binary.
    pub bin: PathBuf,
    /// Scratch directory of this run (inside the work directory).
    pub run_dir: PathBuf,
    /// Corpus cache for the seed.
    pub corpus: corpus::Corpus,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The dashboard's op mix on `query*`.
    pub mix: Mix,
}

/// Shares of the dashboard's four op kinds on `query*`. Nothing in the
/// repository records how dashboards mix them: the default is an
/// assumed shape in which current diagnoses dominate and full reports
/// are rare, and `equal` draws each kind equally often, to show that
/// the per-kind medians do not hinge on the assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% current diagnose, 25% older, 20% regressions, 5% report.
    Dashboard,
    /// 25% each: current diagnose, older diagnose, regressions, report.
    Equal,
}

impl Mix {
    /// Cumulative shares of current diagnose, older diagnose,
    /// regressions (report takes the rest).
    pub fn cumulative(self) -> [f64; 3] {
        match self {
            Mix::Equal => [0.25, 0.50, 0.75],
            Mix::Dashboard => [0.50, 0.75, 0.95],
        }
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let need = |name: &str| get(name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .ok_or("--seconds must be positive")?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            return Err(format!("--trace must be 0 or 1, got {other}"))
        }
    };
    let mix = match get("--mix").as_deref() {
        None | Some("dashboard") => Mix::Dashboard,
        Some("equal") => Mix::Equal,
        Some(other) => {
            return Err(format!(
                "--mix must be dashboard or equal, got {other}"
            ))
        }
    };
    let bin = PathBuf::from(need("--energydx")?);
    let work =
        PathBuf::from(get("--work").unwrap_or_else(|| ".perfbench".into()));
    let run_dir = work.join("run").join(&workload);
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("{}: {e}", run_dir.display()))?;
    proc::flush_disks();
    Ok((
        workload,
        Ctx {
            bin,
            run_dir,
            corpus: corpus::Corpus::at(&work, seed),
            seed,
            seconds,
            trace,
            mix,
        },
    ))
}

fn json_line(report: &Report, trace: bool) -> String {
    let mut metrics = String::new();
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (i, (name, unit)) in list.iter().enumerate() {
        let source = if trace { &report.layers } else { &report.e2e };
        let value = source.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.check_failures.is_empty() && report.failed == 0,
        report.attempted.max(1),
        report.failed,
    )
}

/// `--generate <part> --seed <n> --work <dir>`: the corpus generator,
/// run as a child of the benchmark process.
fn generate(args: &[String]) -> ExitCode {
    let get = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(part), Some(seed), Some(work)) = (
        get("--generate"),
        get("--seed").and_then(|s| s.parse().ok()),
        get("--work"),
    ) else {
        eprintln!("perfbench: --generate needs <part> --seed <n> --work <dir>");
        return ExitCode::from(2);
    };
    match corpus::Corpus::at(std::path::Path::new(work), seed).generate(part) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: generating {part}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--generate") {
        return generate(&args);
    }
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "batch" => batch::run(&ctx),
        "ingest" => daemon::ingest(&ctx),
        "query" => daemon::query(&ctx, false),
        "query-spill" => daemon::query(&ctx, true),
        other => Err(format!("unknown workload `{other}`")),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            match report.layers.get(name) {
                Some(v) => show(name, *v, unit, ""),
                None => {
                    let why = report
                        .absent
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or("not measured", |(_, w)| *w);
                    println!("{name:<32} {:>14} {unit}  (absent: {why})", "-");
                }
            }
        }
    } else {
        for (name, unit) in END_TO_END {
            if let Some(v) = report.e2e.get(name) {
                let slot = OP_SLOTS.iter().position(|s| *s == name);
                show(name, *v, unit, slot.map_or("", |i| report.slot_kinds[i]));
            }
        }
    }
    println!(
        "ops attempted {} failed {}; output checks {}",
        report.attempted,
        report.failed,
        if report.check_failures.is_empty() {
            "all passed".to_string()
        } else {
            format!("{} FAILED", report.check_failures.len())
        }
    );
    println!("{}", json_line(&report, ctx.trace));
    ExitCode::SUCCESS
}
