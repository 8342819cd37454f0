//! The `batch` workload: one CLI job at a time, closed loop.
//!
//! Each round runs `analyze --dir --json` over the K-9 text traces,
//! `analyze --bundles --json` over the same sessions as wire
//! payloads, and `report --bundles` over the fleet spool. Every job's
//! output must be byte-identical to an in-process reference built
//! from the same files through the library's public functions, and
//! every wire payload must meet the damage recipe's expectation.
//!
//! The traced run replays one job of each kind in-process with a span
//! around each layer call; `cli.unattributed_s` is what the replayed
//! spans leave of the CLI's own wall time.

use crate::corpus::{Stream, Want};
use crate::spans::{self, Recorder};
use crate::stats::median;
use crate::{show, Ctx, Report};
use energydx::par::try_resolve_jobs;
use energydx::shard::StreamingFold;
use energydx::{AnalysisConfig, DiagnosisInput, EnergyDx};
use energydx_fleetd::convert::bundle_to_trace;
use energydx_report::{
    build_model, render_html, render_json, BatchAssembler, DeploymentPanel,
    DEFAULT_TOP_APPS,
};
use energydx_trace::event::EventTrace;
use energydx_trace::power::{PowerSample, PowerTrace};
use energydx_trace::repair::RepairPolicy;
use energydx_trace::store::{prepare_wire, PreparedUpload, RejectReason};
use energydx_trace::util::Component;
use std::collections::BTreeSet;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Users in the small job that times a cold invocation (set-up):
/// enough work that process start-up jitter does not dominate it.
const SETUP_USERS: usize = 100;
/// Cold invocations per run; their median is `setup_s`.
const SETUP_REPEATS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dir,
    Bundles,
    Report,
}

const KINDS: [Kind; 3] = [Kind::Dir, Kind::Bundles, Kind::Report];

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Dir => "analyze_dir_s",
            Kind::Bundles => "analyze_bundles_s",
            Kind::Report => "report_bundles_s",
        }
    }
}

/// The analysis configuration the CLI uses by default.
pub fn cli_config() -> AnalysisConfig {
    let mut config = AnalysisConfig::default().with_developer_fraction(0.15);
    config.top_k = 6;
    config
}

/// One CLI invocation: wall time, exit success, peak RSS, output.
struct JobRun {
    wall: f64,
    ok: bool,
    rss_kb: u64,
    output: Vec<u8>,
    stderr: String,
}

/// Runs one CLI job. Its standard output is read from a pipe, so the
/// 9 MB `--json` reports never touch the disk; the report job's
/// artifacts are read from `report_out` after it exits.
fn run_job(
    bin: &Path,
    args: &[&str],
    dir: &Path,
    report_out: Option<&Path>,
) -> Result<JobRun, String> {
    let err = dir.join("stderr");
    let stderr = std::fs::File::create(&err)
        .map_err(|e| format!("{}: {e}", err.display()))?;
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        // One malloc arena, as for the daemon: per-thread arenas of
        // the worker pool made the peak RSS of identical jobs bimodal.
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let mut output = Vec::new();
    let read = child.stdout.take().expect("piped").read_to_end(&mut output);
    let (ok, rss_kb) = crate::proc::wait_rss(&child)?;
    let wall = t0.elapsed().as_secs_f64();
    read.map_err(|e| format!("job output: {e}"))?;
    let file = |p: &Path| std::fs::read(p).unwrap_or_default();
    if let Some(d) = report_out {
        output = file(&d.join("report.json"));
        output.extend(file(&d.join("report.html")));
    }
    Ok(JobRun {
        wall,
        ok,
        rss_kb,
        output,
        stderr: String::from_utf8_lossy(&file(&err)).into_owned(),
    })
}

fn parse_power(path: &Path, csv: &str) -> Result<PowerTrace, String> {
    let mut trace = PowerTrace::new();
    for line in csv.lines().skip(1).filter(|l| !l.trim().is_empty()) {
        let bad = || format!("{}: bad row {line:?}", path.display());
        let (ts, mw) = line.split_once(',').ok_or_else(bad)?;
        let mut sample =
            PowerSample::new(ts.trim().parse().map_err(|_| bad())?);
        sample.set_component(
            Component::Cpu,
            mw.trim().parse().map_err(|_| bad())?,
        );
        trace.push(sample);
    }
    Ok(trace)
}

/// Counters of the wire pipeline over one replay.
#[derive(Debug, Default)]
pub struct WireCounts {
    pub attempted: u64,
    pub accepted: u64,
    pub salvaged: u64,
    pub repaired: u64,
    pub quarantined: u64,
    pub instances: u64,
}

impl WireCounts {
    /// Adds another replay's counts.
    pub fn add(&mut self, other: &WireCounts) {
        self.attempted += other.attempted;
        self.accepted += other.accepted;
        self.salvaged += other.salvaged;
        self.repaired += other.repaired;
        self.quarantined += other.quarantined;
        self.instances += other.instances;
    }

    /// Sets the `trace.*` counts and `core.instances` layers.
    pub fn report(&self, rep: &mut Report) {
        rep.layer("trace.salvaged", self.salvaged as f64);
        rep.layer("trace.repaired", self.repaired as f64);
        rep.layer("trace.quarantined", self.quarantined as f64);
        rep.layer(
            "trace.accept_ratio",
            self.accepted as f64 / self.attempted.max(1) as f64,
        );
        rep.layer("core.instances", self.instances as f64);
    }
}

/// Prepares one payload and dedups it, checking the outcome against
/// the recipe; returns the bundle when accepted.
fn prepare_checked(
    payload: &[u8],
    want: Want,
    seen: &mut BTreeSet<(String, u64)>,
    counts: &mut WireCounts,
    mismatches: &mut u64,
    rec: &mut Recorder,
) -> Option<(energydx_trace::store::TraceBundle, bool)> {
    counts.attempted += 1;
    let prepared = rec.span("trace.prepare_wire", 0, |_| {
        prepare_wire(payload, &RepairPolicy::default())
    });
    let (got, bundle) = match prepared {
        PreparedUpload::Ready {
            bundle,
            repairs,
            salvage,
        } => {
            counts.salvaged += salvage.is_some() as u64;
            counts.repaired += !repairs.is_empty() as u64;
            let recovered = salvage.is_some() || !repairs.is_empty();
            if !seen.insert((bundle.user.clone(), bundle.session)) {
                (Some(Want::Duplicate), None)
            } else if recovered {
                (Some(Want::Recovered), Some((bundle, true)))
            } else {
                (Some(Want::Clean), Some((bundle, false)))
            }
        }
        // The recipe produces no other rejection.
        PreparedUpload::Rejected(entry) => (
            (entry.reason == RejectReason::Undecodable)
                .then_some(Want::Undecodable),
            None,
        ),
    };
    if got != Some(want) {
        *mismatches += 1;
    }
    if bundle.is_some() {
        counts.accepted += 1;
    } else {
        counts.quarantined += 1;
    }
    bundle
}

fn read_file(
    path: &Path,
    counts: &mut u64,
    rec: &mut Recorder,
) -> Result<Vec<u8>, String> {
    let bytes = rec
        .span("cli.read", 0, |_| std::fs::read(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    *counts += bytes.len() as u64;
    Ok(bytes)
}

/// In-process `analyze --dir --json`.
fn replay_dir(
    dir: &Path,
    users: usize,
    dx: &EnergyDx,
    rec: &mut Recorder,
    bytes: &mut u64,
) -> Result<(String, u64), String> {
    let mut pairs = Vec::with_capacity(users);
    for u in 0..users {
        let ev_path = dir.join(format!("user-{u}.events"));
        let ev = read_file(&ev_path, bytes, rec)?;
        let ev = String::from_utf8(ev)
            .map_err(|_| format!("{}: not UTF-8", ev_path.display()))?;
        let events = rec
            .span("trace.from_log", 0, |_| EventTrace::from_log(&ev))
            .map_err(|e| format!("{}: {e}", ev_path.display()))?;
        let pw_path = dir.join(format!("user-{u}.power"));
        let pw = read_file(&pw_path, bytes, rec)?;
        let power = parse_power(&pw_path, &String::from_utf8_lossy(&pw))?;
        pairs.push((events, power));
    }
    let input =
        rec.span("trace.join", 0, |_| DiagnosisInput::from_traces(&pairs));
    let instances = input.instance_count() as u64;
    let partial = rec.span("core.map", 0, |_| dx.map_shard(input.traces(), 0));
    let fleet = rec
        .span("core.analyze", 0, |_| dx.analyze(partial))
        .map_err(|e| e.to_string())?;
    let report = rec.span("core.render", 0, |_| dx.render(fleet));
    let json = rec.span("core.json", 0, |_| report.to_canonical_json());
    Ok((json, instances))
}

/// In-process `analyze --bundles --json` (the streaming recipe).
fn replay_bundles(
    stream: &Stream,
    dx: &EnergyDx,
    rec: &mut Recorder,
    counts: &mut WireCounts,
    bytes: &mut u64,
    mismatches: &mut u64,
) -> Result<String, String> {
    let mut fold = StreamingFold::new();
    let mut seen = BTreeSet::new();
    let mut accepted = 0usize;
    for (path, want) in stream.files.iter().zip(&stream.wants) {
        let payload = read_file(path, bytes, rec)?;
        if let Some((bundle, _)) =
            prepare_checked(&payload, *want, &mut seen, counts, mismatches, rec)
        {
            let trace =
                rec.span("powermodel.convert", 0, |_| bundle_to_trace(&bundle));
            counts.instances += trace.len() as u64;
            let delta =
                rec.span("core.map", 0, |_| dx.map_shard(&[trace], accepted));
            rec.span("core.fold", 0, |_| fold.absorb(delta));
            accepted += 1;
        }
    }
    let fleet = rec
        .span("core.analyze", 0, |_| dx.analyze_streamed(fold))
        .map_err(|e| e.to_string())?;
    let report = rec.span("core.render", 0, |_| dx.render(fleet));
    Ok(rec.span("core.json", 0, |_| report.to_canonical_json()))
}

/// In-process `report --bundles`: report.json then report.html bytes.
fn replay_report(
    apps: &[Stream],
    dx: &EnergyDx,
    rec: &mut Recorder,
    counts: &mut WireCounts,
    bytes: &mut u64,
    mismatches: &mut u64,
) -> Result<Vec<u8>, String> {
    let mut inputs = Vec::with_capacity(apps.len());
    for app in apps {
        let mut assembler = BatchAssembler::new(
            EnergyDx::new(dx.config().clone()).with_jobs(dx.jobs()),
        );
        let mut seen = BTreeSet::new();
        for (path, want) in app.files.iter().zip(&app.wants) {
            let payload = read_file(path, bytes, rec)?;
            match prepare_checked(
                &payload, *want, &mut seen, counts, mismatches, rec,
            ) {
                Some((bundle, recovered)) => {
                    let trace = rec.span("powermodel.convert", 0, |_| {
                        bundle_to_trace(&bundle)
                    });
                    counts.instances += trace.len() as u64;
                    rec.span("core.map", 0, |_| {
                        assembler.accept(&bundle.app_version, trace, recovered)
                    });
                }
                None => assembler.reject(want.reason().unwrap_or("invalid")),
            }
        }
        let input = rec
            .span("core.analyze", 0, |_| assembler.finish(&app.app))
            .map_err(|e| e.to_string())?;
        inputs.push(input);
    }
    let model = rec.span("report.build", 0, |_| {
        build_model(
            &inputs,
            DeploymentPanel::pinned(),
            Vec::new(),
            DEFAULT_TOP_APPS,
        )
    });
    let html = rec.span("report.html", 0, |_| render_html(&model));
    let json = rec.span("report.json", 0, |_| render_json(&model));
    let mut out = json.into_bytes();
    out.extend(html.into_bytes());
    Ok(out)
}

/// Copies the first users of the K-9 text corpus into `dir`.
fn slice(text_dir: &Path, dir: &Path, users: usize) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    for u in 0..users {
        for ext in ["events", "power"] {
            let name = format!("user-{u}.{ext}");
            std::fs::copy(text_dir.join(&name), dir.join(&name))
                .map_err(|e| format!("{name}: {e}"))?;
        }
    }
    Ok(())
}

/// Runs the `batch` workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let k9 = ctx.corpus.k9()?;
    let fleet = ctx.corpus.fleet()?;
    println!(
        "batch: seed {} corpus digest k9 {:016x} fleet {:016x}",
        ctx.seed, k9.digest, fleet.digest
    );
    let mut rep = Report::default();
    let bin = ctx.bin.as_path();
    let work = ctx.run_dir.as_path();
    let text = k9.text_dir.to_string_lossy().into_owned();
    let wire = k9.wire_dir.to_string_lossy().into_owned();
    let spool = fleet.dir.to_string_lossy().into_owned();
    let report_dir = work.join("report");
    let report_out = report_dir.to_string_lossy().into_owned();
    let args = |kind: Kind| -> Vec<&str> {
        match kind {
            Kind::Dir => vec!["analyze", "--dir", &text, "--json"],
            Kind::Bundles => vec!["analyze", "--bundles", &wire, "--json"],
            Kind::Report => {
                vec!["report", "--bundles", &spool, "--out", &report_out]
            }
        }
    };

    // Set-up: the cost of a cold invocation before any fleet-sized
    // work — process start, loading, and a small diagnosis.
    let small = work.join("setup-slice");
    slice(&k9.text_dir, &small, SETUP_USERS)?;
    let small_arg = small.to_string_lossy().into_owned();
    let mut setup = Vec::new();
    let mut peak_kb = 0u64;
    for _ in 0..SETUP_REPEATS {
        let job = run_job(
            bin,
            &["analyze", "--dir", &small_arg, "--json"],
            work,
            None,
        )?;
        rep.check(job.ok, format!("set-up job failed: {}", job.stderr.trim()));
        setup.push(job.wall);
        peak_kb = peak_kb.max(job.rss_kb);
    }

    // The measured closed loop.
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut outputs: [Option<Vec<u8>>; 3] = Default::default();
    let mut stderrs: [String; 3] = Default::default();
    let start = Instant::now();
    'rounds: loop {
        for (k, kind) in KINDS.iter().enumerate() {
            let done = walls.iter().all(|w| !w.is_empty());
            if done && start.elapsed().as_secs_f64() >= ctx.seconds {
                break 'rounds;
            }
            let job = run_job(
                bin,
                &args(*kind),
                work,
                (*kind == Kind::Report).then_some(report_dir.as_path()),
            )?;
            rep.attempted += 1;
            if !job.ok {
                rep.failed += 1;
                eprintln!(
                    "perfbench: {:?} job failed: {}",
                    kind,
                    job.stderr.trim()
                );
                continue;
            }
            match &outputs[k] {
                None => outputs[k] = Some(job.output),
                Some(first) if *first != job.output => {
                    rep.failed += 1;
                    rep.check(
                        false,
                        format!("{kind:?} output changed between rounds"),
                    );
                }
                Some(_) => {}
            }
            stderrs[k] = job.stderr;
            walls[k].push(job.wall);
            peak_kb = peak_kb.max(job.rss_kb);
        }
    }

    // References, built in-process from the same files.
    let jobs = try_resolve_jobs(0).map_err(|e| e.to_string())?;
    let dx = EnergyDx::new(cli_config()).with_jobs(jobs);
    let mut mismatches = 0u64;
    let dir_ref = {
        let mut pairs = Vec::new();
        for u in 0..crate::corpus::K9_USERS {
            let ev = std::fs::read_to_string(
                k9.text_dir.join(format!("user-{u}.events")),
            )
            .map_err(|e| e.to_string())?;
            let pw_path = k9.text_dir.join(format!("user-{u}.power"));
            let pw =
                std::fs::read_to_string(&pw_path).map_err(|e| e.to_string())?;
            pairs.push((
                EventTrace::from_log(&ev).map_err(|e| e.to_string())?,
                parse_power(&pw_path, &pw)?,
            ));
        }
        dx.diagnose_reference(&DiagnosisInput::from_traces(&pairs))
            .to_canonical_json()
    };
    let (bundles_ref, missed) = k9_reference(&k9.stream, usize::MAX, &dx)?;
    mismatches += missed;
    let report_ref = replay_report(
        &fleet.apps,
        &dx,
        &mut Recorder::new(false),
        &mut WireCounts::default(),
        &mut 0,
        &mut mismatches,
    )?;
    rep.check(
        mismatches == 0,
        format!("{mismatches} payload(s) did not meet the damage recipe"),
    );
    let refs = [dir_ref.into_bytes(), bundles_ref.into_bytes(), report_ref];
    for (k, kind) in KINDS.iter().enumerate() {
        if let Some(out) = &outputs[k] {
            rep.check(
                *out == refs[k],
                format!(
                    "{kind:?} output differs from the in-process reference"
                ),
            );
        }
    }
    // The CLI names every quarantined payload on stderr.
    let [_, _, undecodable, duplicate] = crate::corpus::tally(&k9.stream.wants);
    for (reason, want) in
        [("undecodable", undecodable), ("duplicate", duplicate)]
    {
        let got = stderrs[1]
            .matches(&format!("quarantined: {reason}"))
            .count();
        rep.check(
            got == want,
            format!(
                "analyze --bundles quarantined {got} {reason}, want {want}"
            ),
        );
    }

    let mut p50 = [0.0; 3];
    for (k, kind) in KINDS.iter().enumerate() {
        if let Some(m) = median(&walls[k]) {
            show(
                kind.metric(),
                m,
                "s",
                &format!("median of {} jobs", walls[k].len()),
            );
            p50[k] = m * 1e3;
        }
    }
    let setup_s = median(&setup).unwrap_or(0.0);
    show(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUP_REPEATS} cold {SETUP_USERS}-user jobs"),
    );
    show(
        "peak_rss_mb",
        peak_kb as f64 / 1024.0,
        "MB",
        "max child RSS",
    );
    rep.e2e.insert("setup_s", setup_s);
    rep.e2e.insert("peak_rss_mb", peak_kb as f64 / 1024.0);
    rep.op_slots(std::array::from_fn(|k| (KINDS[k].metric(), p50[k])));

    if ctx.trace {
        traced(ctx, &k9, &fleet.apps, &dx, &walls, &mut rep)?;
    }
    Ok(rep)
}

/// The traced run: replays one job of each kind with spans, untraced
/// first so the recorder's own cost can be stated.
fn traced(
    ctx: &Ctx,
    k9: &crate::corpus::K9,
    apps: &[Stream],
    dx: &EnergyDx,
    walls: &[Vec<f64>; 3],
    rep: &mut Report,
) -> Result<(), String> {
    let replay_all =
        |rec: &mut Recorder| -> Result<(WireCounts, u64, f64), String> {
            let mut counts = WireCounts::default();
            let mut bytes = 0u64;
            let mut mismatches = 0u64;
            let t = Instant::now();
            let (_, instances) = rec.span("job.analyze_dir", 1, |rec| {
                replay_dir(
                    &k9.text_dir,
                    crate::corpus::K9_USERS,
                    dx,
                    rec,
                    &mut bytes,
                )
            })?;
            counts.instances += instances;
            rec.span("job.analyze_bundles", 2, |rec| {
                replay_bundles(
                    &k9.stream,
                    dx,
                    rec,
                    &mut counts,
                    &mut bytes,
                    &mut mismatches,
                )
            })?;
            rec.span("job.report_bundles", 3, |rec| {
                replay_report(
                    apps,
                    dx,
                    rec,
                    &mut counts,
                    &mut bytes,
                    &mut mismatches,
                )
            })?;
            Ok((counts, bytes, t.elapsed().as_secs_f64()))
        };
    let (_, _, off) = replay_all(&mut Recorder::new(false))?;
    let mut rec = Recorder::new(true);
    let (counts, bytes, on) = replay_all(&mut rec)?;
    let spans = rec.spans().to_vec();
    rec.write_tsv(&ctx.run_dir.join("spans.tsv"))
        .map_err(|e| e.to_string())?;
    let self_t = spans::self_times(&spans);
    let get = |n: &str| self_t.get(n).copied().unwrap_or(0.0);

    // Per job: CLI wall = replayed layer self times + unattributed.
    let mut unattributed = 0.0;
    for (k, root) in [
        "job.analyze_dir",
        "job.analyze_bundles",
        "job.report_bundles",
    ]
    .iter()
    .enumerate()
    {
        let root_id = spans.iter().find(|s| s.name == *root).map(|s| s.id);
        let layers: f64 = spans
            .iter()
            .filter(|s| s.parent == root_id && root_id.is_some())
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .sum();
        let wall = median(&walls[k]).unwrap_or(0.0);
        unattributed += wall - layers;
        println!(
            "{:<32} wall {wall:.4} s = layers {layers:.4} s + unattributed {:.4} s",
            KINDS[k].metric(),
            wall - layers
        );
    }
    rep.layer("cli.read_s", get("cli.read"));
    rep.layer("cli.read_bytes", bytes as f64);
    rep.layer("cli.unattributed_s", unattributed);
    for (layer, span) in [
        ("trace.from_log_s", "trace.from_log"),
        ("trace.join_s", "trace.join"),
        ("trace.prepare_wire_s", "trace.prepare_wire"),
        ("powermodel.convert_s", "powermodel.convert"),
        ("core.map_s", "core.map"),
        ("core.fold_s", "core.fold"),
        ("core.analyze_s", "core.analyze"),
        ("core.render_s", "core.render"),
        ("core.json_s", "core.json"),
        ("report.build_s", "report.build"),
        ("report.html_s", "report.html"),
        ("report.json_s", "report.json"),
    ] {
        rep.layer(layer, get(span));
    }
    counts.report(rep);
    rep.layer("bench.trace_overhead_frac", (on - off) / off);
    rep.not_here(
        &[
            "fleetd.protocol_s",
            "fleetd.protocol_bytes",
            "fleetd.server.connect_s",
            "fleetd.server.open_fds",
            "fleetd.server.threads",
            "fleetd.queue_wait_s",
            "fleetd.queue.max_depth",
            "fleetd.queue.shed",
            "fleetd.state.submit_s",
            "fleetd.state.compactions",
            "fleetd.state.compact_s",
            "fleetd.state.diagnose_hit_s",
            "fleetd.state.diagnose_miss_s",
            "fleetd.state.wait_s",
            "fleetd.state.resident_bytes",
            "fleetd.cache.state_hit_ratio",
            "fleetd.cache.segment_hit_ratio",
            "fleetd.cache.bytes",
            "fleetd.cache.evictions",
            "fleetd.checkpoint_s",
            "fleetd.checkpoint_bytes",
            "fleetd.spill.spills",
            "fleetd.spill.foldbacks",
            "segment.load_s",
            "segment.save_s",
            "segment.spilled_bytes",
            "segment.files",
            "fleetd.report_s",
        ],
        "no daemon on the batch path",
    );
    rep.not_here(
        &["regress.regressions_s"],
        "runs inside report.build on the batch path",
    );
    rep.not_here(
        &["loadgen.late_ms"],
        "closed loop: no schedule to be late for",
    );
    Ok(())
}

/// `diagnose_reference` over the accepted payloads among the first
/// `upto` of a stream, and how many payloads missed the recipe.
pub fn k9_reference(
    stream: &Stream,
    upto: usize,
    dx: &EnergyDx,
) -> Result<(String, u64), String> {
    let mut seen = BTreeSet::new();
    let mut traces = Vec::new();
    let mut counts = WireCounts::default();
    let mut mismatches = 0u64;
    for (path, want) in stream.files.iter().zip(&stream.wants).take(upto) {
        let payload: Vec<u8> =
            std::fs::read(path).map_err(|e| e.to_string())?;
        if let Some((bundle, _)) = prepare_checked(
            &payload,
            *want,
            &mut seen,
            &mut counts,
            &mut mismatches,
            &mut Recorder::new(false),
        ) {
            traces.push(bundle_to_trace(&bundle));
        }
    }
    Ok((
        dx.diagnose_reference(&DiagnosisInput::new(traces))
            .to_canonical_json(),
        mismatches,
    ))
}
