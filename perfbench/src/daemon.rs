//! The daemon workloads: `ingest`, `query` and `query-spill`.
//!
//! Each starts a real `energydx serve` process, drives it over TCP
//! with at most two generator threads, checks its answers, reads its
//! resources from `/proc` and scrapes its `metrics` exposition at the
//! end. The traced run adds client-side spans and replays the same
//! request sequence in-process through `FleetState`'s public API.

use crate::batch::{cli_config, k9_reference, WireCounts};
use crate::corpus::{mix, Stream, Want};
use crate::proc::{call, client, resources, Daemon, Link, Resources};
use crate::scrape::Scrape;
use crate::spans::{self, Recorder};
use crate::stats::{due_latency, lateness, median, percentile, Schedule};
use crate::{show, Ctx, Mix, Report};
use energydx::par::try_resolve_jobs;
use energydx::EnergyDx;
use energydx_fleetd::client::Client;
use energydx_fleetd::protocol::{OutcomeCode, Request, Response};
use energydx_fleetd::state::{FleetConfig, FleetState};
use energydx_fleetd::SpillConfig;
use energydx_trace::store::{prepare_wire, PreparedUpload};
use energydx_trace::wire;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered upload rate of `ingest`, per second: below the daemon's
/// capacity on two cores, so queueing shows only under stalls.
const INGEST_RATE: f64 = 200.0;
/// `--checkpoint-every` of the `ingest` daemon (accepted uploads).
const CHECKPOINT_EVERY: usize = 250;
/// Daemon starts per `ingest` run; their median is `setup_s`.
const INGEST_SETUPS: usize = 5;
/// Full set-ups (start + preload) per `query*` run; their median is
/// `setup_s`.
const QUERY_SETUPS: usize = 3;
/// Epochs preloaded per app (all but the last frozen by rollover).
const EPOCHS: u64 = 3;
/// Open-loop upload rate beside the dashboard on `query`, per second.
/// `query-spill` sends none: under the budget every upload triggers a
/// spill whose file and directory fsyncs run under the state lock, so
/// the dashboard's latency followed the shared disk (the geometric
/// mean of its per-kind medians read 48-137 ms within one ten-run
/// set). The spill write path is still
/// measured by the set-up's preload and `segment.save_s`.
const TRICKLE_RATE: f64 = 10.0;
/// `--mem-budget` of `query-spill` as a share of the resident state.
const SPILL_SHARE: f64 = 0.6;
/// Apps whose answers are checked byte for byte after a `query*` run.
const CHECKED_APPS: usize = 6;

/// The fleet configuration `energydx serve` runs with by default.
fn serve_config(spill: Option<SpillConfig>) -> Result<FleetConfig, String> {
    Ok(FleetConfig {
        analysis: cli_config(),
        jobs: try_resolve_jobs(0).map_err(|e| e.to_string())?,
        compact_every: 16,
        spill,
        query_cache: true,
        ..FleetConfig::default()
    })
}

fn load(stream: &Stream) -> Result<Vec<Vec<u8>>, String> {
    stream
        .files
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// What a submit answer says, in the recipe's terms.
fn outcome_of(response: &Response) -> Option<Want> {
    match response {
        Response::Outcome {
            code: OutcomeCode::Clean,
            ..
        } => Some(Want::Clean),
        Response::Outcome {
            code: OutcomeCode::Recovered,
            ..
        } => Some(Want::Recovered),
        Response::Outcome {
            code: OutcomeCode::Rejected,
            reason,
        } => match reason.as_str() {
            "undecodable" => Some(Want::Undecodable),
            "duplicate" => Some(Want::Duplicate),
            _ => None,
        },
        _ => None,
    }
}

/// Starts a daemon and waits until it answers; returns it with the
/// time from spawn to its first answer.
fn start(
    ctx: &Ctx,
    args: &[String],
    tag: &str,
) -> Result<(Daemon, Instant), String> {
    let t0 = Instant::now();
    let daemon =
        Daemon::start(&ctx.bin, args, &ctx.run_dir.join(format!("{tag}.log")))?;
    match call(&mut client(&daemon.addr)?, &Request::Health)? {
        Response::Health { .. } => Ok((daemon, t0)),
        other => Err(format!("health: unexpected answer {other:?}")),
    }
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// One submit: a fresh connection per upload when `fresh`.
fn submit(
    conn: &mut Option<Link>,
    addr: &str,
    app: &str,
    payload: &[u8],
    rec: &mut Recorder,
    id: u64,
    protocol_bytes: &mut u64,
) -> Result<Response, String> {
    if conn.is_none() {
        let traced = rec.enabled();
        *conn = Some(rec.span("fleetd.server.connect", id, |_| {
            Link::connect(addr, traced)
        })?);
    }
    let c = conn.as_mut().expect("connected");
    let req = Request::Submit {
        app: app.to_string(),
        payload: payload.to_vec(),
    };
    let (response, bytes) = c.call(rec, id, &req)?;
    *protocol_bytes += bytes;
    Ok(response)
}

/// Counts one submit answer against the recipe.
fn tally_submit(
    result: &Result<Response, String>,
    want: Want,
    rep: &mut Report,
) {
    rep.attempted += 1;
    match result {
        Ok(r) if outcome_of(r) == Some(want) => {}
        Ok(r) => {
            rep.failed += 1;
            eprintln!("perfbench: upload answered {r:?}, want {want:?}");
        }
        Err(e) => {
            rep.failed += 1;
            eprintln!("perfbench: upload failed: {e}");
        }
    }
}

fn daemon_figures(rep: &mut Report, res: &Resources, scrape: &Scrape) {
    rep.layer("fleetd.server.open_fds", res.fds as f64);
    rep.layer("fleetd.server.threads", res.threads as f64);
    rep.layer(
        "fleetd.queue.max_depth",
        scrape.get("fleetd_queue_max_depth"),
    );
    rep.layer("fleetd.queue.shed", scrape.get("fleetd_uploads_shed_total"));
    rep.layer("powermodel.convert_s", scrape.stage("convert"));
    rep.layer("core.map_s", scrape.stage("map"));
    rep.layer("core.fold_s", scrape.stage("merge"));
    rep.layer("core.analyze_s", scrape.stage("analyze"));
    rep.layer("core.render_s", scrape.stage("render"));
    rep.layer(
        "fleetd.state.submit_s",
        scrape.stage("ingest") - scrape.stage("convert") - scrape.stage("map"),
    );
    rep.layer(
        "fleetd.state.compactions",
        scrape.get("fleetd_compactions_total"),
    );
    rep.layer("fleetd.cache.state_hit_ratio", scrape.hit_ratio("state"));
    rep.layer(
        "fleetd.cache.segment_hit_ratio",
        scrape.hit_ratio("segment"),
    );
    rep.layer(
        "fleetd.cache.bytes",
        scrape.family("fleetd_query_cache_bytes"),
    );
    rep.layer(
        "fleetd.cache.evictions",
        scrape.family("fleetd_query_cache_evictions_total"),
    );
    rep.layer("fleetd.spill.spills", scrape.get("fleetd_spills_total"));
    rep.layer(
        "fleetd.spill.foldbacks",
        scrape.get("fleetd_foldbacks_total"),
    );
    rep.layer("segment.spilled_bytes", scrape.get("fleetd_spilled_bytes"));
    rep.layer("regress.regressions_s", scrape.stage("regress"));
    rep.layer(
        "fleetd.report_s",
        scrape.get("fleetd_report_render_duration_seconds_sum"),
    );
    rep.layer(
        "fleetd.checkpoint_bytes",
        scrape.get("fleetd_checkpoint_size_bytes"),
    );
}

/// `fleetd.queue_wait_s`: the daemon's submit request time minus its
/// `ingest` stage, minus what else runs inside the same requests and
/// has a layer of its own — wire preparation before `ingest`, and
/// after it the spill's segment writes and the worker's periodic
/// checkpoint, all three as timed by the in-process replay. What
/// remains is the wait in the ingest queue plus the request's decode
/// and the answer's encode. Call it after the replay; it reads
/// negative when the replay ran slower than the daemon did.
fn queue_wait(rep: &mut Report, scrape: &Scrape) {
    let attributed: f64 = [
        "trace.prepare_wire_s",
        "segment.save_s",
        "fleetd.checkpoint_s",
    ]
    .iter()
    .map(|name| rep.layers.get(name).copied().unwrap_or(0.0))
    .sum();
    rep.layer(
        "fleetd.queue_wait_s",
        scrape.request("submit") - scrape.stage("ingest") - attributed,
    );
}

fn span_layers(
    rep: &mut Report,
    spans: &[spans::Span],
    pairs: &[(&'static str, &'static str)],
) {
    let totals = spans::self_times(spans);
    for (layer, span) in pairs {
        rep.layer(layer, totals.get(span).copied().unwrap_or(0.0));
    }
}

/// Feeds uploads to an in-process state the way the daemon's ingest
/// worker does, with spans around each public call. With
/// `compact_every > 0` (and auto-compaction off in `state`) the replay
/// compacts explicitly at that threshold, so compaction gets a span
/// of its own; that is equivalent only while one app is ingesting.
/// Returns the counts and the replay's wall time.
fn replay_uploads<'a>(
    state: &mut FleetState,
    uploads: impl Iterator<Item = (&'a str, &'a [u8])>,
    compact_every: usize,
    checkpoint: Option<(&Path, usize)>,
    rec: &mut Recorder,
) -> Result<(WireCounts, f64), String> {
    let mut out = WireCounts::default();
    let mut since_checkpoint = 0usize;
    let t0 = Instant::now();
    for (i, (app, payload)) in uploads.enumerate() {
        out.attempted += 1;
        let id = i as u64 + 1;
        let prepared = rec.span("trace.prepare_wire", id, |_| {
            prepare_wire(payload, &state.config().repair)
        });
        if let PreparedUpload::Ready {
            bundle,
            repairs,
            salvage,
        } = &prepared
        {
            out.salvaged += salvage.is_some() as u64;
            out.repaired += !repairs.is_empty() as u64;
            out.instances += bundle.events.pair_instances().len() as u64;
        }
        let outcome = rec.span("fleetd.state.submit", id, |_| {
            state.submit_prepared(app, prepared)
        });
        if !outcome.accepted() {
            out.quarantined += 1;
            continue;
        }
        out.accepted += 1;
        let deltas = state
            .apps()
            .get(app)
            .and_then(|a| a.epochs().get(&a.current_epoch()))
            .map_or(0, |e| e.delta_count());
        if compact_every > 0 && deltas >= compact_every {
            rec.span("fleetd.state.compact", id, |_| state.compact());
        }
        if let Some((dir, every)) = checkpoint {
            since_checkpoint += 1;
            if since_checkpoint >= every {
                since_checkpoint = 0;
                rec.span("fleetd.checkpoint", id, |_| {
                    energydx_fleetd::checkpoint::save_to(state, dir)
                })
                .map_err(|e| format!("checkpoint: {e}"))?;
            }
        }
    }
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Runs the `ingest` workload.
pub fn ingest(ctx: &Ctx) -> Result<Report, String> {
    let k9 = ctx.corpus.k9()?;
    println!(
        "ingest: seed {} corpus digest k9 {:016x}",
        ctx.seed, k9.digest
    );
    let payloads = load(&k9.stream)?;
    let t_start = Instant::now();
    let mut rep = Report::default();
    let mut rec = Recorder::new(ctx.trace);
    let mut protocol_bytes = 0u64;

    // Set-up: a fresh daemon with a state directory, started
    // INGEST_SETUPS times; the last one serves the run.
    let mut setups = Vec::new();
    let mut kept = None;
    for r in 0..INGEST_SETUPS {
        let state_dir = ctx.run_dir.join(format!("state-{r}"));
        let args = vec![
            "--listen".to_string(),
            "127.0.0.1:0".to_string(),
            "--state".to_string(),
            path_arg(&state_dir),
            "--checkpoint-every".to_string(),
            CHECKPOINT_EVERY.to_string(),
        ];
        let (daemon, t0) = start(ctx, &args, &format!("daemon-{r}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        if r + 1 < INGEST_SETUPS {
            daemon.shutdown(Duration::from_secs(10))?;
        } else {
            kept = Some(daemon);
        }
    }
    let daemon = kept.expect("at least one set-up");

    // Open loop, one generator thread, one fresh connection per
    // upload, each timed from its due time.
    let schedule =
        Schedule::new(Instant::now() + Duration::from_millis(20), INGEST_RATE);
    let n = schedule
        .count_within(Duration::from_secs_f64(ctx.seconds))
        .clamp(1, payloads.len());
    let mut latency = Vec::with_capacity(n);
    let mut late = Vec::with_capacity(n);
    for (i, payload) in payloads.iter().enumerate().take(n) {
        let due = schedule.due(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let mut conn = None;
        let result = submit(
            &mut conn,
            &daemon.addr,
            &k9.stream.app,
            payload,
            &mut rec,
            i as u64 + 1,
            &mut protocol_bytes,
        );
        let done = Instant::now();
        drop(conn);
        tally_submit(&result, k9.stream.wants[i], &mut rep);
        latency.push(due_latency(due, done).as_secs_f64() * 1e3);
        late.push(lateness(due, sent).as_secs_f64() * 1e3);
    }

    // End of run: resources, metrics, and the diagnosis check.
    let res = resources(daemon.pid)?;
    let scrape = Scrape::fetch(&daemon.addr)?;
    let answer = call(
        &mut client(&daemon.addr)?,
        &Request::Diagnose {
            app: k9.stream.app.clone(),
            epoch: None,
        },
    )?;
    let dx = EnergyDx::new(cli_config());
    let (reference, mismatches) = k9_reference(&k9.stream, n, &dx)?;
    rep.check(
        mismatches == 0,
        format!("{mismatches} payload(s) did not meet the damage recipe"),
    );
    match answer {
        Response::Report { json } => rep.check(
            json == reference,
            "daemon diagnosis differs from diagnose_reference over the accepted uploads",
        ),
        other => rep.check(false, format!("diagnose: unexpected answer {other:?}")),
    }
    daemon.shutdown(Duration::from_secs(30))?;

    let p50 = median(&latency).unwrap_or(0.0);
    let late99 = percentile(&late, 0.99).expect("at least one upload");
    show(
        "upload_p50_ms",
        p50,
        "ms",
        &format!("{n} uploads at {INGEST_RATE}/s"),
    );
    show_p99("upload_p99_ms", &latency);
    show(
        "loadgen.late_p99_ms",
        late99.value,
        "ms",
        &format!(
            "p50 {:.3} ms, max {:.3} ms",
            median(&late).unwrap_or(0.0),
            late.iter().cloned().fold(0.0, f64::max)
        ),
    );
    show(
        "fleetd.server.open_fds",
        res.fds as f64,
        "count",
        "at run end",
    );
    show(
        "fleetd.server.threads",
        res.threads as f64,
        "count",
        "at run end",
    );
    let setup_s = median(&setups).unwrap_or(0.0);
    show(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {INGEST_SETUPS} daemon starts"),
    );
    rep.e2e.insert("setup_s", setup_s);
    rep.e2e.insert("peak_rss_mb", res.hwm_kb as f64 / 1024.0);
    rep.op_slots([("upload_p50_ms", p50); 3]);

    if ctx.trace {
        daemon_figures(&mut rep, &res, &scrape);
        span_layers(
            &mut rep,
            rec.spans(),
            &[
                ("fleetd.protocol_s", "fleetd.protocol"),
                ("fleetd.server.connect_s", "fleetd.server.connect"),
            ],
        );
        rep.layer("fleetd.protocol_bytes", protocol_bytes as f64);
        rep.layer("loadgen.late_ms", late99.value);
        // In-process replay of the same uploads, untraced then traced.
        let uploads = || {
            payloads[..n]
                .iter()
                .map(|p| (k9.stream.app.as_str(), p.as_slice()))
        };
        let config = FleetConfig {
            compact_every: 0,
            ..serve_config(None)?
        };
        let ckpt = ctx.run_dir.join("replay-state");
        let off = replay_uploads(
            &mut FleetState::new(config.clone()),
            uploads(),
            16,
            Some((&ckpt, CHECKPOINT_EVERY)),
            &mut Recorder::new(false),
        )?;
        let mut rrec = Recorder::new(true);
        let mut state = FleetState::new(config);
        let on = replay_uploads(
            &mut state,
            uploads(),
            16,
            Some((&ckpt, CHECKPOINT_EVERY)),
            &mut rrec,
        )?;
        rep.layer("bench.trace_overhead_frac", (on.1 - off.1) / off.1);
        on.0.report(&mut rep);
        rep.layer("fleetd.state.resident_bytes", state.resident_bytes() as f64);
        span_layers(
            &mut rep,
            rrec.spans(),
            &[
                ("trace.prepare_wire_s", "trace.prepare_wire"),
                ("fleetd.state.compact_s", "fleetd.state.compact"),
                ("fleetd.checkpoint_s", "fleetd.checkpoint"),
            ],
        );
        queue_wait(&mut rep, &scrape);
        rec.write_tsv(&ctx.run_dir.join("spans.tsv"))
            .map_err(|e| e.to_string())?;
        rrec.write_tsv(&ctx.run_dir.join("replay-spans.tsv"))
            .map_err(|e| e.to_string())?;
        rep.not_here(
            &[
                "cli.read_s",
                "cli.read_bytes",
                "cli.unattributed_s",
                "trace.from_log_s",
                "trace.join_s",
            ],
            "no CLI job or text traces on the ingest path",
        );
        rep.not_here(
            &["core.json_s"],
            "rendered inside the daemon's diagnose_json",
        );
        rep.not_here(
            &[
                "fleetd.state.diagnose_hit_s",
                "fleetd.state.diagnose_miss_s",
                "fleetd.state.wait_s",
            ],
            "ingest is write-only",
        );
        rep.not_here(
            &["segment.load_s", "segment.save_s", "segment.files"],
            "no spill directory on ingest",
        );
        rep.not_here(
            &["report.build_s", "report.html_s", "report.json_s"],
            "ingest renders no report",
        );
        rep.not_here(
            &[
                "core.analyze_s",
                "core.render_s",
                "fleetd.spill.spills",
                "fleetd.spill.foldbacks",
                "segment.spilled_bytes",
                "regress.regressions_s",
                "fleetd.report_s",
            ],
            "only the final check queries",
        );
    }
    println!(
        "ingest: run took {:.1} s including set-up and checks",
        t_start.elapsed().as_secs_f64()
    );
    Ok(rep)
}

/// Prints p99 with the number of samples beyond it: a tail resting on
/// fewer than ten samples is shown but marked.
fn show_p99(name: &str, samples: &[f64]) {
    if let Some(p) = percentile(samples, 0.99) {
        let note = if p.beyond < crate::stats::TAIL_MIN_BEYOND {
            ", fewer than ten: indicative"
        } else {
            ""
        };
        show(
            name,
            p.value,
            "ms",
            &format!("{} of {} samples beyond{note}", p.beyond, p.samples),
        );
    }
}

/// A deterministic generator for the op mix (SplitMix64).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index drawn with probability proportional to `weights`.
    fn pick(&mut self, cumulative: &[f64]) -> usize {
        let total = *cumulative.last().expect("non-empty weights");
        let x = self.unit() * total;
        cumulative
            .partition_point(|&c| c <= x)
            .min(cumulative.len() - 1)
    }
}

/// Zipf weights by Table III downloads: the most downloaded app gets
/// weight 1, the next 1/2, and so on (unknown downloads rank last).
fn zipf_cumulative(apps: &[Stream]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..apps.len()).collect();
    order.sort_by(|&a, &b| {
        apps[b]
            .downloads
            .cmp(&apps[a].downloads)
            .then(apps[a].app.cmp(&apps[b].app))
    });
    let mut weight = vec![0.0; apps.len()];
    for (rank, &i) in order.iter().enumerate() {
        weight[i] = 1.0 / (rank + 1) as f64;
    }
    weight
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Diagnose,
    DiagnoseOld,
    Regressions,
    Report,
}

impl Op {
    /// One op of the seeded mix.
    fn draw(rng: &mut Rng, mix: Mix) -> Op {
        let [diagnose, old, regressions] = mix.cumulative();
        match rng.unit() {
            x if x < diagnose => Op::Diagnose,
            x if x < old => Op::DiagnoseOld,
            x if x < regressions => Op::Regressions,
            _ => Op::Report,
        }
    }
}

/// One dashboard operation as sent.
#[derive(Debug, Clone)]
struct Sent {
    op: Op,
    app: usize,
    epoch: Option<u64>,
    ms: f64,
    /// Trickle uploads acknowledged before this op was sent.
    trickled: usize,
    answer: Option<String>,
}

fn request_for(op: Op, app: &str, epoch: Option<u64>) -> Request {
    match op {
        Op::Diagnose | Op::DiagnoseOld => Request::Diagnose {
            app: app.to_string(),
            epoch,
        },
        Op::Regressions => Request::Regressions {
            app: app.to_string(),
            epoch: None,
            from: crate::corpus::RELEASES[0].to_string(),
            to: crate::corpus::RELEASES[1].to_string(),
            threshold: None,
        },
        Op::Report => Request::Report { top: None },
    }
}

/// Checks one dashboard answer's shape; returns the diagnosis or
/// regression JSON when there is one.
fn answer_json(op: Op, response: Response) -> Result<Option<String>, String> {
    match (op, response) {
        (
            Op::Report,
            Response::ReportArtifacts {
                missing,
                html,
                json,
            },
        ) => {
            if !missing.is_empty() {
                return Err(format!("report names missing shards {missing:?}"));
            }
            energydx_report::check_well_formed(&html)
                .map_err(|e| format!("report.html: {e}"))?;
            if json.is_empty() {
                return Err("empty report.json".to_string());
            }
            Ok(None)
        }
        (Op::Report, other) => {
            Err(format!("report: unexpected answer {other:?}"))
        }
        (_, Response::Report { json }) => Ok(Some(json)),
        (_, other) => Err(format!("unexpected answer {other:?}")),
    }
}

/// What the trickle thread measured: latencies and lateness (ms), the
/// answers in send order, and its spans.
type Trickled = (
    Vec<f64>,
    Vec<f64>,
    Vec<Result<Response, String>>,
    Recorder,
    u64,
);

/// The trickle beside the dashboard: new sessions of Zipf-chosen
/// apps, re-encoded from clean payloads with a fresh session number.
fn trickle_payloads(
    apps: &[Stream],
    payloads: &[Vec<Vec<u8>>],
    cumulative: &[f64],
    rng: &mut Rng,
    count: usize,
) -> Result<Vec<(usize, Vec<u8>)>, String> {
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let a = rng.pick(cumulative);
        let clean: Vec<usize> = (0..apps[a].wants.len())
            .filter(|&i| apps[a].wants[i] == Want::Clean)
            .collect();
        let source = &payloads[a][clean[k % clean.len()]];
        let mut bundle =
            wire::decode(source).map_err(|e| format!("trickle source: {e}"))?;
        bundle.session = 1 + k as u64;
        let encoded = wire::try_encode_v3(&bundle)
            .map_err(|e| format!("trickle encode: {e}"))?;
        out.push((a, encoded.to_vec()));
    }
    Ok(out)
}

/// The preload sequence: every app's stream once per epoch, apps in
/// name order, a rollover of every app between epochs.
fn preload(
    conn: &mut Client,
    apps: &[Stream],
    payloads: &[Vec<Vec<u8>>],
    spill: bool,
    rep: &mut Report,
) -> Result<(), String> {
    for epoch in 0..EPOCHS {
        for (a, app) in apps.iter().enumerate() {
            for (p, want) in payloads[a].iter().zip(&app.wants) {
                let result = call(
                    conn,
                    &Request::Submit {
                        app: app.app.clone(),
                        payload: p.clone(),
                    },
                );
                tally_submit(&result, *want, rep);
            }
        }
        if epoch + 1 < EPOCHS {
            for app in apps {
                match call(
                    conn,
                    &Request::Rollover {
                        app: app.app.clone(),
                    },
                )? {
                    Response::Epoch { epoch: e } if e == epoch + 1 => {}
                    other => {
                        return Err(format!(
                            "rollover: unexpected answer {other:?}"
                        ))
                    }
                }
            }
        }
    }
    for (op, app, epoch) in warm_up(apps, spill) {
        let req = request_for(op, &apps[app].app, epoch);
        call(conn, &req).and_then(|r| answer_json(op, r))?;
    }
    Ok(())
}

/// The set-up's cache warm-up, as dashboard ops: every epoch of every
/// app, every release comparison and one full report, as a dashboard
/// that has been running would have asked. Under a spill budget the
/// caches cannot hold the working set, so there is nothing to warm.
fn warm_up(apps: &[Stream], spill: bool) -> Vec<(Op, usize, Option<u64>)> {
    let mut ops = Vec::new();
    if spill {
        return ops;
    }
    for a in 0..apps.len() {
        for epoch in 0..EPOCHS {
            ops.push((Op::DiagnoseOld, a, Some(epoch)));
        }
        ops.push((Op::Regressions, a, None));
    }
    ops.push((Op::Report, 0, None));
    ops
}

/// The same preload into an in-process state.
fn preload_state(
    state: &mut FleetState,
    apps: &[Stream],
    payloads: &[Vec<Vec<u8>>],
    only: Option<&[usize]>,
) {
    for epoch in 0..EPOCHS {
        for (a, app) in apps.iter().enumerate() {
            if only.is_some_and(|o| !o.contains(&a)) {
                continue;
            }
            for p in &payloads[a] {
                state.submit(&app.app, p);
            }
            if epoch + 1 < EPOCHS {
                state.rollover(&app.app);
            }
        }
    }
}

/// Runs `query` (`spill == false`) or `query-spill`.
pub fn query(ctx: &Ctx, spill: bool) -> Result<Report, String> {
    let name = if spill { "query-spill" } else { "query" };
    let fleet = ctx.corpus.fleet()?;
    println!(
        "{name}: seed {} corpus digest fleet {:016x}",
        ctx.seed, fleet.digest
    );
    let apps = &fleet.apps;
    let payloads: Vec<Vec<Vec<u8>>> =
        apps.iter().map(load).collect::<Result<_, _>>()?;
    let t_start = Instant::now();
    let mut rep = Report::default();
    let cumulative = zipf_cumulative(apps);
    let mut rng = Rng(mix(ctx.seed ^ 0x5eed));

    // On query-spill the budget is a share of the resident state the
    // daemon would hold, measured in-process through the same preload.
    let budget = if spill {
        let mut resident = FleetState::new(serve_config(None)?);
        preload_state(&mut resident, apps, &payloads, None);
        let bytes = resident.resident_bytes();
        let budget = (bytes as f64 * SPILL_SHARE) as usize;
        println!("{name}: resident state {bytes} B, --mem-budget {budget} B");
        budget
    } else {
        0
    };
    let trickle_n = if spill {
        0
    } else {
        (TRICKLE_RATE * ctx.seconds).ceil() as usize + 1
    };
    let trickle =
        trickle_payloads(apps, &payloads, &cumulative, &mut rng, trickle_n)?;

    // Set-up: start, preload three epochs per app through rollover
    // (spilling under the budget on query-spill).
    let mut setups = Vec::new();
    let mut kept = None;
    for r in 0..QUERY_SETUPS {
        let mut args = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
        let dir = ctx.run_dir.join(format!("spill-{r}"));
        if spill {
            args.extend([
                "--spill-dir".to_string(),
                path_arg(&dir),
                "--mem-budget".to_string(),
                budget.to_string(),
            ]);
        }
        let (daemon, t0) = start(ctx, &args, &format!("daemon-{r}"))?;
        preload(&mut client(&daemon.addr)?, apps, &payloads, spill, &mut rep)?;
        setups.push(t0.elapsed().as_secs_f64());
        if r + 1 < QUERY_SETUPS {
            daemon.shutdown(Duration::from_secs(30))?;
            let _ = std::fs::remove_dir_all(&dir);
            crate::proc::flush_disks();
        } else {
            kept = Some(daemon);
        }
    }
    let daemon = kept.expect("at least one set-up");
    let addr = daemon.addr.clone();
    // The set-up's warm-up diagnoses, to take out of the server's
    // diagnose time on the traced run.
    let set_up = if ctx.trace {
        Scrape::fetch(&addr)?
    } else {
        Scrape::default()
    };

    // Measured: the dashboard (closed loop) on this thread, the
    // trickle (open loop, one persistent connection) on another.
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let acked = AtomicUsize::new(0);
    let trace = ctx.trace;
    let (trickle_result, dash) = std::thread::scope(|s| {
        let trickle_thread = s.spawn(|| -> Result<Trickled, String> {
            let mut rec = Recorder::new(trace);
            let mut protocol_bytes = 0u64;
            let schedule = Schedule::new(Instant::now(), TRICKLE_RATE);
            let mut conn = None;
            let (mut lat, mut late, mut answers) =
                (Vec::new(), Vec::new(), Vec::new());
            for (i, (a, payload)) in trickle.iter().enumerate() {
                let due = schedule.due(i);
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let result = submit(
                    &mut conn,
                    &addr,
                    &apps[*a].app,
                    payload,
                    &mut rec,
                    1_000_000 + i as u64,
                    &mut protocol_bytes,
                );
                let done = Instant::now();
                if result.is_err() {
                    conn = None;
                }
                answers.push(result);
                acked.store(i + 1, Ordering::SeqCst);
                lat.push(due_latency(due, done).as_secs_f64() * 1e3);
                late.push(lateness(due, sent).as_secs_f64() * 1e3);
            }
            Ok((lat, late, answers, rec, protocol_bytes))
        });
        let mut rec = Recorder::new(trace);
        let mut protocol_bytes = 0u64;
        let mut sent: Vec<Sent> = Vec::new();
        let mut failures = Vec::new();
        let mut drng = Rng(mix(ctx.seed ^ 0xda5b));
        let dash = (|| -> Result<_, String> {
            let mut conn = rec.span("fleetd.server.connect", 0, |_| {
                Link::connect(&addr, trace)
            })?;
            while Instant::now() < deadline {
                let op = Op::draw(&mut drng, ctx.mix);
                let app = drng.pick(&cumulative);
                let epoch = match op {
                    Op::DiagnoseOld => Some(drng.next() % (EPOCHS - 1)),
                    _ => None,
                };
                let req = request_for(op, &apps[app].app, epoch);
                let before = acked.load(Ordering::SeqCst);
                let id = sent.len() as u64 + 1;
                let t0 = Instant::now();
                let response = conn.call(&mut rec, id, &req).map(|(r, b)| {
                    protocol_bytes += b;
                    r
                });
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let answer = response.and_then(|r| answer_json(op, r));
                if let Err(e) = &answer {
                    failures.push(format!("{:?} {}: {e}", op, apps[app].app));
                }
                sent.push(Sent {
                    op,
                    app,
                    epoch,
                    ms,
                    trickled: before,
                    answer: answer.ok().flatten(),
                });
            }
            Ok(())
        })();
        let trickle_result = trickle_thread
            .join()
            .map_err(|_| "trickle thread panicked".to_string())
            .and_then(|r| r);
        (
            trickle_result,
            dash.map(|()| (sent, failures, rec, protocol_bytes)),
        )
    });
    let (t_lat, t_late, t_answers, t_rec, t_bytes) = trickle_result?;
    let (sent, failures, rec, d_bytes) = dash?;
    rep.attempted += sent.len() as u64;
    rep.failed += failures.len() as u64;
    for f in failures.iter().take(5) {
        eprintln!("perfbench: {f}");
    }
    for result in &t_answers {
        // A trickle upload is a new clean session.
        tally_submit(result, Want::Clean, &mut rep);
    }

    // End of run: resources, metrics, then the answer checks.
    let res = resources(daemon.pid)?;
    let scrape = Scrape::fetch(&addr)?;
    let mut checked: Vec<usize> = Vec::new();
    {
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order.sort_by(|&x, &y| {
            apps[y]
                .downloads
                .cmp(&apps[x].downloads)
                .then(apps[x].app.cmp(&apps[y].app))
        });
        checked.extend(order.iter().take(CHECKED_APPS / 2));
        let mut crng = Rng(mix(ctx.seed ^ 0xc4ec));
        while checked.len() < CHECKED_APPS.min(apps.len()) {
            let a = (crng.next() % apps.len() as u64) as usize;
            if !checked.contains(&a) {
                checked.push(a);
            }
        }
    }
    let mut reference = FleetState::new(serve_config(None)?);
    preload_state(&mut reference, apps, &payloads, Some(&checked));
    for (a, payload) in trickle.iter().take(t_answers.len()) {
        if checked.contains(a) {
            reference.submit(&apps[*a].app, payload);
        }
    }
    let mut conn = client(&addr)?;
    let regress_config = energydx_regress::RegressConfig::default();
    for &a in &checked {
        let app = &apps[a].app;
        for epoch in [None, Some(0)] {
            let want = reference
                .diagnose_json(app, epoch)
                .map_err(|e| e.to_string())?;
            let got = answer_json(
                Op::Diagnose,
                call(
                    &mut conn,
                    &Request::Diagnose {
                        app: app.clone(),
                        epoch,
                    },
                )?,
            )?;
            rep.check(got.as_deref() == Some(want.as_str()), format!("{app} epoch {epoch:?}: daemon diagnosis differs from the in-process state"));
        }
        let want = reference
            .regressions_json(
                app,
                None,
                crate::corpus::RELEASES[0],
                crate::corpus::RELEASES[1],
                &regress_config,
            )
            .map_err(|e| e.to_string())?;
        let got = answer_json(
            Op::Regressions,
            call(&mut conn, &request_for(Op::Regressions, app, None))?,
        )?;
        rep.check(
            got.as_deref() == Some(want.as_str()),
            format!(
                "{app}: daemon regressions differ from the in-process state"
            ),
        );
    }
    // Frozen epochs cannot change: every in-run answer about one must
    // equal the in-process state's.
    let mut frozen_checked = 0;
    for s in sent
        .iter()
        .filter(|s| s.op == Op::DiagnoseOld && checked.contains(&s.app))
    {
        let want = reference
            .diagnose_json(&apps[s.app].app, s.epoch)
            .map_err(|e| e.to_string())?;
        frozen_checked += 1;
        if s.answer.as_deref() != Some(want.as_str()) {
            rep.failed += 1;
            rep.check(
                false,
                format!(
                    "{} epoch {:?}: in-run answer differs",
                    apps[s.app].app, s.epoch
                ),
            );
        }
    }
    daemon.shutdown(Duration::from_secs(30))?;

    // Figures: the dashboard's kinds, current and older-epoch
    // diagnoses pooled as `diagnose` (their medians are printed apart
    // and lie close together).
    let of = |kinds: &[Op]| -> Vec<f64> {
        sent.iter()
            .filter(|s| kinds.contains(&s.op))
            .map(|s| s.ms)
            .collect()
    };
    let diag = of(&[Op::Diagnose, Op::DiagnoseOld]);
    let mut p50s = [("", 0.0); 3];
    for (slot, (name, samples)) in [
        ("diagnose_p50_ms", &diag),
        ("regressions_p50_ms", &of(&[Op::Regressions])),
        ("report_p50_ms", &of(&[Op::Report])),
    ]
    .into_iter()
    .enumerate()
    {
        p50s[slot].0 = name;
        if let Some(m) = median(samples) {
            show(name, m, "ms", &format!("{} ops", samples.len()));
            p50s[slot].1 = m;
        }
        if name == "diagnose_p50_ms" {
            show_p99("diagnose_p99_ms", samples);
        }
    }
    for (name, op) in [
        ("diagnose_current_p50_ms", Op::Diagnose),
        ("diagnose_old_p50_ms", Op::DiagnoseOld),
    ] {
        let samples = of(&[op]);
        if let Some(m) = median(&samples) {
            show(name, m, "ms", &format!("{} ops", samples.len()));
        }
    }
    if let Some(up50) = median(&t_lat) {
        show(
            "upload_p50_ms",
            up50,
            "ms",
            &format!("{} trickle uploads at {TRICKLE_RATE}/s", t_lat.len()),
        );
    }
    show("frozen answers checked", frozen_checked as f64, "count", "");
    let setup_s = median(&setups).unwrap_or(0.0);
    show(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {QUERY_SETUPS} start+preload: {setups:.2?}"),
    );
    rep.e2e.insert("setup_s", setup_s);
    rep.e2e.insert("peak_rss_mb", res.hwm_kb as f64 / 1024.0);
    rep.op_slots(p50s);

    if ctx.trace {
        daemon_figures(&mut rep, &res, &scrape);
        let mut all = rec.spans().to_vec();
        all.extend(t_rec.spans().iter().cloned());
        span_layers(
            &mut rep,
            &all,
            &[
                ("fleetd.protocol_s", "fleetd.protocol"),
                ("fleetd.server.connect_s", "fleetd.server.connect"),
            ],
        );
        rep.layer("fleetd.protocol_bytes", (d_bytes + t_bytes) as f64);
        rep.layer(
            "loadgen.late_ms",
            percentile(&t_late, 0.99).map_or(0.0, |p| p.value),
        );
        let diag_client: f64 = diag.iter().sum::<f64>() / 1e3;
        rep.layer(
            "fleetd.state.wait_s",
            diag_client
                - (scrape.request("diagnose") - set_up.request("diagnose")),
        );
        traced_query(
            ctx, spill, budget, apps, &payloads, &trickle, &sent, &mut rep,
        )?;
        queue_wait(&mut rep, &scrape);
        rec.write_tsv(&ctx.run_dir.join("spans.tsv"))
            .and_then(|()| {
                t_rec.write_tsv(&ctx.run_dir.join("trickle-spans.tsv"))
            })
            .map_err(|e| e.to_string())?;
    }
    println!(
        "{name}: run took {:.1} s including set-up and checks",
        t_start.elapsed().as_secs_f64()
    );
    Ok(rep)
}

/// The traced run's in-process replay of a `query*` run: the preload
/// and trickle through `submit`, then the dashboard's ops in order,
/// each classified as a state-cache hit or miss; plus segment
/// load/save over the spill directory the replay produced.
#[allow(clippy::too_many_arguments)]
fn traced_query(
    ctx: &Ctx,
    spill: bool,
    budget: usize,
    apps: &[Stream],
    payloads: &[Vec<Vec<u8>>],
    trickle: &[(usize, Vec<u8>)],
    sent: &[Sent],
    rep: &mut Report,
) -> Result<(), String> {
    let spill_dir = ctx.run_dir.join("replay-spill");
    // Auto-compaction stays on, as in the daemon: with two releases
    // interleaved, the epoch-wide compaction an explicit call makes
    // would be far costlier than the per-epoch one inside submit.
    let config = serve_config(spill.then(|| SpillConfig {
        dir: spill_dir.clone(),
        mem_budget: budget,
    }))?;
    // Overhead: the preload replayed untraced and traced.
    let plain = replay_epochs(
        &mut FleetState::new(config.clone()),
        apps,
        payloads,
        &mut Recorder::new(false),
    )?;
    let mut rec = Recorder::new(true);
    let mut state = FleetState::new(config);
    let counted = replay_epochs(&mut state, apps, payloads, &mut rec)?;
    rep.layer("bench.trace_overhead_frac", (counted.1 - plain.1) / plain.1);
    counted.0.report(rep);
    rep.layer("fleetd.state.resident_bytes", state.resident_bytes() as f64);
    let regress_config = energydx_regress::RegressConfig::default();
    for (op, a, epoch) in warm_up(apps, spill) {
        let app = apps[a].app.as_str();
        let warmed = match op {
            Op::Report => {
                energydx_fleetd::report::fleet_report(&state, 0, None)
                    .map(|_| ())
            }
            Op::Regressions => state
                .regressions_json(
                    app,
                    None,
                    crate::corpus::RELEASES[0],
                    crate::corpus::RELEASES[1],
                    &regress_config,
                )
                .map(|_| ()),
            Op::Diagnose | Op::DiagnoseOld => {
                state.diagnose_json(app, epoch).map(|_| ())
            }
        };
        warmed.map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut fed = 0usize;
    for s in sent {
        while fed < s.trickled.min(trickle.len()) {
            let (a, p) = &trickle[fed];
            let prepared = rec.span("trace.prepare_wire", 0, |_| {
                prepare_wire(p, &state.config().repair)
            });
            rec.span("fleetd.state.submit", 0, |_| {
                state.submit_prepared(&apps[*a].app, prepared)
            });
            fed += 1;
        }
        let app = apps[s.app].app.as_str();
        match s.op {
            Op::Diagnose | Op::DiagnoseOld => {
                let hits = state.query_cache_stats()[0].hits;
                let t = Instant::now();
                let _ = state.diagnose_json(app, s.epoch);
                let took = t.elapsed().as_secs_f64();
                if state.query_cache_stats()[0].hits > hits {
                    rep.add_layer("fleetd.state.diagnose_hit_s", took);
                } else {
                    rep.add_layer("fleetd.state.diagnose_miss_s", took);
                }
            }
            Op::Regressions => {
                let _ = state.regressions_json(
                    app,
                    None,
                    crate::corpus::RELEASES[0],
                    crate::corpus::RELEASES[1],
                    &regress_config,
                );
            }
            Op::Report => {
                let inputs = rec
                    .span("fleetd.report.inputs", 0, |_| {
                        energydx_fleetd::report::state_inputs(&state)
                    })
                    .map_err(|e| e.to_string())?;
                let model = rec.span("report.build", 0, |_| {
                    energydx_report::build_model(
                        &inputs,
                        energydx_report::DeploymentPanel::pinned(),
                        Vec::new(),
                        energydx_report::DEFAULT_TOP_APPS,
                    )
                });
                rec.span("report.html", 0, |_| {
                    energydx_report::render_html(&model)
                });
                rec.span("report.json", 0, |_| {
                    energydx_report::render_json(&model)
                });
            }
        }
    }
    for name in [
        "fleetd.state.diagnose_hit_s",
        "fleetd.state.diagnose_miss_s",
    ] {
        rep.layers.entry(name).or_insert(0.0);
    }
    span_layers(
        rep,
        rec.spans(),
        &[
            ("trace.prepare_wire_s", "trace.prepare_wire"),
            ("report.build_s", "report.build"),
            ("report.html_s", "report.html"),
            ("report.json_s", "report.json"),
        ],
    );
    // Segments: load every spilled run, save each to a scratch copy.
    if spill {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&spill_dir)
            .map_err(|e| format!("{}: {e}", spill_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        files.sort();
        let copy = ctx.run_dir.join("segment-copy");
        std::fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
        for (i, f) in files.iter().enumerate() {
            let partial = rec
                .span("segment.load", 0, |_| energydx_segment::load_from(f))
                .map_err(|e| format!("{}: {e}", f.display()))?;
            let parts = partial.to_parts();
            rec.span("segment.save", 0, |_| {
                energydx_segment::save_to(
                    &copy.join(format!("s{i}.seg")),
                    &parts,
                )
            })
            .map_err(|e| format!("segment save: {e}"))?;
        }
        rep.layer("segment.files", files.len() as f64);
        span_layers(
            rep,
            rec.spans(),
            &[
                ("segment.load_s", "segment.load"),
                ("segment.save_s", "segment.save"),
            ],
        );
    } else {
        rep.not_here(
            &["segment.load_s", "segment.save_s", "segment.files"],
            "the query working set stays resident",
        );
    }
    rec.write_tsv(&ctx.run_dir.join("replay-spans.tsv"))
        .map_err(|e| e.to_string())?;
    rep.not_here(
        &[
            "cli.read_s",
            "cli.read_bytes",
            "cli.unattributed_s",
            "trace.from_log_s",
            "trace.join_s",
        ],
        "no CLI job or text traces on the query path",
    );
    rep.not_here(
        &["core.json_s"],
        "rendered inside the daemon's diagnose_json",
    );
    rep.not_here(
        &["fleetd.checkpoint_s"],
        "query daemons run without --state",
    );
    rep.not_here(
        &["fleetd.state.compact_s"],
        "auto-compaction runs inside submit (fleetd.state.submit_s)",
    );
    Ok(())
}

/// The preload replayed into `state` with spans.
fn replay_epochs(
    state: &mut FleetState,
    apps: &[Stream],
    payloads: &[Vec<Vec<u8>>],
    rec: &mut Recorder,
) -> Result<(WireCounts, f64), String> {
    let t0 = Instant::now();
    let mut total = WireCounts::default();
    for epoch in 0..EPOCHS {
        let seq = apps.iter().enumerate().flat_map(|(a, app)| {
            payloads[a]
                .iter()
                .map(move |p| (app.app.as_str(), p.as_slice()))
        });
        total.add(&replay_uploads(state, seq, 0, None, rec)?.0);
        if epoch + 1 < EPOCHS {
            for app in apps {
                state.rollover(&app.app);
            }
        }
    }
    Ok((total, t0.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_draws_follow_the_mix() {
        for (shares, want) in [
            (Mix::Dashboard, [0.50, 0.25, 0.20, 0.05]),
            (Mix::Equal, [0.25; 4]),
        ] {
            let mut rng = Rng(mix(7));
            let mut counts = [0usize; 4];
            let n = 40_000;
            for _ in 0..n {
                counts[Op::draw(&mut rng, shares) as usize] += 1;
            }
            for (c, w) in counts.iter().zip(want) {
                let share = *c as f64 / n as f64;
                assert!((share - w).abs() < 0.01, "{shares:?}: {counts:?}");
            }
        }
    }
}
