//! The seeded corpus generator.
//!
//! Two corpora, both built through `energydx_workload`'s public
//! simulation APIs ([`SessionRunner`] on an instrumented build,
//! [`UtilizationSampler`], the power model) and `wire::encode_v3`:
//!
//! - **K-9**: the K-9 Mail scenario with [`K9_USERS`] users, written
//!   twice — as text traces (`user-N.events` + `user-N.power`, the
//!   `analyze --dir` layout) and as wire-v3 payloads of the same
//!   sessions (the `analyze --bundles` layout and the `ingest` upload
//!   stream).
//! - **Fleet**: the 40 Table III apps, [`FLEET_SESSIONS`] sessions
//!   each, two releases per app (`1.0` runs the repaired build, `1.1`
//!   the faulty one), one subdirectory per app.
//!
//! Every payload sequence carries the same damage recipe, applied by
//! position: one in 9 payloads loses the back half of its
//! utilization samples (the salvage decoder recovers it), one in 23
//! is cut inside its header (unsalvageable), and one in 37 is resent
//! right after it was first sent (a duplicate). The expected outcome
//! of every payload follows from the recipe alone, so the daemon's
//! and the batch CLI's quarantine counts are checked against exact
//! numbers.
//!
//! The seed is the only input. A corpus is generated once per seed
//! into the work directory, outside any timed phase, and reused; its
//! digest is recomputed from the files on every run and printed, so
//! two runs can show they saw the same inputs.

use energydx_droidsim::Device;
use energydx_powermodel::{
    scale_trace, DeviceProfile, PowerModel, UtilizationSampler,
};
use energydx_trace::event::EventTrace;
use energydx_trace::power::PowerTrace;
use energydx_trace::store::TraceBundle;
use energydx_trace::util::UtilizationTrace;
use energydx_trace::wire;
use energydx_workload::hooks::HookSet;
use energydx_workload::scenario::Variant;
use energydx_workload::{Scenario, SessionRunner};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Users in the K-9 corpus.
pub const K9_USERS: usize = 2000;
/// Sessions per app in the fleet corpus.
pub const FLEET_SESSIONS: usize = 32;
/// The two releases of every fleet app.
pub const RELEASES: [&str; 2] = ["1.0", "1.1"];
/// Seed directories kept in the cache; older ones are removed.
const CACHE_SEEDS: usize = 24;

/// What the daemon or CLI must do with one payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// Accepted verbatim.
    Clean,
    /// Accepted after salvage.
    Recovered,
    /// Quarantined as undecodable.
    Undecodable,
    /// Quarantined as a duplicate session.
    Duplicate,
}

impl Want {
    fn code(self) -> char {
        match self {
            Want::Clean => 'c',
            Want::Recovered => 'r',
            Want::Undecodable => 'u',
            Want::Duplicate => 'd',
        }
    }

    fn from_code(c: char) -> Option<Want> {
        Some(match c {
            'c' => Want::Clean,
            'r' => Want::Recovered,
            'u' => Want::Undecodable,
            'd' => Want::Duplicate,
            _ => return None,
        })
    }

    /// The quarantine reason label the program uses, if rejected.
    pub fn reason(self) -> Option<&'static str> {
        match self {
            Want::Undecodable => Some("undecodable"),
            Want::Duplicate => Some("duplicate"),
            _ => None,
        }
    }

    /// Whether the payload is accepted.
    pub fn accepted(self) -> bool {
        matches!(self, Want::Clean | Want::Recovered)
    }
}

/// Counts of each expected outcome over a payload sequence.
pub fn tally(wants: &[Want]) -> [usize; 4] {
    let mut t = [0; 4];
    for w in wants {
        t[*w as usize] += 1;
    }
    t
}

/// One payload sequence: files in send order and what each must do.
#[derive(Debug, Clone)]
pub struct Stream {
    /// App name the payloads are submitted under.
    pub app: String,
    /// Payload files, in send order.
    pub files: Vec<PathBuf>,
    /// Expected outcome of each file.
    pub wants: Vec<Want>,
    /// Table III downloads (0 when unknown); K-9 has none.
    pub downloads: u64,
}

/// The K-9 corpus on disk.
#[derive(Debug, Clone)]
pub struct K9 {
    /// `user-N.events` / `user-N.power` directory.
    pub text_dir: PathBuf,
    /// Wire payload directory.
    pub wire_dir: PathBuf,
    /// The wire payloads as one upload stream.
    pub stream: Stream,
    /// Digest of every file.
    pub digest: u64,
}

/// The fleet corpus on disk.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Spool root: one subdirectory per app.
    pub dir: PathBuf,
    /// One upload stream per app, sorted by app name.
    pub apps: Vec<Stream>,
    /// Digest of every file.
    pub digest: u64,
}

/// The damage recipe over `n` generated sessions: the send sequence
/// as (session index, damage) pairs, where a resend repeats the
/// previous entry's bytes.
fn recipe(n: usize) -> Vec<(usize, Want)> {
    let mut out = Vec::with_capacity(n + n / 30);
    for i in 0..n {
        let want = if i % 23 == 11 {
            Want::Undecodable
        } else if i % 9 == 4 {
            Want::Recovered
        } else {
            Want::Clean
        };
        out.push((i, want));
        if i % 37 == 20 && want != Want::Undecodable {
            out.push((i, Want::Duplicate));
        }
    }
    out
}

/// Applies one damage to an encoded payload.
fn damage(bundle: &TraceBundle, payload: Vec<u8>, want: Want) -> Vec<u8> {
    match want {
        Want::Clean | Want::Duplicate => payload,
        // Cut inside the identity header: nothing can be trusted.
        Want::Undecodable => payload[..6].to_vec(),
        // Cut in the middle of the utilization samples, the last
        // section: every event survives, the samples' tail is lost.
        Want::Recovered => {
            let mut bare = bundle.clone();
            bare.utilization =
                UtilizationTrace::with_period(bundle.utilization.period_ms);
            let head = wire::encode_v3(&bare).len();
            let keep = head + (payload.len().saturating_sub(head)) / 2;
            payload[..keep].to_vec()
        }
    }
}

/// FNV-1a, 64 bit: the corpus digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of files' names and contents, in the given order.
pub fn digest_files(files: &[PathBuf]) -> std::io::Result<u64> {
    let mut d = Digest::new();
    for f in files {
        let name = f.file_name().and_then(|n| n.to_str()).unwrap_or("");
        d.update(name.as_bytes());
        d.update(&std::fs::read(f)?);
    }
    Ok(d.value())
}

/// SplitMix64 finalizer: spreads one seed into independent streams.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One simulated session.
struct Session {
    events: EventTrace,
    utilization: UtilizationTrace,
    power: PowerTrace,
    device: String,
}

/// The instrumented builds and hooks of one scenario.
struct Builds {
    faulty: (energydx_dexir::module::Module, HookSet),
    fixed: (energydx_dexir::module::Module, HookSet),
}

impl Builds {
    fn of(scenario: &Scenario) -> Builds {
        Builds {
            faulty: (
                Scenario::instrument(&scenario.faulty_module()),
                scenario.fault.faulty_hooks(),
            ),
            fixed: (
                Scenario::instrument(&scenario.fixed_module()),
                scenario.fault.fixed_hooks(),
            ),
        }
    }
}

/// Simulates one user exactly as `Scenario::collect` does, keeping
/// the utilization trace the wire format carries.
fn simulate(
    scenario: &Scenario,
    builds: &Builds,
    variant: Variant,
    user: usize,
) -> Result<Session, String> {
    let (module, hooks) = match variant {
        Variant::Faulty => &builds.faulty,
        Variant::Fixed => &builds.fixed,
    };
    let profiles = DeviceProfile::builtin();
    let profile = &profiles[user % profiles.len()];
    let impacted_users =
        (scenario.impacted_fraction * scenario.n_users as f64).round() as usize;
    let trigger: &[_] = if user < impacted_users {
        &scenario.trigger
    } else {
        &[]
    };
    let script = scenario
        .script_gen
        .generate(scenario.seed.wrapping_add(user as u64), trigger);
    let session =
        SessionRunner::new(Device::new(module.clone()), hooks.clone())
            .run(&script)
            .map_err(|e| {
                format!("simulating {} user {user}: {e}", scenario.name)
            })?;
    let utilization = UtilizationSampler::default()
        .sample(&session.timeline, session.duration_ms);
    let model = PowerModel::new(
        profile.clone(),
        scenario.seed.wrapping_add(user as u64).wrapping_mul(0x9e37),
    );
    let measured = model.estimate_trace(&utilization);
    let power = scale_trace(&measured, profile, &DeviceProfile::nexus6());
    Ok(Session {
        events: session.events,
        utilization,
        power,
        device: profile.name.clone(),
    })
}

/// Runs `f(i)` for `i in 0..n` on two threads, results in order.
fn two_threads<T: Send>(
    n: usize,
    f: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let halves: Vec<Result<Vec<(usize, T)>, String>> =
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    s.spawn(move || {
                        (t..n)
                            .step_by(2)
                            .map(|i| f(i).map(|v| (i, v)))
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("generator panicked".into()))
                })
                .collect()
        });
    let mut all = Vec::with_capacity(n);
    for half in halves {
        all.extend(half?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, v)| v).collect())
}

/// Writes a payload stream for `sessions` under `dir`; returns the
/// files and their expected outcomes.
fn write_stream(
    dir: &Path,
    user_prefix: &str,
    sessions: &[Session],
    version_of: impl Fn(usize) -> &'static str,
) -> Result<(Vec<PathBuf>, Vec<Want>), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = Vec::new();
    let mut wants = Vec::new();
    let mut last: Vec<u8> = Vec::new();
    for (seq, (i, want)) in recipe(sessions.len()).into_iter().enumerate() {
        let payload = if want == Want::Duplicate {
            last.clone()
        } else {
            let s = &sessions[i];
            let mut bundle = TraceBundle::new(
                format!("{user_prefix}{i:04}"),
                0,
                s.device.as_str(),
            )
            .with_app_version(version_of(i));
            bundle.events = s.events.clone();
            bundle.utilization = s.utilization.clone();
            let encoded = wire::try_encode_v3(&bundle)
                .map_err(|e| format!("encoding session {i}: {e}"))?
                .to_vec();
            damage(&bundle, encoded, want)
        };
        let path = dir.join(format!("p{seq:05}.edxt"));
        std::fs::write(&path, &payload)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        last = payload;
        files.push(path);
        wants.push(want);
    }
    Ok((files, wants))
}

fn power_csv(power: &PowerTrace) -> String {
    let mut out = String::from("timestamp_ms,total_mw\n");
    for s in power.samples() {
        let _ = writeln!(out, "{},{:.3}", s.timestamp_ms, s.total_mw);
    }
    out
}

fn wants_string(wants: &[Want]) -> String {
    wants.iter().map(|w| w.code()).collect()
}

fn parse_wants(s: &str) -> Option<Vec<Want>> {
    s.chars().map(Want::from_code).collect()
}

fn stream_files(dir: &Path, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|seq| dir.join(format!("p{seq:05}.edxt")))
        .collect()
}

/// The corpus cache for one seed.
#[derive(Debug, Clone)]
pub struct Corpus {
    work: PathBuf,
    root: PathBuf,
    seed: u64,
}

impl Corpus {
    /// The cache directory for `seed` under `work`.
    pub fn at(work: &Path, seed: u64) -> Corpus {
        Corpus {
            work: work.to_path_buf(),
            root: work
                .join("corpus")
                .join(format!("seed-{seed}-k{K9_USERS}-f{FLEET_SESSIONS}")),
            seed,
        }
    }

    /// Generates one corpus part (`k9` or `fleet`) in a child process
    /// unless it is cached. The benchmark process stays small, so the jobs
    /// it forks later do not inherit a large resident set.
    fn ensure(&self, part: &str) -> Result<(), String> {
        if self.root.join(part).join("MANIFEST").exists() {
            return Ok(());
        }
        let exe = std::env::current_exe()
            .map_err(|e| format!("own executable: {e}"))?;
        let status = std::process::Command::new(exe)
            .arg("--generate")
            .arg(part)
            .arg("--seed")
            .arg(self.seed.to_string())
            .arg("--work")
            .arg(&self.work)
            .status()
            .map_err(|e| format!("corpus generator: {e}"))?;
        if status.success() {
            crate::proc::flush_disks();
            Ok(())
        } else {
            Err(format!("corpus generator for {part} failed: {status}"))
        }
    }

    /// Generates one corpus part in this process (`--generate`).
    pub fn generate(&self, part: &str) -> Result<(), String> {
        match part {
            "k9" => self.generate_k9(),
            "fleet" => self.generate_fleet(),
            other => Err(format!("unknown corpus part `{other}`")),
        }
    }

    fn generate_k9(&self) -> Result<(), String> {
        let dir = self.root.join("k9");
        let manifest = dir.join("MANIFEST");
        let text_dir = dir.join("text");
        let wire_dir = dir.join("wire");
        let _ = std::fs::remove_dir_all(&dir);
        self.evict_others()?;
        let mut scenario = Scenario::k9mail();
        scenario.n_users = K9_USERS;
        scenario.seed ^= mix(self.seed);
        let builds = Builds::of(&scenario);
        let sessions = two_threads(K9_USERS, |u| {
            simulate(&scenario, &builds, Variant::Faulty, u)
        })?;
        std::fs::create_dir_all(&text_dir)
            .map_err(|e| format!("{}: {e}", text_dir.display()))?;
        for (i, s) in sessions.iter().enumerate() {
            let ev = text_dir.join(format!("user-{i}.events"));
            std::fs::write(&ev, s.events.to_log())
                .map_err(|e| format!("{}: {e}", ev.display()))?;
            let pw = text_dir.join(format!("user-{i}.power"));
            std::fs::write(&pw, power_csv(&s.power))
                .map_err(|e| format!("{}: {e}", pw.display()))?;
        }
        let (_, wants) =
            write_stream(&wire_dir, "k9-u", &sessions, |_| RELEASES[0])?;
        std::fs::write(&manifest, wants_string(&wants))
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        Ok(())
    }

    /// The K-9 corpus, generated on first use.
    pub fn k9(&self) -> Result<K9, String> {
        self.ensure("k9")?;
        let dir = self.root.join("k9");
        let manifest = dir.join("MANIFEST");
        let text_dir = dir.join("text");
        let wire_dir = dir.join("wire");
        let wants = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|s| parse_wants(s.trim()))
            .ok_or_else(|| format!("{}: unreadable", manifest.display()))?;
        let files = stream_files(&wire_dir, wants.len());
        let mut text: Vec<PathBuf> = Vec::new();
        for i in 0..K9_USERS {
            text.push(text_dir.join(format!("user-{i}.events")));
            text.push(text_dir.join(format!("user-{i}.power")));
        }
        text.extend(files.iter().cloned());
        let digest =
            digest_files(&text).map_err(|e| format!("corpus digest: {e}"))?;
        Ok(K9 {
            text_dir,
            wire_dir,
            stream: Stream {
                app: "k9mail".to_string(),
                files,
                wants,
                downloads: 0,
            },
            digest,
        })
    }

    fn generate_fleet(&self) -> Result<(), String> {
        let dir = self.root.join("fleet");
        let manifest = dir.join("MANIFEST");
        let table = energydx_workload::fleet();
        let _ = std::fs::remove_dir_all(&dir);
        self.evict_others()?;
        let mut lines = String::new();
        let per_app = two_threads(table.len(), |a| {
            let app = &table[a];
            let mut scenario = app.scenario();
            scenario.n_users = FLEET_SESSIONS;
            scenario.seed ^= mix(self.seed ^ mix(app.id as u64));
            let builds = Builds::of(&scenario);
            let sessions = (0..FLEET_SESSIONS)
                .map(|u| {
                    let variant = if u % 2 == 0 {
                        Variant::Fixed
                    } else {
                        Variant::Faulty
                    };
                    simulate(&scenario, &builds, variant, u)
                })
                .collect::<Result<Vec<_>, String>>()?;
            let name = app.package();
            let (_, wants) =
                write_stream(&dir.join(&name), "u", &sessions, |u| {
                    RELEASES[u % 2]
                })?;
            Ok((name, downloads(app.downloads), wants))
        })?;
        for (name, dl, wants) in &per_app {
            let _ = writeln!(lines, "{name} {dl} {}", wants_string(wants));
        }
        std::fs::write(&manifest, lines)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        Ok(())
    }

    /// The fleet corpus, generated on first use.
    pub fn fleet(&self) -> Result<Fleet, String> {
        self.ensure("fleet")?;
        let dir = self.root.join("fleet");
        let manifest = dir.join("MANIFEST");
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        let mut apps = Vec::new();
        for line in text.lines() {
            let mut parts = line.split(' ');
            let (Some(name), Some(dl), Some(w)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "{}: bad line {line:?}",
                    manifest.display()
                ));
            };
            let wants = parse_wants(w)
                .ok_or_else(|| format!("{}: bad line", manifest.display()))?;
            apps.push(Stream {
                app: name.to_string(),
                files: stream_files(&dir.join(name), wants.len()),
                wants,
                downloads: dl.parse().unwrap_or(0),
            });
        }
        apps.sort_by(|a, b| a.app.cmp(&b.app));
        let all: Vec<PathBuf> =
            apps.iter().flat_map(|a| a.files.iter().cloned()).collect();
        let digest =
            digest_files(&all).map_err(|e| format!("corpus digest: {e}"))?;
        Ok(Fleet { dir, apps, digest })
    }

    /// Keeps the cache bounded: removes the oldest other seeds.
    fn evict_others(&self) -> Result<(), String> {
        let parent = self.root.parent().expect("corpus root has a parent");
        std::fs::create_dir_all(&self.root)
            .map_err(|e| format!("{}: {e}", self.root.display()))?;
        let mut others: Vec<(std::time::SystemTime, PathBuf)> =
            std::fs::read_dir(parent)
                .map_err(|e| format!("{}: {e}", parent.display()))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p != &self.root)
                .filter_map(|p| Some((p.metadata().ok()?.modified().ok()?, p)))
                .collect();
        others.sort();
        let excess = (others.len() + 1).saturating_sub(CACHE_SEEDS);
        for (_, p) in others.into_iter().take(excess) {
            let _ = std::fs::remove_dir_all(p);
        }
        Ok(())
    }
}

/// Table III's downloads column as a number (`n/a` is 0).
pub fn downloads(s: &str) -> u64 {
    let t = s.trim_end_matches('+');
    let (num, mul) = match t.chars().last() {
        Some('B') => (&t[..t.len() - 1], 1_000_000_000),
        Some('M') => (&t[..t.len() - 1], 1_000_000),
        Some('K') | Some('k') => (&t[..t.len() - 1], 1_000),
        _ => (t, 1),
    };
    num.parse::<u64>().map_or(0, |n| n * mul)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipe_counts_follow_from_positions() {
        let r = recipe(100);
        let wants: Vec<Want> = r.iter().map(|(_, w)| *w).collect();
        // 11, 34, 57, 80 are cut in the header; 4, 13, ... every 9th
        // except those is salvageable; 20, 57(undecodable: no resend),
        // 94 are resent.
        let [clean, recovered, undecodable, duplicate] = tally(&wants);
        assert_eq!(undecodable, 4);
        assert_eq!(recovered, 11);
        assert_eq!(duplicate, 2);
        assert_eq!(clean, 100 - 4 - 11);
        // A resend follows its original.
        for (k, (i, w)) in r.iter().enumerate() {
            if *w == Want::Duplicate {
                assert_eq!(r[k - 1].0, *i);
            }
        }
    }

    #[test]
    fn downloads_parse() {
        assert_eq!(downloads("1B+"), 1_000_000_000);
        assert_eq!(downloads("100k+"), 100_000);
        assert_eq!(downloads("500+"), 500);
        assert_eq!(downloads("n/a"), 0);
    }

    #[test]
    fn wants_round_trip() {
        let w = vec![
            Want::Clean,
            Want::Recovered,
            Want::Undecodable,
            Want::Duplicate,
        ];
        assert_eq!(parse_wants(&wants_string(&w)), Some(w));
    }
}
