//! The daemon's `metrics` exposition, read at the end of a run (and,
//! on a traced `query*` run, once more right after set-up).
//!
//! Only leaf stages of `energydx_stage_duration_seconds` are used
//! (`ingest`, `convert`, `map`, `merge`, `analyze`, `render`,
//! `regress`); `finish` spans `analyze` + `render` and would count
//! them twice.

use crate::proc::{call, client};
use energydx_fleetd::protocol::{Request, Response};
use std::collections::BTreeMap;

/// A parsed exposition: series key (`name;label=value;...`) → value.
#[derive(Debug, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Fetches and parses the daemon's exposition.
    pub fn fetch(addr: &str) -> Result<Scrape, String> {
        match call(&mut client(addr)?, &Request::Metrics)? {
            Response::Metrics { text } => {
                energydx_obsv::parse_exposition(&text)
                    .map(Scrape)
                    .map_err(|e| format!("metrics exposition: {e}"))
            }
            other => Err(format!("metrics: unexpected answer {other:?}")),
        }
    }

    /// One series, 0 when absent (counters start absent).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Seconds spent in one leaf stage.
    pub fn stage(&self, stage: &str) -> f64 {
        self.get(&format!(
            "energydx_stage_duration_seconds_sum;stage={stage}"
        ))
    }

    /// Total seconds the server spent on requests of one kind.
    pub fn request(&self, kind: &str) -> f64 {
        self.get(&format!("fleetd_request_duration_seconds_sum;kind={kind}"))
    }

    /// Query-cache hit ratio of one layer (0 when never asked).
    pub fn hit_ratio(&self, layer: &str) -> f64 {
        let hits =
            self.get(&format!("fleetd_query_cache_hits_total;layer={layer}"));
        let misses =
            self.get(&format!("fleetd_query_cache_misses_total;layer={layer}"));
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    }

    /// Sum of every series of a family (any labels).
    pub fn family(&self, name: &str) -> f64 {
        let prefix = format!("{name};");
        self.0
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&prefix))
            .fold(0.0, |acc, (_, v)| acc + v)
    }
}
