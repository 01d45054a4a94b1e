//! Run-level observability.
//!
//! Every job the harness completes contributes a [`RunRecord`]; the
//! accumulated [`HarnessReport`] summarizes throughput, cache behavior,
//! and worker utilization, renders as an mfreport table, and serializes
//! through mfreport's JSON writer.

use std::time::Duration;

use mfreport::json::Json;
use mfreport::Table;

use crate::cache::CacheCounters;
use crate::job::CacheSource;
use crate::key::RunKey;

/// One completed job, as observed by the harness.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// `program/dataset` label.
    pub label: String,
    /// Content key of the work.
    pub key: RunKey,
    /// Guest instructions the run executed.
    pub guest_instrs: u64,
    /// Wall time spent producing the result (≈0 for cache hits).
    pub wall: Duration,
    /// Computed, memory hit, or disk hit.
    pub source: CacheSource,
    /// Semantic-verification digest of the program this job ran
    /// (`mfcheck::verify_digest`), recorded when the harness runs with
    /// verification enabled — for cache hits too, so a cached result is
    /// still re-checked against today's verifier. `None` when
    /// verification was off.
    pub verify_digest: Option<u64>,
}

/// Error-taxonomy counters: everything the harness survived rather than
/// died of — worker panics, transient I/O absorbed by retry, persist
/// failures degraded to recomputation, corrupt cache entries salvaged
/// to misses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// Runs that panicked inside a worker (each is quarantined).
    pub panics: u64,
    /// Labels currently quarantined, sorted.
    pub quarantined: Vec<String>,
    /// Transient I/O faults absorbed by retrying.
    pub io_retries: u64,
    /// Cache persists that gave up (results stayed in memory).
    pub cache_store_failures: u64,
    /// Cache entries that failed validation and salvaged to a miss.
    pub cache_corrupt_misses: u64,
}

impl RobustnessReport {
    /// True when nothing abnormal was observed (the usual case — and the
    /// reason the summary table omits these rows by default).
    pub fn is_quiet(&self) -> bool {
        *self == RobustnessReport::default()
    }
}

/// Aggregated observability for every batch a harness has executed.
#[derive(Clone, Debug, Default)]
pub struct HarnessReport {
    /// Per-job records, in completion-batch submission order.
    pub records: Vec<RunRecord>,
    /// Jobs submitted across all batches (before dedup).
    pub jobs_submitted: u64,
    /// Distinct keys actually looked up/executed.
    pub unique_jobs: u64,
    /// Worker threads the pool used (max across batches).
    pub workers: usize,
    /// Summed wall time of all pool batches.
    pub wall: Duration,
    /// Summed busy time across all workers and batches.
    pub busy: Duration,
    /// Cache counters snapshot.
    pub cache: CacheCounters,
    /// Error-taxonomy snapshot.
    pub robustness: RobustnessReport,
}

impl HarnessReport {
    /// Jobs that were actually executed this process.
    pub fn computed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.source == CacheSource::Computed)
            .count() as u64
    }

    /// Total cache hits (memory + disk).
    pub fn cache_hits(&self) -> u64 {
        self.cache.mem_hits + self.cache.disk_hits
    }

    /// Hit fraction over all unique lookups, in `0..=1`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits() + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }

    /// Guest instructions executed by computed runs.
    pub fn guest_instrs(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.source == CacheSource::Computed)
            .map(|r| r.guest_instrs)
            .sum()
    }

    /// Guest instructions per second of busy worker time.
    pub fn guest_instrs_per_sec(&self) -> f64 {
        let busy = self.busy.as_secs_f64();
        if busy <= 0.0 {
            0.0
        } else {
            self.guest_instrs() as f64 / busy
        }
    }

    /// Mean worker utilization over pool wall time, in `0..=1`.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.wall.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / (self.wall.as_secs_f64() * self.workers as f64)).min(1.0)
    }

    /// The human-readable summary table `repro` prints.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(&["metric", "value"]);
        table.row_owned(vec![
            "jobs submitted".into(),
            self.jobs_submitted.to_string(),
        ]);
        table.row_owned(vec![
            "unique jobs (after dedup)".into(),
            self.unique_jobs.to_string(),
        ]);
        table.row_owned(vec!["runs computed".into(), self.computed().to_string()]);
        table.row_owned(vec![
            "cache hits (memory)".into(),
            self.cache.mem_hits.to_string(),
        ]);
        table.row_owned(vec![
            "cache hits (disk)".into(),
            self.cache.disk_hits.to_string(),
        ]);
        table.row_owned(vec![
            "cache hit rate".into(),
            format!("{:.1}%", self.hit_rate() * 100.0),
        ]);
        table.row_owned(vec!["worker threads".into(), self.workers.to_string()]);
        table.row_owned(vec![
            "pool wall time".into(),
            format!("{:.3}s", self.wall.as_secs_f64()),
        ]);
        table.row_owned(vec![
            "worker utilization".into(),
            format!("{:.1}%", self.utilization() * 100.0),
        ]);
        table.row_owned(vec![
            "guest instructions".into(),
            self.guest_instrs().to_string(),
        ]);
        table.row_owned(vec![
            "guest instrs/sec (busy)".into(),
            format!("{:.3e}", self.guest_instrs_per_sec()),
        ]);
        let verified = self.verified();
        if verified > 0 {
            table.row_owned(vec![
                "runs verified".into(),
                format!("{verified} ({} clean)", self.verified_clean()),
            ]);
        }
        if !self.robustness.is_quiet() {
            let r = &self.robustness;
            table.row_owned(vec![
                "runs panicked (quarantined)".into(),
                format!("{} ({})", r.panics, r.quarantined.len()),
            ]);
            table.row_owned(vec!["io retries".into(), r.io_retries.to_string()]);
            table.row_owned(vec![
                "cache store failures".into(),
                r.cache_store_failures.to_string(),
            ]);
            table.row_owned(vec![
                "cache corrupt misses".into(),
                r.cache_corrupt_misses.to_string(),
            ]);
        }
        table
    }

    /// Records carrying a verification digest.
    pub fn verified(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.verify_digest.is_some())
            .count() as u64
    }

    /// Verified records whose program produced no diagnostics at all.
    pub fn verified_clean(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.verify_digest == Some(mfcheck::CLEAN_DIGEST))
            .count() as u64
    }

    /// The full report (summary plus per-run records) as a JSON value.
    pub fn to_json(&self) -> Json {
        let r = &self.robustness;
        let runs = self.records.iter().map(|record| {
            Json::object([
                ("label", record.label.as_str().into()),
                ("key", record.key.to_string().into()),
                ("guest_instructions", record.guest_instrs.into()),
                ("wall_seconds", record.wall.as_secs_f64().into()),
                ("source", record.source.name().into()),
                // u64 digests exceed JSON-number precision; emit hex strings.
                (
                    "verify_digest",
                    record.verify_digest.map(|d| format!("{d:#018x}")).into(),
                ),
            ])
        });
        Json::object([
            ("jobs_submitted", self.jobs_submitted.into()),
            ("unique_jobs", self.unique_jobs.into()),
            ("runs_computed", self.computed().into()),
            (
                "cache",
                Json::object([
                    ("memory_hits", self.cache.mem_hits.into()),
                    ("disk_hits", self.cache.disk_hits.into()),
                    ("misses", self.cache.misses.into()),
                    ("hit_rate", self.hit_rate().into()),
                ]),
            ),
            ("workers", self.workers.into()),
            ("pool_wall_seconds", self.wall.as_secs_f64().into()),
            ("worker_busy_seconds", self.busy.as_secs_f64().into()),
            ("worker_utilization", self.utilization().into()),
            ("guest_instructions", self.guest_instrs().into()),
            ("guest_instrs_per_sec", self.guest_instrs_per_sec().into()),
            (
                "robustness",
                Json::object([
                    ("panics", r.panics.into()),
                    (
                        "quarantined",
                        Json::array(r.quarantined.iter().map(String::as_str)),
                    ),
                    ("io_retries", r.io_retries.into()),
                    ("cache_store_failures", r.cache_store_failures.into()),
                    ("cache_corrupt_misses", r.cache_corrupt_misses.into()),
                ]),
            ),
            ("runs", Json::array(runs)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HarnessReport {
        HarnessReport {
            records: vec![
                RunRecord {
                    label: "doduc/train".into(),
                    key: RunKey(1),
                    guest_instrs: 1000,
                    wall: Duration::from_millis(5),
                    source: CacheSource::Computed,
                    verify_digest: None,
                },
                RunRecord {
                    label: "doduc/train".into(),
                    key: RunKey(1),
                    guest_instrs: 1000,
                    wall: Duration::ZERO,
                    source: CacheSource::Memory,
                    verify_digest: Some(mfcheck::CLEAN_DIGEST),
                },
            ],
            jobs_submitted: 2,
            unique_jobs: 1,
            workers: 2,
            wall: Duration::from_millis(10),
            busy: Duration::from_millis(8),
            cache: CacheCounters {
                mem_hits: 1,
                disk_hits: 0,
                misses: 1,
            },
            robustness: RobustnessReport::default(),
        }
    }

    #[test]
    fn metrics_add_up() {
        let report = sample();
        assert_eq!(report.computed(), 1);
        assert_eq!(report.cache_hits(), 1);
        assert!((report.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(report.guest_instrs(), 1000);
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
    }

    #[test]
    fn summary_table_renders() {
        let rendered = sample().summary_table().render();
        assert!(rendered.contains("cache hit rate"));
        assert!(rendered.contains("50.0%"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample().to_json().render();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"label\"").count(), 2);
        // Balanced braces/brackets (no strings contain them here).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn robustness_rows_appear_only_when_noisy() {
        let mut report = sample();
        assert!(!report.summary_table().render().contains("runs panicked"));
        assert!(report
            .to_json()
            .render()
            .contains("\"robustness\": {\"panics\": 0, \"quarantined\": []"));
        report.robustness = RobustnessReport {
            panics: 1,
            quarantined: vec!["doduc/train".into()],
            io_retries: 3,
            cache_store_failures: 2,
            cache_corrupt_misses: 1,
        };
        let rendered = report.summary_table().render();
        assert!(rendered.contains("runs panicked (quarantined)"));
        assert!(rendered.contains("io retries"));
        let json = report.to_json().render();
        assert!(
            json.contains("\"quarantined\": [\"doduc/train\"]"),
            "{json}"
        );
        assert!(json.contains("\"cache_store_failures\": 2"));
    }

    #[test]
    fn empty_report_is_stable() {
        let report = HarnessReport::default();
        assert_eq!(report.hit_rate(), 0.0);
        assert_eq!(report.utilization(), 0.0);
        assert!(report.to_json().render().contains("\"runs\": []"));
    }
}
