//! `svcbench`: throughput, submit latency, and post-crash recovery time
//! for the sharded profile service against the single-log baseline,
//! written as `BENCH_profdb.json` so the persistence layer's performance
//! trajectory is tracked in-repo.
//!
//! ```text
//! svcbench                       # full sweep: {1M,10M,100M} sites x
//!                                # {single-log, 1, 16, 64 shards}
//! svcbench --quick --out b.json  # CI smoke: 1M sites, shards {1,16}
//! svcbench --gate 4.0            # fail unless shards-16 >= 4x single-log
//! ```
//!
//! Each scale point first builds (once — rebuilt only when the stamp
//! does not match) a warmup database with that many distinct branch
//! sites under `target/svcbench/`, streamed in bounded-memory chunks.
//! The measured phase then runs many writer threads, each submitting a
//! stream of small single-site profile records, and reports ops/sec
//! plus p50/p99 submit latency. Finally a crash is simulated by
//! tearing garbage onto every live segment tail, and recovery is the
//! wall time from reopen to the first durable group commit.
//!
//! The single-log baseline drives `mfprofdb::ProfileStore` behind one
//! mutex — one append+sync per record, the pre-sharding architecture,
//! on the same segment-log engine as every shard. The service rows
//! drive `mfprofsvc::ProfileService` — concurrent per-shard commits with
//! batched group commit.
//!
//! Exit status: 0 on success, 1 when a `--gate` ratio is not met, 2 on
//! usage or I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mffault::{RealVfs, Vfs};
use mfprofdb::{OpenOptions, ProfileStore};
use mfprofsvc::{ProfileService, ServiceOptions};
use mfreport::json::Json;
use trace_ir::BranchId;
use trace_vm::BranchCounts;

const USAGE: &str = "\
usage: svcbench [OPTION...]

options:
  --quick             CI smoke: 1M sites, shards {1,16}, short streams
  --sites LIST        comma list of warmup scales, k/m suffixes allowed
                      (default: 1m,10m,100m)
  --shards LIST       comma list of shard counts (default: 1,16,64)
  --writers N         writer threads (default: 64)
  --ops N             submissions per writer per run (default: 64)
  --root DIR          warmup database directory (default: target/svcbench)
  --out PATH          JSON report path (default: BENCH_profdb.json)
  --gate RATIO        exit 1 unless, at every measured scale with a
                      16-shard row, shards-16 ops/sec >= RATIO x the
                      single-log baseline
  --probe-timeout S   watchdog for each post-crash recovery probe: if the
                      reopen + first durable commit has not completed
                      within S seconds the run fails with a structured
                      error instead of hanging (default 120, min 1)
  -h, --help          this message

exit status: 0 ok, 1 gate not met, 2 usage/IO error";

/// Entries per warmup record: ~2 MiB encoded, safely under the 4 MiB
/// frame cap even after per-shard splitting, large enough that a 100M
/// warmup is 1000 records, not millions.
const WARM_RECORD_SITES: u64 = 100_000;
/// Warmup records buffered between flushes: bounds peak memory to a few
/// records regardless of database scale.
const WARM_FLUSH_EVERY: u64 = 4;

struct Options {
    quick: bool,
    sites: Vec<u64>,
    shards: Vec<u32>,
    writers: usize,
    ops: u64,
    root: PathBuf,
    out: PathBuf,
    gate: Option<f64>,
    probe_timeout: Duration,
}

fn parse_scale(v: &str) -> Result<u64, String> {
    let (digits, mult) = match v.to_ascii_lowercase() {
        ref s if s.ends_with('m') => (s[..s.len() - 1].to_string(), 1_000_000),
        ref s if s.ends_with('k') => (s[..s.len() - 1].to_string(), 1_000),
        s => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad scale '{v}' (use e.g. 10m, 500k, 1000000)"))?;
    if n == 0 {
        return Err("a scale must be at least 1 site".to_string());
    }
    Ok(n * mult)
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        quick: false,
        sites: Vec::new(),
        shards: Vec::new(),
        writers: 64,
        ops: 64,
        root: PathBuf::from("target/svcbench"),
        out: PathBuf::from("BENCH_profdb.json"),
        gate: None,
        probe_timeout: Duration::from_secs(120),
    };
    let mut iter = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next()
            .map(|s| s.to_string())
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--quick" => options.quick = true,
            "--sites" => {
                for part in value("--sites", &mut iter)?.split(',') {
                    options.sites.push(parse_scale(part)?);
                }
            }
            "--shards" => {
                for part in value("--shards", &mut iter)?.split(',') {
                    let n: u32 = part
                        .parse()
                        .map_err(|_| format!("bad shard count '{part}'"))?;
                    if n == 0 {
                        return Err("--shards entries must be at least 1".to_string());
                    }
                    options.shards.push(n);
                }
            }
            "--writers" => {
                let v = value("--writers", &mut iter)?;
                options.writers = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--writers expects a positive count, got '{v}'"))?;
            }
            "--ops" => {
                let v = value("--ops", &mut iter)?;
                options.ops = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--ops expects a positive count, got '{v}'"))?;
            }
            "--root" => options.root = PathBuf::from(value("--root", &mut iter)?),
            "--out" => options.out = PathBuf::from(value("--out", &mut iter)?),
            "--gate" => {
                let ratio: f64 = value("--gate", &mut iter)?
                    .parse()
                    .map_err(|_| "--gate requires a ratio like 4.0".to_string())?;
                if !ratio.is_finite() || ratio <= 0.0 {
                    return Err("--gate requires a positive finite ratio".to_string());
                }
                options.gate = Some(ratio);
            }
            "--probe-timeout" => {
                let v = value("--probe-timeout", &mut iter)?;
                let secs: u64 = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("--probe-timeout expects a positive whole number of seconds, got '{v}'")
                })?;
                options.probe_timeout = Duration::from_secs(secs);
            }
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    if options.sites.is_empty() {
        options.sites = if options.quick {
            vec![1_000_000]
        } else {
            vec![1_000_000, 10_000_000, 100_000_000]
        };
    }
    if options.shards.is_empty() {
        options.shards = if options.quick {
            vec![1, 16]
        } else {
            vec![1, 16, 64]
        };
    }
    if options.quick {
        options.ops = options.ops.min(32);
    }
    Ok(Some(options))
}

/// One measured configuration at one scale.
struct Row {
    sites: u64,
    /// 0 = the single-log `ProfileStore` baseline.
    shards: u32,
    ops: u64,
    wall_secs: f64,
    p50_us: f64,
    p99_us: f64,
    recovery_ms: f64,
    warmup_ms: f64,
    db_bytes: u64,
}

impl Row {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_secs.max(1e-9)
    }
    fn config(&self) -> String {
        match self.shards {
            0 => "single-log".to_string(),
            n => format!("shards-{n}"),
        }
    }
}

/// The deterministic site a writer's `op`-th submission updates.
fn site_of(writer: usize, op: u64, sites: u64) -> u32 {
    // A fixed odd multiplier walk: spreads ops across shards without a
    // RNG, and never leaves the warmed [0, sites) id range.
    ((writer as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(op.wrapping_mul(0x85EB_CA6B))
        % sites) as u32
}

fn one_site(id: u32) -> BranchCounts {
    [(BranchId(id), 1u64, 1u64)].into_iter().collect()
}

fn warm_counts(record: u64, sites: u64) -> BranchCounts {
    let base = record * WARM_RECORD_SITES;
    let end = (base + WARM_RECORD_SITES).min(sites);
    (base..end)
        .map(|id| (BranchId(id as u32), 2u64, 1u64))
        .collect()
}

fn dir_size(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            total += dir_size(&p);
        } else {
            total += e.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    total
}

/// Tears `len` bytes of garbage onto the tail of every live segment
/// under `dir` (recursively): the on-disk picture a crash mid-append
/// leaves behind.
fn tear_segments(dir: &Path, len: usize) -> std::io::Result<usize> {
    use std::io::Write as _;
    let mut torn = 0;
    for e in std::fs::read_dir(dir)?.flatten() {
        let p = e.path();
        if p.is_dir() {
            torn += tear_segments(&p, len)?;
        } else if p.extension().is_some_and(|x| x == "mfdb") {
            let mut f = std::fs::OpenOptions::new().append(true).open(&p)?;
            f.write_all(&vec![0xAB; len])?;
            torn += 1;
        }
    }
    Ok(torn)
}

/// Percentile (by nearest-rank) of an unsorted latency sample, in µs.
fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn svc_options(shards: u32) -> ServiceOptions {
    ServiceOptions {
        shards,
        ..ServiceOptions::default()
    }
}

/// Builds (or reuses) the warmup database for `(sites, shards)`;
/// `shards == 0` is the single-log baseline. Returns the database
/// directory and the build time (0 when reused).
fn warm_db(root: &Path, sites: u64, shards: u32) -> Result<(PathBuf, f64), String> {
    let dir = root.join(format!("db-{sites}-s{shards}"));
    let stamp_path = dir.join("WARMED");
    let stamp = format!("sites={sites} shards={shards} record={WARM_RECORD_SITES}");
    if std::fs::read_to_string(&stamp_path).is_ok_and(|s| s == stamp) {
        return Ok((dir, 0.0));
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let start = Instant::now();
    let records = sites.div_ceil(WARM_RECORD_SITES);
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    if shards == 0 {
        let mut store = ProfileStore::open(vfs, &dir, OpenOptions::default())
            .map_err(|e| format!("open baseline {}: {e}", dir.display()))?;
        for r in 0..records {
            store
                .append(&format!("warm/{}", r % 7), &warm_counts(r, sites))
                .map_err(|e| format!("warm baseline: {e}"))?;
        }
        if !store.is_persistent() {
            return Err(format!("baseline warmup degraded at {}", dir.display()));
        }
    } else {
        let svc = ProfileService::open(vfs, &dir, svc_options(shards))
            .map_err(|e| format!("open service {}: {e}", dir.display()))?;
        for r in 0..records {
            svc.enqueue(&format!("warm/{}", r % 7), &warm_counts(r, sites))
                .map_err(|e| format!("warm enqueue: {e}"))?;
            if (r + 1) % WARM_FLUSH_EVERY == 0 || r + 1 == records {
                svc.flush().map_err(|e| format!("warm flush: {e}"))?;
            }
        }
        if !svc.is_persistent() {
            return Err(format!("service warmup degraded at {}", dir.display()));
        }
    }
    let warm_secs = start.elapsed().as_secs_f64();
    std::fs::write(&stamp_path, stamp).map_err(|e| format!("stamp: {e}"))?;
    Ok((dir, warm_secs * 1000.0))
}

/// Measured phase for the sharded service: `writers` threads submit
/// single-site records concurrently; then a simulated crash and a timed
/// Runs `job` on its own thread and waits at most `timeout` for it. A
/// recovery probe that deadlocks (lock protocol bug, lost group-commit
/// wakeup) would otherwise hang the whole bench forever; the watchdog
/// converts the hang into a structured failure. On timeout the worker
/// thread is abandoned — the caller exits the process, which reaps it.
fn with_watchdog<T: Send + 'static>(
    timeout: Duration,
    what: &str,
    job: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name("recovery-probe".to_string())
        .spawn(move || {
            let _ = tx.send(job());
        })
        .map_err(|e| format!("spawn recovery probe: {e}"))?;
    match rx.recv_timeout(timeout) {
        Ok(result) => result,
        Err(_) => Err(format!(
            "{what} hung: no durable commit within {}s watchdog (--probe-timeout)",
            timeout.as_secs()
        )),
    }
}

/// recovery (reopen + first durable group commit).
fn bench_service(
    dir: &Path,
    shards: u32,
    sites: u64,
    writers: usize,
    ops_per_writer: u64,
    probe_timeout: Duration,
) -> Result<(f64, Vec<f64>, f64), String> {
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    let svc = Arc::new(
        ProfileService::open(Arc::clone(&vfs), dir, svc_options(shards))
            .map_err(|e| format!("open: {e}"))?,
    );
    let barrier = Arc::new(Barrier::new(writers + 1));
    let mut handles = Vec::new();
    for w in 0..writers {
        let svc = Arc::clone(&svc);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let dataset = format!("bench/w{w}");
            let mut lat = Vec::with_capacity(ops_per_writer as usize);
            barrier.wait();
            for op in 0..ops_per_writer {
                let counts = one_site(site_of(w, op, sites));
                let t = Instant::now();
                svc.submit(&dataset, &counts)
                    .map_err(|e| format!("submit: {e}"))?;
                lat.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Ok(lat)
        }));
    }
    barrier.wait();
    let wall_start = Instant::now();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().map_err(|_| "writer panicked".to_string())??);
    }
    let wall_secs = wall_start.elapsed().as_secs_f64();
    if !svc.is_persistent() {
        return Err("service degraded during the measured phase".to_string());
    }
    drop(svc);

    // Crash: tear garbage onto every live segment, then time reopen to
    // first durable commit — the service's recovery path end to end,
    // under the watchdog so a recovery deadlock fails instead of hanging.
    tear_segments(dir, 4096).map_err(|e| format!("tear: {e}"))?;
    let dir = dir.to_path_buf();
    let recovery_ms = with_watchdog(probe_timeout, "service recovery probe", move || {
        let t = Instant::now();
        let svc = ProfileService::open(vfs, &dir, svc_options(shards))
            .map_err(|e| format!("reopen: {e}"))?;
        // One submission spread over enough sites to touch (and so
        // repair) every shard with overwhelming probability.
        let probe: BranchCounts = (0..1024u32).map(|i| (BranchId(i), 1u64, 0u64)).collect();
        svc.submit("bench/recovery-probe", &probe)
            .map_err(|e| format!("recovery probe: {e}"))?;
        if !svc.is_persistent() {
            return Err("service degraded during recovery".to_string());
        }
        Ok(t.elapsed().as_secs_f64() * 1000.0)
    })?;
    Ok((wall_secs, latencies, recovery_ms))
}

/// Measured phase for the single-log baseline: the same submission
/// stream through one `ProfileStore` behind one mutex — one append+sync
/// per record, fully serialized.
fn bench_single_log(
    dir: &Path,
    sites: u64,
    writers: usize,
    ops_per_writer: u64,
    probe_timeout: Duration,
) -> Result<(f64, Vec<f64>, f64), String> {
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    let store = ProfileStore::open(Arc::clone(&vfs), dir, OpenOptions::default())
        .map_err(|e| format!("open: {e}"))?;
    let store = Arc::new(Mutex::new(store));
    let barrier = Arc::new(Barrier::new(writers + 1));
    let mut handles = Vec::new();
    for w in 0..writers {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let dataset = format!("bench/w{w}");
            let mut lat = Vec::with_capacity(ops_per_writer as usize);
            barrier.wait();
            for op in 0..ops_per_writer {
                let counts = one_site(site_of(w, op, sites));
                let t = Instant::now();
                store
                    .lock()
                    .expect("store lock")
                    .append(&dataset, &counts)
                    .map_err(|e| format!("append: {e}"))?;
                lat.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Ok(lat)
        }));
    }
    barrier.wait();
    let wall_start = Instant::now();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().map_err(|_| "writer panicked".to_string())??);
    }
    let wall_secs = wall_start.elapsed().as_secs_f64();
    {
        let store = store.lock().expect("store lock");
        if !store.is_persistent() {
            return Err("baseline degraded during the measured phase".to_string());
        }
    }
    drop(store);

    tear_segments(dir, 4096).map_err(|e| format!("tear: {e}"))?;
    let dir = dir.to_path_buf();
    let recovery_ms = with_watchdog(probe_timeout, "single-log recovery probe", move || {
        let t = Instant::now();
        let mut store = ProfileStore::open(vfs, &dir, OpenOptions::default())
            .map_err(|e| format!("reopen: {e}"))?;
        store
            .append("bench/recovery-probe", &one_site(0))
            .map_err(|e| format!("recovery probe: {e}"))?;
        if !store.is_persistent() {
            return Err("baseline degraded during recovery".to_string());
        }
        Ok(t.elapsed().as_secs_f64() * 1000.0)
    })?;
    Ok((wall_secs, latencies, recovery_ms))
}

fn run_config(options: &Options, sites: u64, shards: u32) -> Result<Row, String> {
    let (dir, warmup_ms) = warm_db(&options.root, sites, shards)?;
    let (wall_secs, mut latencies, recovery_ms) = if shards == 0 {
        bench_single_log(
            &dir,
            sites,
            options.writers,
            options.ops,
            options.probe_timeout,
        )?
    } else {
        bench_service(
            &dir,
            shards,
            sites,
            options.writers,
            options.ops,
            options.probe_timeout,
        )?
    };
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let row = Row {
        sites,
        shards,
        ops: options.writers as u64 * options.ops,
        wall_secs,
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        recovery_ms,
        warmup_ms,
        db_bytes: dir_size(&dir),
    };
    eprintln!(
        "{:>11} sites  {:<16} {:>9.0} ops/s  p50 {:>8.0}us  p99 {:>8.0}us  recovery {:>8.1}ms",
        row.sites,
        row.config(),
        row.ops_per_sec(),
        row.p50_us,
        row.p99_us,
        row.recovery_ms,
    );
    Ok(row)
}

fn json_report(rows: &[Row], options: &Options) -> Json {
    let runs = rows.iter().map(|r| {
        Json::object([
            ("sites", r.sites.into()),
            ("config", r.config().into()),
            ("shards", r.shards.into()),
            ("ops", r.ops.into()),
            ("ops_per_sec", Json::Fixed(r.ops_per_sec(), 1)),
            ("p50_us", Json::Fixed(r.p50_us, 1)),
            ("p99_us", Json::Fixed(r.p99_us, 1)),
            ("recovery_ms", Json::Fixed(r.recovery_ms, 2)),
            ("warmup_ms", Json::Fixed(r.warmup_ms, 0)),
            ("db_bytes", r.db_bytes.into()),
        ])
    });
    let speedups = speedups(rows)
        .into_iter()
        .map(|(sites, shards, ratio)| (format!("{sites}x{shards}"), Json::Fixed(ratio, 3)));
    Json::object([
        ("benchmark", "profile-service".into()),
        ("mode", if options.quick { "quick" } else { "full" }.into()),
        ("writers", options.writers.into()),
        ("ops_per_writer", options.ops.into()),
        ("runs", Json::array(runs)),
        ("speedups_vs_single_log", Json::object(speedups)),
    ])
}

/// `(sites, shards, sharded/single-log ops-per-sec ratio)` for every
/// scale that has both a baseline and a sharded row.
fn speedups(rows: &[Row]) -> Vec<(u64, u32, f64)> {
    let mut out = Vec::new();
    for base in rows.iter().filter(|r| r.shards == 0) {
        for r in rows {
            if r.sites == base.sites && r.shards > 0 {
                out.push((r.sites, r.shards, r.ops_per_sec() / base.ops_per_sec()));
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("svcbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut rows = Vec::new();
    for &sites in &options.sites {
        // Baseline first: the speedup denominators.
        for shards in std::iter::once(0).chain(options.shards.iter().copied()) {
            match run_config(&options, sites, shards) {
                Ok(row) => rows.push(row),
                Err(e) => {
                    eprintln!("svcbench: {sites} sites, {shards} shards: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let report = json_report(&rows, &options);
    if let Err(e) = std::fs::write(&options.out, report.render()) {
        eprintln!("svcbench: writing {} failed: {e}", options.out.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "svcbench: {} runs; wrote {}",
        rows.len(),
        options.out.display()
    );

    if let Some(gate) = options.gate {
        let checked: Vec<_> = speedups(&rows)
            .into_iter()
            .filter(|&(_, shards, _)| shards == 16)
            .collect();
        if checked.is_empty() {
            eprintln!("svcbench: GATE FAILED: no 16-shard rows to check");
            return ExitCode::FAILURE;
        }
        for (sites, _, ratio) in checked {
            if ratio < gate {
                eprintln!(
                    "svcbench: GATE FAILED: {sites} sites shards-16 at {ratio:.2}x \
                     < required {gate:.2}x"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("svcbench: gate met at {sites} sites ({ratio:.2}x >= {gate:.2}x)");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_passes_results_and_errors_through() {
        let ok = with_watchdog(Duration::from_secs(5), "probe", || Ok(7u32));
        assert_eq!(ok, Ok(7));
        let err = with_watchdog(Duration::from_secs(5), "probe", || {
            Err::<u32, _>("boom".to_string())
        });
        assert_eq!(err, Err("boom".to_string()));
    }

    #[test]
    fn watchdog_converts_a_hang_into_a_structured_error() {
        let hung = with_watchdog(Duration::from_millis(50), "service recovery probe", || {
            std::thread::sleep(Duration::from_secs(2));
            Ok(0u32)
        });
        let message = hung.expect_err("a hang must fail");
        assert!(message.contains("service recovery probe hung"), "{message}");
        assert!(message.contains("--probe-timeout"), "{message}");
    }

    #[test]
    fn probe_timeout_flag_parses_and_validates() {
        let args: Vec<String> = ["--probe-timeout", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_args(&args).expect("valid").expect("not help");
        assert_eq!(options.probe_timeout, Duration::from_secs(7));
        for bad in [
            &["--probe-timeout", "0"][..],
            &["--probe-timeout", "soon"][..],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&args).is_err(), "{bad:?} must be rejected");
        }
        let default = parse_args(&[]).expect("valid").expect("not help");
        assert_eq!(default.probe_timeout, Duration::from_secs(120));
    }
}
