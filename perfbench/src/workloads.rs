//! The four workloads. Each one sets its servers up (several times, for a
//! steady `setup_s`), runs its timed phase with no tracing from the
//! benchmark, verifies every answer outside the timed window, and reports
//! its end-to-end metrics plus the outside counters the per-layer report
//! uses.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::gen;
use crate::load::{self, Check, LoopResult, Oracle, Outgoing, CONNECTIONS};
use crate::procfs::{self, HostCpu};
use crate::prom::Snapshot;
use crate::server::{Fleet, Role, ServerProcess};
use crate::stats;

pub struct Ctx {
    pub reproduce: PathBuf,
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run yields.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Workload-property assertions: (description, held).
    pub checks: Vec<(String, bool)>,
    pub e2e: Vec<Metric>,
    /// Per-layer numbers read from outside the server (counters, `/proc`).
    pub outside: Vec<Metric>,
    /// Human-readable lines: the per-workload metric names, the host record.
    pub notes: Vec<String>,
    /// Client p50 of the single-connection probe (trace runs).
    pub probe_client_p50_us: f64,
    /// The probe's optimize body.
    pub probe_body: String,
    /// Served sweep jobs: (grid body without shards, seconds from submit
    /// to the last CSV byte).
    pub jobs: Vec<(String, f64)>,
    /// Client latency samples of the timed phase, ascending.
    pub latencies_us: Vec<f64>,
}

const WARM_SET: usize = 512;
/// Queries the cold set-up sends: the server's default cache capacity (not
/// overridden: the cold workload exists to measure the server at that
/// capacity) plus a margin that fills every cache shard (keys split over
/// shards by hash, ± a few hundred).
fn cold_fill() -> u64 {
    ayd_serve::ServerConfig::default().cache_capacity as u64 + 2_048
}
const FILL_BATCH: u64 = 1_024;
const BATCH_SIZE: u64 = 16;
/// Lease of the cluster coordinator: its dispatcher ticks at a quarter of
/// it, so 400 ms gives 100 ms ticks; workers heartbeat every 133 ms and are
/// only declared dead after 800 ms of silence.
const LEASE_MS: u64 = 400;
const WORKERS: usize = 2;
const CLUSTER_SHARDS: usize = 6;
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `prepare` `reps` times (each a fresh fleet, the earlier ones torn
/// down) and returns the last fleet with every set-up time.
fn set_up(
    reps: usize,
    mut prepare: impl FnMut() -> Result<Fleet, String>,
) -> Result<(Fleet, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut fleet = None;
    for _ in 0..reps {
        drop(fleet.take());
        let start = Instant::now();
        fleet = Some(prepare()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((fleet.expect("at least one set-up"), times))
}

/// Counters and host readings taken around a timed phase.
struct Window {
    metrics: Snapshot,
    cpu: Vec<f64>,
    host: HostCpu,
    started: Instant,
}

impl Window {
    fn open(fleet: &Fleet) -> Result<Self, String> {
        Ok(Self {
            metrics: fleet.front().metrics()?,
            cpu: fleet.cpu_seconds(),
            host: HostCpu::read(),
            started: Instant::now(),
        })
    }

    /// Closes the window: records the host and per-process CPU, the cache
    /// and search counters, and CPU per operation.
    fn close(self, fleet: &Fleet, ops: f64, report: &mut Report) -> Result<Snapshot, String> {
        let wall = self.started.elapsed().as_secs_f64();
        let host = HostCpu::read();
        let cpu: Vec<f64> = fleet
            .cpu_seconds()
            .iter()
            .zip(&self.cpu)
            .map(|(after, before)| after - before)
            .collect();
        let delta = fleet.front().metrics()?.delta(&self.metrics);
        let (steal, idle) = host.shares_since(&self.host);
        report.notes.push(format!(
            "host: {} steal={:.4} idle={:.4} over the timed phase",
            procfs::host_description(),
            steal,
            idle
        ));
        report.notes.push(format!(
            "server cpu seconds over the timed phase (pid order): {cpu:?} in {wall:.3} s"
        ));
        let hits = delta.get("ayd_cache_hits_total");
        let misses = delta.get("ayd_cache_misses_total");
        let evictions = delta.get("ayd_cache_evictions_total");
        let fast = delta.get("ayd_search_fast_total");
        let fallback = delta.get("ayd_search_fallback_total");
        let brent = delta.get("ayd_search_brent_iterations_total");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        report.outside.extend([
            metric(
                "serve.cpu_us_per_op",
                ratio(cpu.iter().sum::<f64>() * 1e6, ops),
                "us",
            ),
            metric("sweep.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
            metric(
                "sweep.cache.evictions_per_miss",
                ratio(evictions, misses),
                "ratio",
            ),
            metric(
                "optim.fallback_ratio",
                ratio(fallback, fast + fallback),
                "ratio",
            ),
            metric(
                "optim.brent_iters_per_eval",
                ratio(brent, fast + fallback),
                "count",
            ),
        ]);
        report.notes.push(format!(
            "cache over the timed phase: hits={hits} misses={misses} evictions={evictions}"
        ));
        let workers: f64 = cpu.iter().skip(1).sum();
        let busy = if fleet.servers.len() > 1 {
            workers / ((fleet.servers.len() - 1) as f64 * wall)
        } else {
            0.0
        };
        report.outside.extend([
            metric(
                "cluster.dispatches",
                delta.get("ayd_shards_dispatched_total"),
                "count",
            ),
            metric(
                "cluster.reissues",
                delta.get("ayd_shard_reissues_total"),
                "count",
            ),
            metric("cluster.worker_busy_ratio", busy, "ratio"),
        ]);
        Ok(delta)
    }
}

/// The shared tail of every workload: peak RSS, and in trace runs the
/// single-connection probe that gives the I/O-layer numbers.
fn finish(ctx: &Ctx, fleet: &Fleet, setup: &[f64], report: &mut Report) -> Result<(), String> {
    if ctx.trace {
        probe(ctx, fleet, report)?;
    }
    report
        .e2e
        .push(metric("setup_s", stats::median(setup), "s"));
    report.notes.push(format!("setup_s samples: {setup:?}"));
    report
        .e2e
        .push(metric("server_rss_mb", fleet.peak_rss_mib(), "MiB"));
    report.latencies_us.sort_by(f64::total_cmp);
    let samples = &report.latencies_us;
    if let Some((p, value, n)) = stats::tail(samples) {
        report.notes.push(format!(
            "client tail: p{p} = {value:.1} us over {n} samples"
        ));
    }
    // Not gated, so reported whatever the sample supports; the count
    // beside them says how far to trust them.
    report.outside.extend([
        metric("client.p99_us", stats::quantile_sorted(samples, 0.99), "us"),
        metric(
            "client.p999_us",
            stats::quantile_sorted(samples, 0.999),
            "us",
        ),
        metric("client.samples", samples.len() as f64, "count"),
    ]);
    Ok(())
}

/// Trace runs only, after the timed phase: 2,000 warm optimize requests on
/// one connection (client latency vs the server's own request histogram),
/// then one
/// small served sweep for the job-overhead number on workloads without
/// jobs of their own.
fn probe(ctx: &Ctx, fleet: &Fleet, report: &mut Report) -> Result<(), String> {
    let server = fleet.front();
    let body = gen::warm_queries(ctx.seed, 1)[0].body.clone();
    let mut client = server.client()?;
    let warm = client.post_json("/v1/optimize", &body);
    if !matches!(warm, Ok(ref r) if r.status == 200) {
        return Err("probe warm-up request failed".to_string());
    }
    let before = server.metrics()?;
    let mut latencies = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let sent = Instant::now();
        let response = client
            .post_json("/v1/optimize", &body)
            .map_err(|e| format!("probe: {e}"))?;
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
        if response.status != 200 {
            return Err(format!("probe: status {}", response.status));
        }
    }
    let delta = server.metrics()?.delta(&before);
    // The scrape itself lands in the histogram after the snapshot is taken,
    // so the delta holds exactly the probe's requests. Its mean, not a
    // quantile: the first bucket spans 0-100 us, where warm requests fall.
    let server_mean = delta.get("ayd_request_duration_seconds_sum")
        / delta.get("ayd_request_duration_seconds_count")
        * 1e6;
    let client_mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    report.probe_client_p50_us = stats::median(&latencies);
    report.probe_body = body;
    report.outside.extend([
        metric("serve.server_mean_us", server_mean, "us"),
        metric("obs.client_gap_us", client_mean - server_mean, "us"),
    ]);
    if report.jobs.is_empty() {
        let grid = gen::small_grid_body(ctx.seed);
        let run = load::run_job(&mut client, &grid, JOB_TIMEOUT)?;
        report.jobs.push((grid, run.seconds));
    }
    Ok(())
}

fn standalone(ctx: &Ctx) -> Result<ServerProcess, String> {
    ServerProcess::spawn(&ctx.reproduce, Role::Standalone)
}

/// The central estimate of a run's samples (slices or jobs).
fn central(samples: &[f64]) -> f64 {
    stats::trimmed_mean(samples, stats::TRIM)
}

fn absorb_loop(report: &mut Report, result: &LoopResult) {
    report.attempted += result.attempted;
    report.failed += result.failed + result.mismatched;
    report.notes.push(format!(
        "requests resent after the server closed a keep-alive connection unannounced: {}",
        result.reconnects
    ));
}

/// Throughput and p50 of an optimize loop: trimmed means over its one-second
/// slices under the generic names every workload reports, the whole-run
/// figures under the per-workload names.
fn optimize_metrics(report: &mut Report, result: &LoopResult) {
    let slices = result.slices();
    let rates: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let p50s: Vec<f64> = slices.iter().map(|s| s.1).collect();
    report
        .e2e
        .push(metric("throughput_per_s", central(&rates), "1/s"));
    report.e2e.push(metric("latency_us", central(&p50s), "us"));
    report.notes.push(format!(
        "per-second slices (answers/s): {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    let mut sorted = result.latencies_us.clone();
    sorted.sort_by(f64::total_cmp);
    let rps = result.ok as f64 / result.elapsed_s;
    report.notes.push(format!("optimize_rps {rps:.1} 1/s"));
    report.notes.push(format!(
        "optimize_p50_us {:.2} us ({} samples)",
        stats::quantile_sorted(&sorted, 0.5),
        sorted.len()
    ));
    if let Some(p99) = stats::percentile_if_supported(&sorted, 99.0) {
        report.notes.push(format!(
            "optimize_p99_us {p99:.2} us ({} samples)",
            sorted.len()
        ));
    }
    report.latencies_us = sorted;
}

pub fn optimize_warm(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let queries = gen::warm_queries(ctx.seed, WARM_SET);
    let oracle = Oracle::new();
    let expected: Vec<String> = queries
        .iter()
        .map(|q| oracle.answer("/v1/optimize", &q.body, q.csv).1)
        .collect();
    let mut setup_failed = 0;
    let (fleet, setup) = set_up(9, || {
        let server = standalone(ctx)?;
        let mut client = server.client()?;
        for (q, want) in queries.iter().zip(&expected) {
            let response = client
                .request(
                    "POST",
                    "/v1/optimize",
                    q.csv.then_some("text/csv"),
                    Some(&q.body),
                )
                .map_err(|e| format!("warm fill: {e}"))?;
            if response.status != 200 || &response.body != want {
                setup_failed += 1;
            }
        }
        Ok(Fleet {
            servers: vec![server],
        })
    })?;
    let window = Window::open(&fleet)?;
    let make = |connection: usize, k: u64| {
        let key = (connection as u64 * WARM_SET as u64 / 2 + k) % WARM_SET as u64;
        let q = &queries[key as usize];
        Outgoing {
            body: q.body.clone(),
            csv: q.csv,
            key,
        }
    };
    let result = load::closed_loop(
        &fleet.front().addr,
        "/v1/optimize",
        (Duration::from_secs(ctx.seconds), u64::MAX),
        &make,
        &Check::Expected(&expected),
    )?;
    let delta = window.close(&fleet, result.ok as f64, &mut report)?;
    absorb_loop(&mut report, &result);
    report.failed += setup_failed;
    let hits = delta.get("ayd_cache_hits_total");
    let misses = delta.get("ayd_cache_misses_total");
    report.checks.push((
        format!(
            "warm hit ratio {:.5} >= 0.99",
            hits / (hits + misses).max(1.0)
        ),
        hits / (hits + misses).max(1.0) >= 0.99,
    ));
    optimize_metrics(&mut report, &result);
    finish(ctx, &fleet, &setup, &mut report)?;
    Ok(report)
}

pub fn optimize_cold(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = ctx.seed;
    let (fleet, setup) = set_up(3, || {
        let server = standalone(ctx)?;
        fill_cold(&server, seed)?;
        Ok(Fleet {
            servers: vec![server],
        })
    })?;
    let window = Window::open(&fleet)?;
    let fill = cold_fill();
    let make = |connection: usize, k: u64| {
        let key = fill + k * CONNECTIONS as u64 + connection as u64;
        Outgoing {
            body: gen::cold_query(seed, key),
            csv: false,
            key,
        }
    };
    let result = load::closed_loop(
        &fleet.front().addr,
        "/v1/optimize",
        (Duration::from_secs(ctx.seconds), u64::MAX),
        &make,
        &Check::Keep,
    )?;
    let delta = window.close(&fleet, result.ok as f64, &mut report)?;
    optimize_metrics(&mut report, &result);
    finish(ctx, &fleet, &setup, &mut report)?;
    drop(fleet);
    let oracle = Oracle::new();
    let mismatched = load::verify_kept(&oracle, "/v1/optimize", &result.kept, &|key| {
        gen::cold_query(seed, key)
    });
    absorb_loop(&mut report, &result);
    report.failed += mismatched;
    let hits = delta.get("ayd_cache_hits_total");
    let misses = delta.get("ayd_cache_misses_total");
    let per_miss = delta.get("ayd_cache_evictions_total") / misses.max(1.0);
    report
        .checks
        .push((format!("cold cache hits {hits} == 0"), hits == 0.0));
    report.checks.push((
        format!("cold evictions per miss {per_miss:.4} >= 0.99"),
        per_miss >= 0.99,
    ));
    Ok(report)
}

/// Fills the server's cache through `/v1/batch` with the first
/// [`cold_fill`] queries of the cold stream, on both connections.
fn fill_cold(server: &ServerProcess, seed: u64) -> Result<(), String> {
    let fill = cold_fill();
    let batches = fill.div_ceil(FILL_BATCH);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|connection| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = server.client()?;
                    for b in (connection..batches).step_by(CONNECTIONS) {
                        let from = b * FILL_BATCH;
                        let body = gen::batch_body(seed, true, from, FILL_BATCH.min(fill - from));
                        let response = client
                            .post_json("/v1/batch", &body)
                            .map_err(|e| format!("cold fill: {e}"))?;
                        if response.status != 200 {
                            return Err(format!("cold fill: status {}", response.status));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("fill thread panicked"))
    })
}

/// Served sweep jobs per run (bulk-sweep alternates unsharded and 3-shard
/// jobs). A fixed count, not a time budget: the registry retains finished
/// results, so peak RSS must not depend on how fast the server is.
const BULK_JOBS: usize = 16;
const CLUSTER_JOBS: usize = 10;

/// Distinct batch queries of bulk-sweep at most: below the default cache
/// capacity, so the batch phase never reaches the eviction cliff.
const BATCH_QUERIES: u64 = 60_000;

pub fn bulk_sweep(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = ctx.seed;
    let grid = gen::grid_body(seed);
    let sharded = gen::sharded(&grid, 3);
    let expected_csv = ayd_serve::client::engine_sweep_csv(&grid)?;
    let (fleet, setup) = set_up(25, || {
        let server = standalone(ctx)?;
        let health = server
            .client()?
            .get("/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz: status {}", health.status));
        }
        Ok(Fleet {
            servers: vec![server],
        })
    })?;
    let window = Window::open(&fleet)?;
    let mut client = fleet.front().client()?;
    let (mut plain, mut split) = ((0.0, 0usize), (0.0, 0usize));
    let mut polls = 0;
    for job in 0..BULK_JOBS {
        let body = if job % 2 == 0 { &grid } else { &sharded };
        let run = load::run_job(&mut client, body, JOB_TIMEOUT)?;
        report.attempted += 1;
        if run.csv != expected_csv {
            report.failed += 1;
        }
        polls += run.polls;
        let total = if job % 2 == 0 { &mut plain } else { &mut split };
        total.0 += run.seconds;
        total.1 += gen::GRID_CELLS;
        report.jobs.push((grid.clone(), run.seconds));
    }
    report.notes.push(format!(
        "job seconds (unsharded, sharded alternating): {:?}",
        report.jobs.iter().map(|j| j.1).collect::<Vec<_>>()
    ));
    // The batch phase fills the rest of the run, up to BATCH_QUERIES.
    let remaining = Duration::from_secs(ctx.seconds).saturating_sub(window.started.elapsed());
    let make = |connection: usize, k: u64| {
        let key = k * CONNECTIONS as u64 + connection as u64;
        Outgoing {
            body: gen::batch_body(seed, false, key * BATCH_SIZE, BATCH_SIZE),
            csv: false,
            key,
        }
    };
    let batch = load::closed_loop(
        &fleet.front().addr,
        "/v1/batch",
        (
            remaining.max(Duration::from_secs(1)),
            BATCH_QUERIES / BATCH_SIZE / CONNECTIONS as u64,
        ),
        &make,
        &Check::Keep,
    )?;
    let ops = (plain.1 + split.1) as f64 + (batch.ok * BATCH_SIZE) as f64;
    window.close(&fleet, ops, &mut report)?;
    report.latencies_us = batch.latencies_us.clone();
    finish(ctx, &fleet, &setup, &mut report)?;
    drop(fleet);
    let oracle = Oracle::new();
    let mismatched = load::verify_kept(&oracle, "/v1/batch", &batch.kept, &|key| {
        gen::batch_body(seed, false, key * BATCH_SIZE, BATCH_SIZE)
    });
    absorb_loop(&mut report, &batch);
    report.failed += mismatched;
    let rates: Vec<f64> = report
        .jobs
        .iter()
        .map(|j| gen::GRID_CELLS as f64 / j.1)
        .collect();
    let cells_per_s = central(&rates);
    let sorted = &report.latencies_us;
    let batch_p50 = stats::quantile_sorted(sorted, 0.5);
    let slice_p50s: Vec<f64> = batch.slices().iter().map(|s| s.1).collect();
    report
        .e2e
        .push(metric("throughput_per_s", cells_per_s, "1/s"));
    report
        .e2e
        .push(metric("latency_us", central(&slice_p50s), "us"));
    report.notes.extend([
        format!("sweep_cells_per_s {:.1} 1/s", plain.1 as f64 / plain.0),
        format!("sharded_cells_per_s {:.1} 1/s", split.1 as f64 / split.0),
        format!(
            "batch_queries_per_s {:.1} 1/s",
            (batch.ok * BATCH_SIZE) as f64 / batch.elapsed_s
        ),
        format!(
            "batch request p50 {batch_p50:.1} us ({} samples of {BATCH_SIZE} queries)",
            sorted.len()
        ),
        format!("sweep status polls: {polls}"),
    ]);
    Ok(report)
}

pub fn cluster_sweep(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = ctx.seed;
    let grid = gen::grid_body(seed);
    let distributed = gen::sharded(&grid, CLUSTER_SHARDS);
    let expected_csv = ayd_serve::client::engine_sweep_csv(&grid)?;
    let spool_root = ctx.out.join(format!("spool-{}", std::process::id()));
    let mut generation = 0;
    let (fleet, setup) = set_up(25, || {
        let coordinator =
            ServerProcess::spawn(&ctx.reproduce, Role::Coordinator { lease_ms: LEASE_MS })?;
        let mut servers = vec![];
        for w in 0..WORKERS {
            generation += 1;
            servers.push(ServerProcess::spawn(
                &ctx.reproduce,
                Role::Worker {
                    coordinator: &coordinator.addr,
                    spool: spool_root.join(format!("{generation}-{w}")),
                },
            )?);
        }
        coordinator.await_workers(WORKERS, Duration::from_secs(30))?;
        servers.insert(0, coordinator);
        Ok(Fleet { servers })
    })?;
    let window = Window::open(&fleet)?;
    let mut client = fleet.front().client()?;
    let mut turnaround = Vec::new();
    for _ in 0..CLUSTER_JOBS {
        let run = load::run_job(&mut client, &distributed, JOB_TIMEOUT)?;
        report.attempted += 1;
        if run.csv != expected_csv {
            report.failed += 1;
        }
        turnaround.push(run.seconds);
        report.jobs.push((grid.clone(), run.seconds));
    }
    let cells = (turnaround.len() * gen::GRID_CELLS) as f64;
    let delta = window.close(&fleet, cells, &mut report)?;
    report.latencies_us = turnaround.iter().map(|s| s * 1e6).collect();
    finish(ctx, &fleet, &setup, &mut report)?;
    drop(fleet);
    let _ = std::fs::remove_dir_all(&spool_root);
    let reissues = delta.get("ayd_shard_reissues_total");
    report.checks.push((
        format!("cluster re-issues {reissues} == 0"),
        reissues == 0.0,
    ));
    let total: f64 = turnaround.iter().sum();
    let rates: Vec<f64> = turnaround
        .iter()
        .map(|s| gen::GRID_CELLS as f64 / s)
        .collect();
    report
        .e2e
        .push(metric("throughput_per_s", central(&rates), "1/s"));
    report
        .e2e
        .push(metric("latency_us", central(&turnaround) * 1e6, "us"));
    report.notes.extend([
        format!("sharded_cells_per_s {:.1} 1/s", cells / total),
        format!("distributed job turnaround (s): {turnaround:?}"),
    ]);
    Ok(report)
}
