//! The traced replay: the run's generated inputs sent in-process through the
//! public functions of ayd-serve, ayd-sweep, ayd-optim, ayd-core and
//! ayd-obs, with spans recorded by the benchmark's own [`Tracer`]. Every
//! trace run replays the inputs of all four workloads for its seed, so each
//! one reports the full per-layer set; the outside counters (cache, search,
//! cluster, `/proc`) come from the run's own servers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ayd_core::{ExactModel, FailureModelSpec, FirstOrder};
use ayd_platforms::{ExperimentSetup, Platform, PlatformId, ScenarioId};
use ayd_serve::coordinator::Coordinator;
use ayd_serve::{api, http, AppState, Json, ServerConfig};
use ayd_sweep::{
    csv_line, merge_parts, AnalyticEval, CacheKey, Evaluator, RunOptions, ScenarioGrid,
    SearchReport, ShardChunk, ShardPart, ShardSpec, ShardedEvalCache, SweepExecutor, SweepManifest,
    SweepOptions, SweepRow, CSV_HEADER,
};

use crate::gen;
use crate::load::{post, post_bytes};
use crate::stats::median;
use crate::trace::{self_times_ns, Tracer};
use crate::workloads::{metric, Ctx, Metric, Report};

/// Replayed passes over the warm set (512 requests each).
const PIPELINE_PASSES: usize = 4;
/// Operations per batch-timed micro-measurement.
const MICRO_OPS: u64 = 200_000;
/// Distributed shard count and the workers' chunk size for it
/// (`cells / 16` clamped to 16..=512, as the worker runtime picks it).
const SHARDS: usize = 6;
const MERGE_SHARDS: usize = 3;

pub fn per_layer(ctx: &Ctx, workload: &str, report: &Report) -> Result<Vec<Metric>, String> {
    // As `Server::bind` does: the service records its spans into the ring.
    ayd_obs::enable();
    let mut out: Vec<Metric> = report.outside.clone();
    let mut tracer = Tracer::new(true);
    let state = AppState::new(&ServerConfig::default());

    let pipeline = pipeline(ctx, &state, &mut tracer, &mut out)?;
    let route_probe = route_probe(&state, &report.probe_body);
    out.push(metric(
        "serve.io_us",
        report.probe_client_p50_us - route_probe,
        "us",
    ));
    micro_recording(&state, &mut out);
    cache_layer(ctx, &mut tracer, &mut out)?;
    optimiser(ctx, &state, &mut tracer, &mut out)?;
    let engine = engine(ctx, &state, report, &mut tracer, &mut out)?;
    batch(ctx, &state, &mut tracer, &mut out)?;
    cluster(&state, &engine, &mut tracer, &mut out)?;
    out.push(metric(
        "bench.trace_overhead_ratio",
        pipeline.traced_s / pipeline.untraced_s,
        "ratio",
    ));

    let path = ctx.out.join(format!("trace-{workload}-{}.jsonl", ctx.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(out)
}

fn per_call_us(own: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    own.get(name).map_or(f64::NAN, |v| median(v) / 1e3)
}

/// Times `ops` iterations of `f` as one span: per-operation cost without a
/// clock read per call.
fn batch_timed(tracer: &mut Tracer, name: &'static str, ops: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    tracer.span(name, |_| {
        for i in 0..ops {
            f(i);
        }
    });
    start.elapsed().as_secs_f64() / ops as f64
}

struct PipelineTimes {
    traced_s: f64,
    untraced_s: f64,
}

/// The request pipeline on the warm set, stage by stage: HTTP parse, the
/// opaque `api::route`, response rendering; then route's own stages (JSON
/// parse, query parse, warm evaluation, body render) under a second root of
/// the same trace id; then the whole connection pipeline (`serve_chunks`).
/// Run once untraced and once traced for the overhead ratio.
fn pipeline(
    ctx: &Ctx,
    state: &Arc<AppState>,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<PipelineTimes, String> {
    let queries = gen::warm_queries(ctx.seed, 512);
    let bytes: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| post_bytes("/v1/optimize", &q.body, q.csv))
        .collect();
    for q in &queries {
        // Warm the cache: every replayed evaluation is a hit, as on the
        // optimize-warm workload.
        api::route(state, &post("/v1/optimize", &q.body, q.csv));
    }
    let shutdown = AtomicBool::new(false);
    let start_trace = tracer.spans().len();
    let replay = |tracer: &mut Tracer| -> Result<(), String> {
        for pass in 0..PIPELINE_PASSES {
            for (i, (q, raw)) in queries.iter().zip(&bytes).enumerate() {
                tracer.set_trace((pass * queries.len() + i) as u64 + 1);
                tracer.span("serve.request", |t| -> Result<(), String> {
                    let req = t
                        .span("serve.http.parse", |_| {
                            http::parse_request(&mut Cursor::new(raw), &state.limits)
                        })
                        .map_err(|e| format!("replay parse: {e:?}"))?;
                    let (_, response) = t.span("serve.api.route", |_| api::route(state, &req));
                    t.span("serve.http.render", |_| black_box(response.to_bytes(true)));
                    Ok(())
                })?;
                tracer.span("serve.route.stages", |t| -> Result<(), String> {
                    let body = t
                        .span("serve.json.parse", |_| Json::parse(&q.body))
                        .map_err(|e| format!("replay json: {e:?}"))?;
                    let query = t
                        .span("serve.api.parse_optimize", |_| api::parse_optimize(&body))
                        .map_err(|e| format!("replay query: {}", e.reason))?;
                    let row = t.span("serve.api.evaluate", |_| api::evaluate_query(state, &query));
                    t.span("serve.json.render", |_| {
                        if q.csv {
                            black_box(api::rows_csv(std::slice::from_ref(&row)));
                        } else {
                            black_box(api::row_json(&row).render());
                        }
                    });
                    Ok(())
                })?;
                tracer.span("serve.conn.pipeline", |_| {
                    black_box(ayd_serve::serve_chunks(&[raw.as_slice()], state, &shutdown))
                });
            }
        }
        Ok(())
    };
    let mut untraced = Tracer::new(false);
    let started = Instant::now();
    replay(&mut untraced)?;
    let untraced_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    replay(tracer)?;
    let traced_s = started.elapsed().as_secs_f64();

    let own = self_times_ns(&tracer.spans()[start_trace..]);
    let stage = |name| per_call_us(&own, name);
    let route = stage("serve.api.route");
    let inside_route = stage("serve.json.parse")
        + stage("serve.api.parse_optimize")
        + stage("serve.api.evaluate")
        + stage("serve.json.render");
    out.extend([
        metric("serve.conn.pipeline_us", stage("serve.conn.pipeline"), "us"),
        metric("serve.http.parse_us", stage("serve.http.parse"), "us"),
        metric("serve.json.parse_us", stage("serve.json.parse"), "us"),
        metric(
            "serve.api.parse_optimize_us",
            stage("serve.api.parse_optimize"),
            "us",
        ),
        metric(
            "serve.api.evaluate_hit_us",
            stage("serve.api.evaluate"),
            "us",
        ),
        metric("serve.json.render_us", stage("serve.json.render"), "us"),
        metric("serve.http.render_us", stage("serve.http.render"), "us"),
        metric("serve.api.route_us", route, "us"),
        metric("serve.layer_sum_ratio", inside_route / route, "ratio"),
    ]);
    Ok(PipelineTimes {
        traced_s,
        untraced_s,
    })
}

/// Median in-process `api::route` time of the probe's request, the base of
/// `serve.io_us`.
fn route_probe(state: &Arc<AppState>, body: &str) -> f64 {
    let req = post("/v1/optimize", body, false);
    api::route(state, &req);
    let times: Vec<f64> = (0..2_000)
        .map(|_| {
            let start = Instant::now();
            black_box(api::route(state, &req));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Per-request bookkeeping a served request pays outside the handler:
/// metrics recording and one span into the global ring, on one thread and
/// on two threads at once (the 2-thread figure is each thread's cost per
/// operation under contention).
fn micro_recording(state: &Arc<AppState>, out: &mut Vec<Metric>) {
    let metrics_op = |_: u64| {
        state.metrics.request_started("optimize");
        state
            .metrics
            .observe("optimize", 200, Duration::from_micros(50));
        state.metrics.request_finished("optimize");
    };
    let span_op = |_: u64| ayd_obs::span("bench.span").finish();
    let on_threads = |threads: usize, op: &(dyn Fn(u64) + Sync)| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| (0..MICRO_OPS).for_each(op));
            }
        });
        start.elapsed().as_secs_f64() / MICRO_OPS as f64 * 1e9
    };
    out.extend([
        metric("serve.metrics.record_ns", on_threads(1, &metrics_op), "ns"),
        metric(
            "serve.metrics.record_2t_ns",
            on_threads(2, &metrics_op),
            "ns",
        ),
        metric("obs.span_ns", on_threads(1, &span_op), "ns"),
        metric("obs.span_2t_ns", on_threads(2, &span_op), "ns"),
    ]);
}

/// A cache key of the same shape as the service's (20 inputs).
fn key(seed: u64, i: u64) -> CacheKey {
    let mut rng = gen::Rng::for_item(seed, 9, i);
    let inputs: Vec<f64> = (0..20).map(|_| rng.unit()).collect();
    CacheKey::from_inputs(&inputs)
}

/// The process-wide cache as the server sizes it (shards for two threads,
/// the default capacity): hits, inserts into an empty cache, and inserts
/// into a full one, which pay the LRU victim scan.
fn cache_layer(ctx: &Ctx, tracer: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    let value = sample_eval(ctx)?;
    let capacity = ServerConfig::default().cache_capacity;
    let shards = ayd_sweep::cache_shards(2);
    let keys = |from: u64, count: u64| -> Vec<CacheKey> {
        (from..from + count).map(|i| key(ctx.seed, i)).collect()
    };
    let empty: ShardedEvalCache<AnalyticEval> = ShardedEvalCache::new(shards, capacity);
    let mut fresh = keys(0, 8_192).into_iter();
    let empty_s = batch_timed(tracer, "sweep.cache.insert_empty", 8_192, |_| {
        let k = fresh.next().expect("one key per insert");
        black_box(empty.get_or_insert_with(k, || value));
    });
    let full: ShardedEvalCache<AnalyticEval> = ShardedEvalCache::new(shards, capacity);
    let fill = capacity as u64 + 2_048;
    for k in keys(0, fill) {
        full.get_or_insert_with(k, || value);
    }
    let mut fresh = keys(fill, 1_000).into_iter();
    let full_s = batch_timed(tracer, "sweep.cache.insert_full", 1_000, |_| {
        let k = fresh.next().expect("one key per insert");
        black_box(full.get_or_insert_with(k, || value));
    });
    let keys = keys(fill + 1_000, 4_096);
    for k in &keys {
        full.get_or_insert_with(k.clone(), || value);
    }
    let hit_s = batch_timed(tracer, "sweep.cache.hit", MICRO_OPS, |i| {
        let k = keys[(i % keys.len() as u64) as usize].clone();
        black_box(full.get_or_insert_with(k, || unreachable!("every key is cached")));
    });
    out.extend([
        metric("sweep.cache.hit_ns", hit_s * 1e9, "ns"),
        metric("sweep.cache.insert_full_us", full_s * 1e6, "us"),
        metric("sweep.cache.insert_empty_us", empty_s * 1e6, "us"),
    ]);
    Ok(())
}

/// One analytic evaluation, the cache's value type.
fn sample_eval(ctx: &Ctx) -> Result<AnalyticEval, String> {
    let (model, fixed, failure) = query_inputs(&gen::cold_query(ctx.seed, 0))?;
    let options = SweepOptions::new(RunOptions {
        simulate: false,
        ..RunOptions::default()
    });
    Ok(ayd_sweep::evaluate_analytic(
        &model, fixed, &failure, &options, None,
    ))
}

/// The model inputs of a generated optimize body, built the way
/// `api::parse_optimize` builds them for the fields the generator uses.
fn query_inputs(body: &str) -> Result<(ExactModel, Option<f64>, FailureModelSpec), String> {
    let doc = Json::parse(body).map_err(|e| format!("query json: {e:?}"))?;
    let field = |key: &str| doc.get(key).and_then(Json::as_f64);
    let platform = doc
        .get("platform")
        .and_then(Json::as_str)
        .and_then(PlatformId::parse)
        .ok_or("query platform")?;
    let scenario = field("scenario")
        .and_then(|n| ScenarioId::from_number(n as usize))
        .ok_or("query scenario")?;
    let profile =
        api::parse_profile(doc.get("profile").ok_or("query profile")?).map_err(|e| e.reason)?;
    let multiplier = field("lambda_multiplier").ok_or("query multiplier")?;
    let model = ExperimentSetup::paper_default(platform, scenario)
        .with_profile(profile)
        .with_lambda_ind(Platform::get(platform).lambda_ind * multiplier)
        .model()
        .map_err(|e| e.to_string())?;
    Ok((model, field("processors"), FailureModelSpec::exponential()))
}

/// The cold path's mathematics on the cold stream: seeded joint and
/// fixed-`P` searches, the first-order closed forms and the exact overhead
/// kernel (the last two batch-timed).
fn optimiser(
    ctx: &Ctx,
    state: &Arc<AppState>,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let inputs: Vec<(ExactModel, Option<f64>, FailureModelSpec)> = (0..400)
        .map(|i| query_inputs(&gen::cold_query(ctx.seed, 1_000_000 + i)))
        .collect::<Result<_, _>>()?;
    let evaluator = Evaluator::new(state.options.run);
    let strict = state.options.run.search.is_strict();
    let first = tracer.spans().len();
    for (i, (model, fixed, _)) in inputs.iter().enumerate() {
        tracer.set_trace(i as u64 + 1);
        let mut report = SearchReport::default();
        match fixed {
            None => tracer.span("optim.seeded_joint", |_| {
                black_box(evaluator.numerical_point_seeded(model, strict, &mut report));
            }),
            Some(p) => tracer.span("optim.seeded_period", |_| {
                black_box(evaluator.numerical_period_for_seeded(model, *p, strict, &mut report));
            }),
        }
    }
    let own = self_times_ns(&tracer.spans()[first..]);
    let models: Vec<ExactModel> = inputs.iter().map(|i| i.0).collect();
    let n = models.len() as u64;
    let first_order_s = batch_timed(tracer, "core.first_order", 50 * n, |i| {
        black_box(
            FirstOrder::new(&models[(i % n) as usize])
                .joint_optimum()
                .ok(),
        );
    });
    let overhead_s = batch_timed(tracer, "core.exact_overhead", MICRO_OPS, |i| {
        let model = &models[(i % n) as usize];
        let p = 16.0 + (i % 4_096) as f64 * 64.0;
        let t = 600.0 + (i % 997) as f64 * 50.0;
        black_box(model.expected_overhead(black_box(t), black_box(p)));
    });
    out.extend([
        metric(
            "optim.seeded_joint_us",
            per_call_us(&own, "optim.seeded_joint"),
            "us",
        ),
        metric(
            "optim.seeded_period_us",
            per_call_us(&own, "optim.seeded_period"),
            "us",
        ),
        metric("core.first_order_ns", first_order_s * 1e9, "ns"),
        metric("core.exact_overhead_ns", overhead_s * 1e9, "ns"),
    ]);
    Ok(())
}

/// What the engine replay leaves for the cluster replay.
struct Engine {
    grid: ScenarioGrid,
    grid_json: String,
    options: SweepOptions,
    rows: Vec<SweepRow>,
}

fn parse_grid(body: &str) -> Result<ScenarioGrid, String> {
    let doc = Json::parse(body).map_err(|e| format!("grid json: {e:?}"))?;
    api::parse_grid(&doc).map_err(|e| e.reason)
}

/// The sweep engine on the run's grid, as a served job runs it: the
/// executor, its per-run cache, CSV rendering and the shard merge; and the
/// served jobs' overhead over the in-process executor time.
fn engine(
    ctx: &Ctx,
    state: &Arc<AppState>,
    report: &Report,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<Engine, String> {
    let grid_json = gen::grid_body(ctx.seed);
    let grid = parse_grid(&grid_json)?;
    let options = state.options;
    let executor = SweepExecutor::new(options);
    let started = Instant::now();
    let results = tracer.span("sweep.executor.run", |_| executor.run(&grid));
    let run_s = started.elapsed().as_secs_f64();
    let rows = results.rows;
    let render_s = batch_timed(tracer, "sweep.csv.render", rows.len() as u64, |i| {
        black_box(csv_line(&rows[i as usize]));
    });
    let full_csv = {
        let mut csv = String::from(CSV_HEADER);
        csv.push('\n');
        for row in &rows {
            csv.push_str(&csv_line(row));
            csv.push('\n');
        }
        csv
    };
    let parts: Vec<ShardPart> = (0..MERGE_SHARDS)
        .map(|index| {
            let spec = ShardSpec::new(index, MERGE_SHARDS).expect("valid shard");
            let mut csv = String::from(CSV_HEADER);
            csv.push('\n');
            for row in rows.iter().skip(index).step_by(MERGE_SHARDS) {
                csv.push_str(&csv_line(row));
                csv.push('\n');
            }
            ShardPart {
                manifest: SweepManifest::complete(&grid, &options, spec),
                csv,
            }
        })
        .collect();
    let started = Instant::now();
    let merged = tracer
        .span("sweep.merge_parts", |_| merge_parts(&parts))
        .map_err(|e| format!("merge: {e:?}"))?;
    let merge_s = started.elapsed().as_secs_f64();
    if merged != full_csv {
        return Err("replay: merged shards differ from the unsharded CSV".to_string());
    }
    // Served jobs against the in-process executor on the same grid.
    let mut in_process: BTreeMap<&str, f64> = BTreeMap::new();
    in_process.insert(grid_json.as_str(), run_s);
    let mut overheads = Vec::new();
    for (body, served_s) in &report.jobs {
        let base = match in_process.get(body.as_str()) {
            Some(&s) => s,
            None => {
                let small = parse_grid(body)?;
                let started = Instant::now();
                tracer.span("sweep.executor.run", |_| black_box(executor.run(&small)));
                let s = started.elapsed().as_secs_f64();
                in_process.insert(body.as_str(), s);
                s
            }
        };
        overheads.push((served_s - base) * 1e3);
    }
    out.extend([
        metric(
            "sweep.executor.cells_per_s",
            grid.len() as f64 / run_s,
            "1/s",
        ),
        metric(
            "sweep.run_cache.hit_ratio",
            results.cache.hit_rate(),
            "ratio",
        ),
        metric("sweep.csv.render_ns_per_row", render_s * 1e9, "ns"),
        metric("sweep.merge_parts_ms", merge_s * 1e3, "ms"),
        metric("serve.app.job_overhead_ms", median(&overheads), "ms"),
    ]);
    Ok(Engine {
        grid,
        grid_json,
        options,
        rows,
    })
}

/// `/v1/batch`'s evaluation step: `evaluate_many` over chunks of eight
/// distinct batch-stream queries, into a fresh cache (every query misses).
fn batch(
    ctx: &Ctx,
    state: &Arc<AppState>,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let queries: Vec<(ExactModel, Option<f64>, FailureModelSpec)> = (0..2_048)
        .map(|i| query_inputs(&gen::batch_query(ctx.seed, 1_000_000 + i)))
        .collect::<Result<_, _>>()?;
    let cache: ShardedEvalCache<AnalyticEval> = ShardedEvalCache::new(
        ayd_sweep::cache_shards(2),
        ServerConfig::default().cache_capacity,
    );
    let started = Instant::now();
    tracer.span("serve.batch.evaluate_many", |_| {
        for chunk in queries.chunks(8) {
            black_box(ayd_sweep::evaluate_many(
                chunk,
                &state.options,
                Some(&cache),
            ));
        }
    });
    let per_query = started.elapsed().as_secs_f64() / queries.len() as f64;
    out.push(metric(
        "serve.batch.evaluate_many_us_per_query",
        per_query * 1e6,
        "us",
    ));
    Ok(())
}

/// The cluster's data path on the run's grid: every shard's rows framed as
/// the workers frame them, rendered and parsed, and accepted by an
/// in-process coordinator that has dispatched all six shards.
fn cluster(
    state: &Arc<AppState>,
    engine: &Engine,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let cells = engine.grid.len();
    let chunk_rows = (ShardSpec::new(0, SHARDS)
        .expect("valid shard")
        .cell_count(cells)
        / 16)
        .clamp(16, 512);
    let mut chunks: Vec<(usize, ShardChunk)> = Vec::new();
    for index in 0..SHARDS {
        let spec = ShardSpec::new(index, SHARDS).expect("valid shard");
        let shard_rows: Vec<String> = engine
            .rows
            .iter()
            .skip(index)
            .step_by(SHARDS)
            .map(|row| csv_line(row) + "\n")
            .collect();
        let mut manifest = SweepManifest::new(&engine.grid, &engine.options, spec);
        for (k, piece) in shard_rows.chunks(chunk_rows).enumerate() {
            manifest.completed = k * chunk_rows + piece.len();
            let chunk = ShardChunk::new(manifest.clone(), k * chunk_rows, piece.concat())
                .map_err(|e| format!("chunk: {e:?}"))?;
            chunks.push((index, chunk));
        }
    }
    let first = tracer.spans().len();
    let mut wire = Vec::with_capacity(chunks.len());
    for (i, (_, chunk)) in chunks.iter().enumerate() {
        tracer.set_trace(i as u64 + 1);
        let text = tracer.span("sweep.wire.chunk_render", |_| chunk.render());
        let parsed = tracer
            .span("sweep.wire.chunk_parse", |_| ShardChunk::parse(&text))
            .map_err(|e| format!("chunk parse: {e:?}"))?;
        if &parsed != chunk {
            return Err("replay: chunk did not survive the wire format".to_string());
        }
        wire.push(text.len());
    }

    let coordinator = Coordinator::new(Duration::from_secs(3_600));
    let now = Instant::now();
    let workers: BTreeMap<u64, u64> = (0..SHARDS)
        .map(|w| coordinator.register_worker(&format!("127.0.0.1:{}", 1 + w), now))
        .collect();
    coordinator.submit(
        1,
        engine.grid_json.clone(),
        engine.grid.fingerprint(),
        state.options.output_fingerprint(),
        SHARDS,
        cells,
    );
    let plan = coordinator.dispatch_plan(now);
    if plan.len() != SHARDS {
        return Err(format!(
            "replay: {} of {SHARDS} shards dispatched",
            plan.len()
        ));
    }
    for (i, (index, chunk)) in chunks.iter().enumerate() {
        let dispatch = plan
            .iter()
            .find(|d| d.shard == *index)
            .expect("every shard is dispatched");
        tracer.set_trace(i as u64 + 1);
        tracer
            .span("serve.coordinator.accept_chunk", |_| {
                coordinator.accept_chunk(
                    1,
                    *index,
                    dispatch.worker,
                    workers[&dispatch.worker],
                    dispatch.epoch,
                    chunk,
                    Instant::now(),
                )
            })
            .map_err(|e| format!("accept_chunk: {}", e.reason()))?;
    }
    if !coordinator.job_finished(1) {
        return Err("replay: the coordinator did not finish the job".to_string());
    }
    coordinator.stop();
    let own = self_times_ns(&tracer.spans()[first..]);
    out.extend([
        metric(
            "sweep.wire.chunk_render_us",
            per_call_us(&own, "sweep.wire.chunk_render"),
            "us",
        ),
        metric(
            "sweep.wire.chunk_parse_us",
            per_call_us(&own, "sweep.wire.chunk_parse"),
            "us",
        ),
        metric(
            "serve.coordinator.accept_chunk_us",
            per_call_us(&own, "serve.coordinator.accept_chunk"),
            "us",
        ),
        metric(
            "cluster.chunk_bytes",
            wire.iter().sum::<usize>() as f64,
            "bytes",
        ),
    ]);
    Ok(())
}
