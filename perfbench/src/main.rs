//! The repository benchmark: starts the real `reproduce serve` binary,
//! drives one seeded workload against it, verifies every answer against the
//! in-process service, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced in-process replay (`--trace 1`). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --reproduce PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```

mod gen;
mod layers;
mod load;
mod procfs;
mod prom;
mod replay;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

use workloads::{Ctx, Metric, Report};

pub const WORKLOADS: [&str; 4] = [
    "optimize-warm",
    "optimize-cold",
    "bulk-sweep",
    "cluster-sweep",
];

struct Args {
    ctx: Ctx,
    workload: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut reproduce = None;
    let mut out = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--reproduce" => reproduce = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let parsed = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&parsed) {
                    return Err("--seconds must be in 1..=600".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        ctx: Ctx {
            reproduce: reproduce.ok_or("--reproduce is required")?,
            out: out.ok_or("--out is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        workload,
    })
}

fn run(args: &Args) -> Result<(Report, Vec<Metric>), String> {
    let ctx = &args.ctx;
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    let report = match args.workload.as_str() {
        "optimize-warm" => workloads::optimize_warm(ctx)?,
        "optimize-cold" => workloads::optimize_cold(ctx)?,
        "bulk-sweep" => workloads::bulk_sweep(ctx)?,
        "cluster-sweep" => workloads::cluster_sweep(ctx)?,
        _ => unreachable!("validated by parse_args"),
    };
    let mut metrics = if ctx.trace {
        replay::per_layer(ctx, &args.workload, &report)?
    } else {
        report.e2e.clone()
    };
    // Catalogue order, so the printed set lines up with BENCHMARK.json.
    let position = |name: &str| {
        layers::END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(layers::per_layer_names())
            .position(|n| n == name)
            .unwrap_or(usize::MAX)
    };
    metrics.sort_by_key(|m| position(m.name));
    Ok((report, metrics))
}

/// The result line: numbers in Rust's shortest round-trip form.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let (report, metrics) = match run(&args) {
        Ok(done) => done,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.ctx.seed, args.ctx.seconds, args.ctx.trace as u8
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (check, held) in &report.checks {
        println!("  check {}: {check}", if *held { "ok" } else { "FAILED" });
    }
    for m in &metrics {
        println!(
            "  {} = {} {}{}",
            m.name,
            m.value,
            m.unit,
            layers::tag(m.name)
        );
    }
    let reported: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    let complete = reported == layers::expected(args.ctx.trace);
    if !complete {
        eprintln!("perfbench: metric set differs from BENCHMARK.json: {reported:?}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = report.failed == 0
        && report.attempted > 0
        && report.checks.iter().all(|(_, held)| *held)
        && complete
        && finite;
    println!(
        "{}",
        result_json(
            correct,
            report.attempted.max(1),
            report.failed,
            &metrics
                .iter()
                .map(|m| Metric {
                    value: if m.value.is_finite() { m.value } else { -1.0 },
                    ..m.clone()
                })
                .collect::<Vec<_>>()
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[workloads::metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn arguments() {
        let argv: Vec<String> =
            "--reproduce r --out o --workload bulk-sweep --seed 4 --seconds 10 --trace 1"
                .split(' ')
                .map(String::from)
                .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.ctx.seed, 4);
        assert!(args.ctx.trace);
        let mut bad = argv.clone();
        bad[5] = "nope".to_string();
        assert!(parse_args(&bad).is_err());
        bad = argv.clone();
        bad[11] = "2".to_string();
        assert!(parse_args(&bad).is_err());
    }
}
