//! Serving benchmark of the `cim-runtime` pool.
//!
//! Drives the pool only through its public API (`RuntimePool`,
//! `PoolClient::{submit, flush, verify, register_dataset}`,
//! `JobHandle::{poll, wait}`) with one closed-loop generator thread
//! against a 2-shard pool, checks every output against a host
//! reference, and prints each metric as `name value unit (n=…)`. The
//! last stdout line is one JSON object with the run's result.
//!
//! Two clocks are kept apart: *wall* time is what this library's users
//! wait for; *sim* time is the modelled device time the paper claims.
//! The device model has not been validated against measured hardware.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_mix|resident_query|tiny_offload|all \
//!     --seed N --seconds S --trace 0|1 [--check-determinism]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a separate traced run.
//! `--check-determinism` serves each workload's sim prefix twice at
//! `--seed` and once at the held-out seed, and fails unless the sim
//! metrics and device counts repeat exactly and the inputs change.

mod drive;
mod layers;
mod metrics;
mod spans;
mod trace;
mod workload;

use drive::{Rec, Run, Sample, Stop};
use metrics::{mean, median, quantile, ratio, result_json, sorted, Metric};
use spans::{Spans, StampedRing};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Mix, Workload};

/// Setups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Event capacity of the traced run's ring, and the job cap that keeps
/// a traced window inside it.
const TRACE_EVENTS: usize = 1 << 19;
const TRACE_MAX_JOBS: u64 = 12_000;
/// Seed kept out of tuning, for confirming later claims.
const HELD_OUT_SEED: u64 = 4242;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_determinism: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        check_determinism: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--check-determinism" => args.check_determinism = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_determinism {
        return check_determinism(&args);
    }
    let mut all = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for &w in &args.workloads {
        println!(
            "# {} (seed {}, {} s, trace {})",
            w.name(),
            args.seed,
            args.seconds,
            args.trace as u8
        );
        let mix = Mix::build(w, args.seed);
        let out = if args.trace {
            traced(&mix, args.seconds)
        } else {
            end_to_end(&mix, args.seconds)
        };
        for m in out.printed.iter().chain(&out.metrics) {
            println!("{}", m.line());
        }
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        let prefix = args.workloads.len() > 1;
        all.extend(out.metrics.into_iter().map(|mut m| {
            if prefix {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            m
        }));
    }
    println!("{}", result_json(correct, attempted, failed, &all));
    ExitCode::SUCCESS
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics `BENCHMARK.json` declares, printed and in the result.
    metrics: Vec<Metric>,
    /// Printed only: `error_rate` (zero on correct code, so no regression
    /// bound can be stated as a share of it; the result's `failed`
    /// carries it) and the per-kind wall shares.
    printed: Vec<Metric>,
}

fn deadline(seconds: f64, mix: &Mix, max_jobs: u64) -> Stop {
    let shape = mix.workload.shape();
    Stop::Deadline {
        at: Instant::now() + Duration::from_secs_f64(seconds),
        min_jobs: shape.sim_prefix,
        max_jobs,
    }
}

/// Measured jobs whose sim statistics the run reports.
fn sim_prefix<'a>(mix: &Mix, recs: &'a [Rec]) -> Vec<&'a Rec> {
    let shape = mix.workload.shape();
    let end = shape.warmup + shape.sim_prefix;
    let mut v: Vec<&Rec> = recs.iter().filter(|r| r.seq < end).collect();
    v.sort_by_key(|r| r.seq);
    v
}

fn end_to_end(mix: &Mix, seconds: f64) -> Outcome {
    let spans = Spans::disabled();
    let mut totals = Vec::new();
    let mut ctx = None;
    for _ in 0..SETUPS {
        // Drop the previous pool before building the next one.
        drop(ctx.take());
        let (c, times) = drive::setup(mix, None, &spans);
        totals.push(times.total);
        ctx = Some(c);
    }
    let ctx = ctx.unwrap_or_else(|| unreachable!("at least one setup"));
    let shape = mix.workload.shape();
    let run = drive::run(
        &ctx,
        mix,
        shape.warmup,
        deadline(seconds, mix, u64::MAX),
        shape.warmup + shape.sim_prefix,
        &spans,
    );
    report_errors(&run);
    let n = run.samples.len() as u64;
    let sliced = slices(&run, seconds);
    let errors = run.errors();
    let prefix = sim_prefix(mix, &run.recs);
    let k = prefix.len() as u64;
    let busy: f64 = prefix.iter().map(|r| r.stats.busy_time.0).sum();
    let energy: f64 = prefix
        .iter()
        .map(|r| r.stats.energy.0 + r.maintenance_j)
        .sum();
    let mut per_shard = vec![0.0f64; mix.workload.pool_config().shards];
    for r in &prefix {
        // A split job's busy time is shared evenly by its shards.
        for &s in &r.shards {
            per_shard[s] += r.stats.busy_time.0 / r.shards.len() as f64;
        }
    }
    let makespan = per_shard.iter().copied().fold(0.0, f64::max);
    let metrics = vec![
        Metric::new("jobs_per_s", median_of(&sliced, slice_rate), "jobs/s", n),
        Metric::new(
            "latency_p50_ms",
            median_of(&sliced, |s| slice_latency_ms(s, 0.5)),
            "ms",
            n,
        ),
        Metric::new(
            "latency_p90_ms",
            median_of(&sliced, |s| slice_latency_ms(s, 0.9)),
            "ms",
            n,
        ),
        Metric::new("setup_s", median(&totals), "s", SETUPS as u64),
        Metric::new("sim_us_per_job", busy / k.max(1) as f64 * 1e6, "us", k).sim(),
        Metric::new("sim_jobs_per_s", ratio(k as f64, makespan), "jobs/s", k).sim(),
        Metric::new(
            "sim_energy_nj_per_job",
            energy / k.max(1) as f64 * 1e9,
            "nJ",
            k,
        )
        .sim(),
        Metric::new("peak_rss_mb", metrics::peak_rss_mb(), "MB", 1),
    ];
    // Every job got exactly one report: the pool's own count matches.
    let reported = ctx.pool.telemetry().jobs == shape.warmup + n;
    Outcome {
        correct: errors == 0 && k == shape.sim_prefix && reported,
        attempted: run.attempted,
        failed: errors,
        metrics,
        printed: std::iter::once(Metric::new(
            "error_rate",
            ratio(errors as f64, run.attempted as f64),
            "fraction",
            run.attempted,
        ))
        .chain(
            run.hdc_accuracy()
                .map(|(acc, n)| Metric::new("hdc_accuracy", acc, "fraction", n)),
        )
        .chain(latency_by_kind(&run))
        .collect(),
    }
}

/// Slices of the measured window the end-to-end wall metrics are taken
/// over; each metric is the median of its per-slice values, so a burst
/// of interference from other processes moves at most a few slices.
const SLICES: usize = 20;

/// The samples observed in each slice of the first `seconds` of the
/// run, in observation order.
fn slices(run: &Run, seconds: f64) -> Vec<Vec<Sample>> {
    let mut out = vec![Vec::new(); SLICES];
    for s in &run.samples {
        let i = (s.seen_s / seconds * SLICES as f64) as usize;
        if let Some(slice) = out.get_mut(i) {
            slice.push(*s);
        }
    }
    out
}

/// Completion rate inside one slice: completions after the first over
/// the time from the first to the last (a continuous measure, unlike a
/// count per fixed slice).
fn slice_rate(slice: &[Sample]) -> f64 {
    match (slice.first(), slice.last()) {
        (Some(a), Some(b)) if b.seen_s > a.seen_s => {
            (slice.len() - 1) as f64 / (b.seen_s - a.seen_s)
        }
        _ => 0.0,
    }
}

/// A latency quantile (ms) of one slice.
fn slice_latency_ms(slice: &[Sample], q: f64) -> f64 {
    quantile(
        &sorted(slice.iter().map(|s| s.latency_s * 1e3).collect()),
        q,
    )
}

fn median_of(slices: &[Vec<Sample>], f: impl Fn(&[Sample]) -> f64) -> f64 {
    median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>())
}

/// Median latency and share of jobs per job kind: where the workload's
/// latency percentiles fall in its mix.
fn latency_by_kind(run: &Run) -> Vec<Metric> {
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in &run.samples {
        by_kind
            .entry(s.kind.label())
            .or_default()
            .push(s.latency_s * 1e3);
    }
    let total = run.samples.len() as f64;
    by_kind
        .into_iter()
        .flat_map(|(kind, v)| {
            let n = v.len() as u64;
            [
                Metric::new(format!("kind_latency_p50_ms.{kind}"), median(&v), "ms", n),
                Metric::new(format!("kind_jobs.{kind}"), n as f64 / total, "fraction", n),
            ]
        })
        .collect()
}

/// Names the job kinds that failed or mismatched their reference.
fn report_errors(run: &Run) {
    for (kind, count) in &run.errors_by_kind {
        println!("errors {kind} {count}");
    }
}

/// Mean per-job value of a report field.
fn per_job(recs: &[&Rec], f: impl Fn(&Rec) -> u64) -> f64 {
    let v: Vec<f64> = recs.iter().map(|r| f(r) as f64).collect();
    mean(&v)
}

fn traced(mix: &Mix, seconds: f64) -> Outcome {
    let first = mix.workload.shape().warmup;
    let half = seconds / 2.0;
    // Untraced twin of the traced window, for the tracing overhead.
    let plain = {
        let spans = Spans::disabled();
        let (ctx, _) = drive::setup(mix, None, &spans);
        drive::run(&ctx, mix, first, deadline(half, mix, u64::MAX), 0, &spans)
    };
    let sink = Arc::new(StampedRing::new(TRACE_EVENTS));
    let spans = Spans::recording(Arc::clone(&sink));
    let (ctx, times) = drive::setup(mix, Some(Arc::clone(&sink)), &spans);
    let cut = sink.ring.len();
    let run = drive::run(
        &ctx,
        mix,
        first,
        deadline(half, mix, TRACE_MAX_JOBS),
        u64::MAX,
        &spans,
    );
    let events = sink.ring.events();
    let dropped = sink.ring.dropped();
    let analysis = trace::analyze(&events[cut.min(events.len())..], run.wall_s);
    let mut m = analysis.metrics;
    let rec = &analysis.reconciliation;

    let n = run.recs.len() as u64;
    let host = run
        .recs
        .iter()
        .filter(|r| r.route == cim_runtime::JobRoute::Host)
        .count();
    m.push(Metric::new(
        "host_lane.share",
        ratio(host as f64, run.attempted as f64),
        "fraction",
        run.attempted,
    ));
    let (tight, sampled) = tightness(&ctx, mix, &run);
    m.push(Metric::new("envelope.latency_tightness", tight, "ratio", sampled).sim());
    let cim: Vec<&Rec> = run
        .recs
        .iter()
        .filter(|r| r.route == cim_runtime::JobRoute::Cim)
        .collect();
    let k = cim.len() as u64;
    for (name, value) in [
        (
            "device.word_accesses",
            per_job(&cim, |r| r.device.word_accesses),
        ),
        (
            "device.sampled_columns",
            per_job(&cim, |r| r.device.sampled_columns),
        ),
        (
            "device.program_pulses",
            per_job(&cim, |r| r.device.program_pulses),
        ),
        (
            "device.noise_samples",
            per_job(&cim, |r| r.device.noise_samples),
        ),
        (
            "device.match_pulses",
            per_job(&cim, |r| r.device.match_pulses),
        ),
        ("stats.row_writes", per_job(&cim, |r| r.stats.row_writes)),
        ("stats.mvms", per_job(&cim, |r| r.stats.mvms)),
        ("stats.searches", per_job(&cim, |r| r.stats.searches)),
    ] {
        m.push(Metric::new(name, value, "count/job", k).sim());
    }
    m.extend(layers::measure(&spans));
    for kind in [
        "q6_table",
        "hdc_prototypes",
        "nn_weights",
        "cam_rules",
        "cam_keys",
    ] {
        let loads: Vec<f64> = times
            .loads
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| s * 1e3)
            .collect();
        m.push(Metric::new(
            format!("dataset.load_ms.{kind}"),
            mean(&loads),
            "ms",
            loads.len() as u64,
        ));
    }
    m.push(Metric::new("pool.build_ms", times.build * 1e3, "ms", 1));
    let jps = |r: &Run| ratio(r.samples.len() as f64, r.wall_s);
    m.push(Metric::new(
        "trace.overhead_frac",
        1.0 - ratio(jps(&run), jps(&plain)),
        "fraction",
        n + plain.samples.len() as u64,
    ));
    m.push(Metric::new(
        "trace.dropped_events",
        dropped as f64,
        "count",
        events.len() as u64,
    ));
    println!(
        "reconciliation: {} jobs, unaccounted {:.5} of summed latency (tolerance {}), worst job {:.4}",
        rec.jobs,
        rec.unaccounted_share,
        trace::RECONCILE_TOLERANCE,
        rec.worst_job_share
    );
    report_errors(&run);
    let errors = run.errors() + plain.errors();
    Outcome {
        correct: errors == 0 && rec.ok() && dropped == 0,
        attempted: run.attempted + plain.attempted,
        failed: errors,
        metrics: m,
        printed: analysis.kind_shares,
    }
}

/// Mean measured simulated busy time over the certified latency bound,
/// and the jobs it covers: the first CIM-routed job of each template
/// (at most 64), its envelope from a post-run `PoolClient::verify` of
/// the same spec.
fn tightness(ctx: &drive::Ctx, mix: &Mix, run: &Run) -> (f64, u64) {
    let mut seen = std::collections::HashSet::new();
    let mut v = Vec::new();
    for r in &run.recs {
        if r.route != cim_runtime::JobRoute::Cim || !seen.insert(r.pick) || v.len() >= 64 {
            continue;
        }
        let t = mix.template(r.pick);
        if let Ok((_, env)) = ctx.clients[t.tenant].verify(&t.spec) {
            if env.latency_bound.0 > 0.0 {
                v.push(r.stats.busy_time.0 / env.latency_bound.0);
            }
        }
    }
    (mean(&v), v.len() as u64)
}

/// Everything simulated about the sim prefix: per job, its id, kind,
/// route, shards, stats, device counters and output digest.
fn sim_fingerprint(mix: &Mix, run: &Run) -> Vec<String> {
    sim_prefix(mix, &run.recs)
        .iter()
        .map(|r| {
            format!(
                "{} {} {:?} {:?} {:?} {:?} {:?} {} {:x}",
                r.seq,
                r.job,
                r.kind,
                r.route,
                r.shards,
                r.stats,
                r.device,
                r.maintenance_j,
                r.output_digest
            )
        })
        .collect()
}

fn check_determinism(args: &Args) -> ExitCode {
    let mut ok = true;
    let spans = Spans::disabled();
    for &w in &args.workloads {
        let serve = |seed: u64| {
            let mix = Mix::build(w, seed);
            let (ctx, _) = drive::setup(&mix, None, &spans);
            let shape = w.shape();
            let run = drive::run(
                &ctx,
                &mix,
                shape.warmup,
                Stop::Jobs(shape.sim_prefix),
                u64::MAX,
                &spans,
            );
            (
                mix.input_digest(),
                sim_fingerprint(&mix, &run),
                run.failed_jobs(),
            )
        };
        let (inputs_a, sim_a, err_a) = serve(args.seed);
        let (inputs_b, sim_b, err_b) = serve(args.seed);
        let (inputs_c, _, err_c) = serve(HELD_OUT_SEED);
        let repeat = sim_a == sim_b && !sim_a.is_empty();
        let changes = inputs_a == inputs_b && inputs_a != inputs_c;
        let clean = err_a + err_b + err_c == 0;
        println!(
            "{}: sim prefix of {} jobs repeats at seed {}: {}; seed {} changes the inputs: {}; errors: {}",
            w.name(),
            sim_a.len(),
            args.seed,
            repeat,
            HELD_OUT_SEED,
            changes,
            err_a + err_b + err_c
        );
        if !repeat {
            if let Some((a, b)) = sim_a.iter().zip(&sim_b).find(|(a, b)| a != b) {
                println!("  first difference:\n  {a}\n  {b}");
            }
        }
        ok &= repeat && changes && clean;
    }
    println!("determinism: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
