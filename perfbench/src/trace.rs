//! Per-layer metrics and latency reconciliation from a traced run.
//!
//! The recorded events are reassembled into spans. Each job's latency
//! (the benchmark's `request` span) is split into stage self times by
//! covering its interval with the job's spans, the most specific stage
//! winning where spans overlap:
//!
//! compile > execute > finalize (incl. report) > gather >
//! transit (dispatch) > queue > submit (incl. verify, host lane) >
//! observe (last device work done until the generator holds the report).
//!
//! Time no span covers is *unaccounted*; it shows a gap in the
//! instrumentation, and must stay under [`RECONCILE_TOLERANCE`] of the
//! summed latency.

use crate::metrics::{mean, quantile, ratio, sorted, Metric};
use cim_obs::{Event, Value};
use std::collections::HashMap;

/// Largest unaccounted share of summed job latency a traced run may
/// show and still reconcile.
pub const RECONCILE_TOLERANCE: f64 = 0.01;

pub const STAGES: [&str; 8] = [
    "submit", "compile", "queue", "transit", "execute", "gather", "finalize", "observe",
];

#[derive(Debug)]
struct Sp {
    name: &'static str,
    parent: u64,
    open: u64,
    close: Option<u64>,
    sim: f64,
    attrs: Vec<(&'static str, Value)>,
}

impl Sp {
    fn dur(&self) -> f64 {
        self.close
            .map_or(0.0, |c| c.saturating_sub(self.open) as f64 * 1e-9)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find_map(|(k, v)| match v {
            Value::U64(x) if *k == key => Some(*x),
            _ => None,
        })
    }

    fn str(&self, key: &str) -> Option<&'static str> {
        self.attrs.iter().find_map(|(k, v)| match v {
            Value::Str(x) if *k == key => Some(*x),
            _ => None,
        })
    }
}

/// The outcome of the latency reconciliation.
#[derive(Debug, Default)]
pub struct Reconciliation {
    pub jobs: u64,
    /// Mean stage self time per job, seconds, in [`STAGES`] order.
    pub stage_mean_s: [f64; 8],
    /// Unaccounted time over summed latency.
    pub unaccounted_share: f64,
    /// Largest single-job unaccounted share.
    pub worst_job_share: f64,
}

impl Reconciliation {
    pub fn ok(&self) -> bool {
        self.jobs > 0 && self.unaccounted_share <= RECONCILE_TOLERANCE
    }
}

/// Per-layer metrics computed from the trace.
pub struct TraceMetrics {
    pub metrics: Vec<Metric>,
    pub reconciliation: Reconciliation,
    /// Each job kind's share of the summed compile + execute wall time,
    /// the check that no kind dominates a mix.
    pub kind_shares: Vec<Metric>,
}

pub fn analyze(events: &[Event], traced_wall_s: f64) -> TraceMetrics {
    let mut spans: HashMap<u64, Sp> = HashMap::new();
    let mut occupancy = Vec::new();
    for e in events {
        match e {
            Event::Open {
                span,
                parent,
                name,
                wall_ns,
                attrs,
            } => {
                spans.insert(
                    span.0,
                    Sp {
                        name,
                        parent: parent.0,
                        open: *wall_ns,
                        close: None,
                        sim: 0.0,
                        attrs: attrs.clone(),
                    },
                );
            }
            Event::Close {
                span,
                wall_ns,
                sim_seconds,
                attrs,
            } => {
                if let Some(sp) = spans.get_mut(&span.0) {
                    sp.close = Some(*wall_ns);
                    sp.sim = *sim_seconds;
                    sp.attrs.extend_from_slice(attrs);
                }
            }
            Event::Gauge { name, value, .. } if *name == "batch_occupancy" => {
                occupancy.push(*value)
            }
            _ => {}
        }
    }
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for (id, sp) in &spans {
        if sp.parent != 0 {
            children.entry(sp.parent).or_default().push(*id);
        }
    }
    let kids = |id: u64, name: &str| -> Vec<(u64, &Sp)> {
        children
            .get(&id)
            .map(|ids| {
                ids.iter()
                    .filter_map(|c| spans.get(c).map(|s| (*c, s)))
                    .filter(|(_, s)| s.name == name && s.close.is_some())
                    .collect()
            })
            .unwrap_or_default()
    };
    let named = |name: &str| -> Vec<&Sp> {
        spans
            .values()
            .filter(|s| s.name == name && s.close.is_some())
            .collect()
    };
    let durs = |v: &[&Sp]| -> Vec<f64> { v.iter().map(|s| s.dur()).collect() };

    let roots: HashMap<u64, u64> = spans
        .iter()
        .filter(|(_, s)| s.name == "job" && s.parent == 0)
        .filter_map(|(id, s)| s.u64("job").map(|j| (j, *id)))
        .collect();

    let mut m = Vec::new();
    let ms = |v: f64| v * 1e3;
    let us = |v: f64| v * 1e6;

    // client / admission
    let submits = named("submit");
    let submit_s = durs(&submits);
    m.push(Metric::new(
        "submit.ms_mean",
        ms(mean(&submit_s)),
        "ms",
        submit_s.len() as u64,
    ));
    m.push(Metric::new(
        "submit.caller_share",
        ratio(submit_s.iter().sum(), traced_wall_s),
        "fraction",
        submit_s.len() as u64,
    ));
    let mut admission = Vec::new();
    for s in &submits {
        let Some(root) = s.u64("job").and_then(|j| roots.get(&j)) else {
            continue;
        };
        let compile: f64 = kids(*root, "compile").iter().map(|(_, c)| c.dur()).sum();
        admission.push(s.dur() - compile);
    }
    m.push(Metric::new(
        "admission.us_mean",
        us(mean(&admission)),
        "us",
        admission.len() as u64,
    ));
    let verify_s = durs(&named("verify"));
    m.push(Metric::new(
        "verify.us_mean",
        us(mean(&verify_s)),
        "us",
        verify_s.len() as u64,
    ));

    // compile
    let compiles: Vec<(&'static str, f64)> = roots
        .values()
        .filter_map(|r| {
            let kind = spans.get(r).and_then(|s| s.str("kind"))?;
            Some(
                kids(*r, "compile")
                    .iter()
                    .map(move |(_, c)| (kind, c.dur()))
                    .collect::<Vec<_>>(),
            )
        })
        .flatten()
        .collect();
    let all: Vec<f64> = compiles.iter().map(|c| c.1).collect();
    m.push(Metric::new(
        "compile.ms_mean",
        ms(mean(&all)),
        "ms",
        all.len() as u64,
    ));
    for (label, metric) in [
        ("hdc-classify", "compile.hdc_classify_ms"),
        ("q6-select", "compile.q6_select_ms"),
        ("nn-infer", "compile.nn_infer_ms"),
        ("img-filter", "compile.img_filter_ms"),
        ("hdc-query", "compile.hdc_query_ms"),
    ] {
        let v: Vec<f64> = compiles
            .iter()
            .filter(|c| c.0 == label)
            .map(|c| c.1)
            .collect();
        m.push(Metric::new(metric, ms(mean(&v)), "ms", v.len() as u64));
    }

    // schedule
    let queue = sorted(durs(&named("queue")));
    m.push(Metric::new(
        "queue.ms_p50",
        ms(quantile(&queue, 0.5)),
        "ms",
        queue.len() as u64,
    ));
    let plans: Vec<&Sp> = named("plan")
        .into_iter()
        .filter(|s| s.parent == 0)
        .collect();
    let plan_s = durs(&plans);
    m.push(Metric::new(
        "plan.us_mean",
        us(mean(&plan_s)),
        "us",
        plan_s.len() as u64,
    ));
    m.push(Metric::new(
        "plan.calls",
        plan_s.len() as f64,
        "count",
        plan_s.len() as u64,
    ));
    m.push(Metric::new(
        "batch.jobs_mean",
        mean(&occupancy),
        "jobs",
        occupancy.len() as u64,
    ));
    let executes = named("execute");
    let exec_ids: HashMap<u64, f64> = spans
        .iter()
        .filter(|(_, s)| s.name == "execute" && s.close.is_some())
        .map(|(id, s)| (*id, s.dur()))
        .collect();
    let transit: Vec<f64> = spans
        .iter()
        .filter(|(_, s)| s.name == "dispatch" && s.close.is_some())
        .map(|(id, s)| {
            let inner: f64 = children
                .get(id)
                .map(|c| c.iter().filter_map(|k| exec_ids.get(k)).sum())
                .unwrap_or(0.0);
            s.dur() - inner
        })
        .collect();
    let transit = sorted(transit);
    m.push(Metric::new(
        "transit.ms_p50",
        ms(quantile(&transit, 0.5)),
        "ms",
        transit.len() as u64,
    ));
    let mut wall_by_shard: HashMap<u64, (f64, f64)> = HashMap::new();
    for e in &executes {
        let entry = wall_by_shard
            .entry(e.u64("shard").unwrap_or(0))
            .or_default();
        entry.0 += e.dur();
        entry.1 += e.sim;
    }
    let share_max = |pick: fn(&(f64, f64)) -> f64| {
        let total: f64 = wall_by_shard.values().map(pick).sum();
        ratio(wall_by_shard.values().map(pick).fold(0.0, f64::max), total)
    };
    m.push(Metric::new(
        "shard.busy_share_max",
        share_max(|v| v.0),
        "fraction",
        executes.len() as u64,
    ));
    m.push(
        Metric::new(
            "shard.sim_busy_share_max",
            share_max(|v| v.1),
            "fraction",
            executes.len() as u64,
        )
        .sim(),
    );
    let gather = durs(&named("gather"));
    m.push(Metric::new(
        "gather.ms_mean",
        ms(mean(&gather)),
        "ms",
        gather.len() as u64,
    ));
    let finalize = durs(&named("finalize"));
    m.push(Metric::new(
        "finalize.ms_mean",
        ms(mean(&finalize)),
        "ms",
        finalize.len() as u64,
    ));
    let requests: Vec<(u64, &Sp)> = spans
        .iter()
        .filter(|(_, s)| s.name == "request" && s.close.is_some() && s.u64("job").is_some())
        .map(|(id, s)| (*id, s))
        .collect();
    let blocked: f64 =
        durs(&named("harvest")).iter().sum::<f64>() + durs(&named("wait")).iter().sum::<f64>();
    m.push(Metric::new(
        "wait.ms_mean",
        ms(ratio(blocked, requests.len() as f64)),
        "ms",
        requests.len() as u64,
    ));

    // device
    let exec_s = durs(&executes);
    let exec_sim: f64 = executes.iter().map(|e| e.sim).sum();
    m.push(Metric::new(
        "execute.ms_mean",
        ms(mean(&exec_s)),
        "ms",
        exec_s.len() as u64,
    ));
    m.push(Metric::new(
        "execute.host_ns_per_sim_ns",
        ratio(exec_s.iter().sum(), exec_sim),
        "ratio",
        exec_s.len() as u64,
    ));

    let mut by_kind: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for root in roots.values() {
        let Some(kind) = spans.get(root).and_then(|s| s.str("kind")) else {
            continue;
        };
        let compile: f64 = kids(*root, "compile").iter().map(|(_, c)| c.dur()).sum();
        let execute: f64 = kids(*root, "dispatch")
            .iter()
            .flat_map(|(d, _)| kids(*d, "execute"))
            .map(|(_, e)| e.dur())
            .sum();
        *by_kind.entry(kind).or_default() += compile + execute;
    }
    let busy_total: f64 = by_kind.values().sum();
    let kind_shares = by_kind
        .iter()
        .map(|(kind, t)| {
            Metric::new(
                format!("kind_share.{kind}"),
                ratio(*t, busy_total),
                "fraction",
                1,
            )
        })
        .collect();

    // reconciliation
    let mut rec = Reconciliation::default();
    let (mut latency_sum, mut unaccounted_sum) = (0.0, 0.0);
    let mut stage_sum = [0.0f64; 8];
    for (req_id, req) in &requests {
        let Some(root) = req.u64("job").and_then(|j| roots.get(&j)) else {
            continue;
        };
        let (t0, t1) = (req.open, req.close.unwrap_or(req.open));
        // (start, end, priority, stage)
        let mut iv: Vec<(u64, u64, u8, usize)> = Vec::new();
        let mut push = |s: &Sp, prio: u8, stage: usize| {
            if let Some(c) = s.close {
                iv.push((s.open, c, prio, stage));
            }
        };
        let mut submit_end = t0;
        for name in ["submit", "verify"] {
            for (_, s) in kids(*req_id, name) {
                push(s, 3, 0);
                submit_end = submit_end.max(s.close.unwrap_or(t0));
            }
        }
        for (_, s) in kids(*root, "host_execute") {
            push(s, 3, 0);
        }
        for (_, s) in kids(*root, "compile") {
            push(s, 9, 1);
        }
        for (_, s) in kids(*root, "queue") {
            push(s, 4, 2);
        }
        let mut device_end = None;
        for (d_id, d) in kids(*root, "dispatch") {
            push(d, 5, 3);
            device_end = device_end.max(d.close);
            for (_, e) in kids(d_id, "execute") {
                push(e, 8, 4);
            }
        }
        for (_, s) in kids(*root, "gather") {
            push(s, 6, 5);
        }
        for name in ["finalize", "report"] {
            for (_, s) in kids(*root, name) {
                push(s, 7, 6);
            }
        }
        iv.push((device_end.unwrap_or(submit_end), t1, 2, 7));
        let mut cuts: Vec<u64> = iv
            .iter()
            .flat_map(|(a, b, _, _)| [*a, *b])
            .chain([t0, t1])
            .map(|t| t.clamp(t0, t1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut unaccounted = 0.0;
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let len = (b - a) as f64 * 1e-9;
            match iv
                .iter()
                .filter(|(s, e, _, _)| *s <= a && *e >= b)
                .max_by_key(|(_, _, p, _)| *p)
            {
                Some((_, _, _, stage)) => stage_sum[*stage] += len,
                None => unaccounted += len,
            }
        }
        let latency = (t1 - t0) as f64 * 1e-9;
        latency_sum += latency;
        unaccounted_sum += unaccounted;
        rec.worst_job_share = rec.worst_job_share.max(ratio(unaccounted, latency));
        rec.jobs += 1;
    }
    for (i, s) in stage_sum.iter().enumerate() {
        rec.stage_mean_s[i] = ratio(*s, rec.jobs as f64);
    }
    rec.unaccounted_share = ratio(unaccounted_sum, latency_sum);
    for (i, stage) in STAGES.iter().enumerate() {
        m.push(Metric::new(
            format!("stage.{stage}_ms"),
            ms(rec.stage_mean_s[i]),
            "ms",
            rec.jobs,
        ));
    }
    m.push(Metric::new(
        "trace.unaccounted_share",
        rec.unaccounted_share,
        "fraction",
        rec.jobs,
    ));
    TraceMetrics {
        metrics: m,
        reconciliation: rec,
        kind_shares,
    }
}
