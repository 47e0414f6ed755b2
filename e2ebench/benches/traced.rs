//! The traced run: one untraced and one traced pass over a workload,
//! then probes that time each layer's public calls on the workload's
//! own cells.
//!
//! The traced pass records spans around the calls the benchmark makes
//! into each crate. For the grid workloads it runs each cell through
//! the engine's public building blocks (laddered golden pass, sample
//! draw, one `ShardRunner` per worker, result assembly) instead of
//! `run_campaign_with`, so the ladder, the injections and the merge
//! get spans of their own; the assembled result must carry the same
//! digest as the untraced call. Service and cluster calls are timed
//! whole. Probes run outside the traced pass and are excluded from its
//! wall time and layer self times.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;

use nestsim_cluster::wire::{get_record, put_record, Reader, Writer};
use nestsim_cluster::{run_campaign_adaptive_cluster, ClusterConfig};
use nestsim_core::adaptive::{draw_round, run_round_on_ladder, AdaptiveState};
use nestsim_core::campaign::{
    assemble_result, contiguous_shards, draw_samples, entry_cycle, entry_order, golden_reference,
    laddered_golden_reference, ShardRunner,
};
use nestsim_core::cosim::{CcxDriver, CosimDriver, L2cDriver, McuDriver, PcieDriver};
use nestsim_core::inject::{
    GoldenRef, InjectionRecord, InjectionSpec, MIN_WARMUP, WATCHDOG_MARGIN,
};
use nestsim_core::{CampaignResult, OutcomeCounts};
use nestsim_hlsim::SnapshotLadder;
use nestsim_models::ComponentKind;
use nestsim_proto::addr::{BankId, McuId};
use nestsim_stats::StopDecision;
use nestsim_svc::SvcMessage;
use nestsim_telemetry::{CampaignTelemetry, Recorder};

use crate::cells::{self, Cell, Workload};
use crate::digest::digest;
use crate::run::{self, Op, Refs};
use crate::trace::{layer_self_times, median, percentile, timed, Span, Tracer};

/// Every per-layer metric, with its unit. A metric reads 0 on a
/// workload that does not drive its layer or component, and a
/// percentile reads 0 when fewer samples lie beyond it than the
/// percentile rule needs.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("hlsim.golden_plain_s", "s"),
    ("hlsim.golden_laddered_s", "s"),
    ("hlsim.ladder_tax", "ratio"),
    ("hlsim.rung_clone_us.p50", "us"),
    ("hlsim.rung_clone_us.p90", "us"),
    ("hlsim.rungs", "count"),
    ("hlsim.rung_dram_lines", "count"),
    ("hlsim.accel_mcycles_per_s", "Mcycles/s"),
    ("core.cell_s", "s"),
    ("core.inject_us.l2c.p50", "us"),
    ("core.inject_us.l2c.p90", "us"),
    ("core.inject_us.mcu.p50", "us"),
    ("core.inject_us.mcu.p90", "us"),
    ("core.inject_us.ccx.p50", "us"),
    ("core.inject_us.ccx.p90", "us"),
    ("core.inject_us.pcie.p50", "us"),
    ("core.inject_us.pcie.p90", "us"),
    ("core.forward_cycles", "count"),
    ("core.restores", "count"),
    ("core.worker_efficiency", "ratio"),
    ("core.no_ladder_wall_s", "s"),
    ("core.ladder_over_no_ladder", "ratio"),
    ("cosim.attach_us.l2c", "us"),
    ("cosim.attach_us.mcu", "us"),
    ("cosim.attach_us.ccx", "us"),
    ("cosim.attach_us.pcie", "us"),
    ("cosim.tick_ns.l2c", "ns"),
    ("cosim.tick_ns.mcu", "ns"),
    ("cosim.tick_ns.ccx", "ns"),
    ("cosim.tick_ns.pcie", "ns"),
    ("cosim.check_ns.l2c", "ns"),
    ("cosim.check_ns.mcu", "ns"),
    ("cosim.check_ns.ccx", "ns"),
    ("cosim.check_ns.pcie", "ns"),
    ("cosim.cycles.l2c", "count"),
    ("cosim.cycles.mcu", "count"),
    ("cosim.cycles.ccx", "count"),
    ("cosim.cycles.pcie", "count"),
    ("cosim.early_exit_frac", "ratio"),
    ("adaptive.samples_run", "count"),
    ("adaptive.rounds", "count"),
    ("cluster.cell_s", "s"),
    ("cluster.tax_frac", "ratio"),
    ("cluster.wire_record_ns", "ns"),
    ("svc.exec_frac", "ratio"),
    ("svc.overhead_ms.p50", "ms"),
    ("svc.overhead_ms.p90", "ms"),
    ("svc.codec_us", "us"),
    ("svc.rejected", "count"),
    ("svc.crashes", "count"),
    ("self_s.bench", "s"),
    ("self_s.hlsim", "s"),
    ("self_s.core", "s"),
    ("self_s.cosim", "s"),
    ("self_s.stats", "s"),
    ("self_s.cluster", "s"),
    ("self_s.svc", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// The listed name of a per-layer metric built at run time.
fn metric(name: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not listed"))
}

fn comp_key(c: ComponentKind) -> &'static str {
    match c {
        ComponentKind::L2c => "l2c",
        ComponentKind::Mcu => "mcu",
        ComponentKind::Ccx => "ccx",
        ComponentKind::Pcie => "pcie",
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-component co-simulation probe sums.
#[derive(Default)]
struct CompAcc {
    inject_s: Vec<f64>,
    attach_s: Vec<f64>,
    step_s: f64,
    steps: u64,
    check_s: f64,
    checks: u64,
    cosim_cycles: u64,
    runs: u64,
}

/// Everything the traced run accumulates before it becomes metrics.
#[derive(Default)]
struct Acc {
    comps: BTreeMap<&'static str, CompAcc>,
    golden_plain_s: f64,
    golden_laddered_s: f64,
    rungs: u64,
    rung_dram_lines: u64,
    rung_clone_s: Vec<f64>,
    accel_cycles: u64,
    accel_s: f64,
    forward_cycles: u64,
    restores: u64,
    busy_s: f64,
    worker_wall_s: f64,
    early_exits: u64,
    records: u64,
}

/// A cell decomposed into public calls, with what the probes need.
struct Decomposed {
    root: u64,
    result: CampaignResult,
    ladder: SnapshotLadder,
    samples: Vec<InjectionSpec>,
}

/// Laddered golden pass, with rung statistics.
fn traced_ladder(
    tr: &Tracer,
    me: u64,
    group: u64,
    cell: &Cell,
    acc: &mut Acc,
) -> (SnapshotLadder, GoldenRef) {
    let ((ladder, golden), secs) = timed(|| {
        tr.span("hlsim.golden_laddered", Some(me), group, |_| {
            laddered_golden_reference(cell.profile, &cell.spec)
        })
    });
    acc.golden_laddered_s += secs;
    acc.rungs += ladder.len() as u64;
    acc.rung_dram_lines += ladder
        .rung_costs()
        .map(|c| c.dram_lines as u64)
        .sum::<u64>();
    (ladder, golden)
}

/// A fixed-count cell through the engine's building blocks; the same
/// steps `run_campaign_with` takes at `lane_cluster = 1`.
fn decompose_fixed(tr: &Tracer, group: u64, cell: &Cell, acc: &mut Acc) -> Decomposed {
    let (p, spec) = (cell.profile, cell.spec);
    tr.span("core.cell", None, group, |me| {
        let (mut ladder, golden) = traced_ladder(tr, me, group, cell, acc);
        let (samples, shards) = tr.span("core.plan", Some(me), group, |_| {
            let samples = draw_samples(p, &spec, &golden);
            let order = entry_order(&samples);
            let max_entry = order.last().map_or(0, |&i| entry_cycle(&samples[i]));
            ladder.truncate_above(max_entry);
            let workers = spec.workers.max(1).min(order.len().max(1));
            (samples, contiguous_shards(&order, workers))
        });
        let (per_worker, par_s) = timed(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| {
                        let (ladder, samples, golden) = (&ladder, &samples, &golden);
                        s.spawn(move || {
                            tr.span("core.shard", Some(me), group, |sid| {
                                let mut runner = ShardRunner::new(
                                    ladder,
                                    samples,
                                    golden,
                                    None,
                                    spec.lane_width as usize,
                                );
                                let mut out = Vec::with_capacity(shard.len());
                                let mut secs = Vec::with_capacity(shard.len());
                                for &i in shard {
                                    let ((r, rec), t) = timed(|| {
                                        tr.span("core.inject", Some(sid), group, |_| {
                                            runner.run_one(i)
                                        })
                                    });
                                    out.push((i, r, rec));
                                    secs.push(t);
                                }
                                (out, secs, runner.forward_cycles(), runner.restores())
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("traced shard panicked"))
                    .collect::<Vec<_>>()
            })
        });
        acc.worker_wall_s += par_s * shards.len() as f64;
        let comp = acc.comps.entry(comp_key(spec.component)).or_default();
        let mut indexed = Vec::with_capacity(samples.len());
        for (out, secs, forward, restores) in per_worker {
            acc.busy_s += secs.iter().sum::<f64>();
            comp.inject_s.extend(secs);
            acc.forward_cycles += forward;
            acc.restores += restores;
            indexed.extend(out);
        }
        let result = tr.span("core.assemble", Some(me), group, |_| {
            assemble_result(
                p,
                &spec,
                None,
                golden,
                indexed,
                Vec::new(),
                Recorder::null(),
            )
        });
        Decomposed {
            root: me,
            result,
            ladder,
            samples,
        }
    })
}

/// An adaptive cell through the same state machine and round runner
/// `run_campaign_adaptive` uses, with the stop rule in a span of its own.
fn decompose_adaptive(tr: &Tracer, group: u64, cell: &Cell, acc: &mut Acc) -> Decomposed {
    let (p, spec) = (cell.profile, cell.spec);
    tr.span("core.adaptive_cell", None, group, |me| {
        let (ladder, golden) = traced_ladder(tr, me, group, cell, acc);
        let mut state = AdaptiveState::new(spec.component, cells::adaptive_policy());
        let mut engine = Recorder::null();
        let mut worker_samples = Vec::new();
        let mut records = Vec::new();
        let mut all_samples = Vec::new();
        let mut alloc = state.initial_alloc();
        loop {
            let (samples, strata) = tr.span("core.draw_round", Some(me), group, |_| {
                draw_round(p, &spec, &golden, &state.done(), &alloc)
            });
            let indexed = tr.span("core.round", Some(me), group, |_| {
                run_round_on_ladder(
                    &ladder,
                    &samples,
                    &golden,
                    None,
                    &spec,
                    &mut engine,
                    &mut worker_samples,
                )
            });
            let mut outcomes = Vec::with_capacity(indexed.len());
            for (i, record, _) in indexed {
                outcomes.push((strata[i], record.outcome));
                records.push(record);
            }
            all_samples.extend(samples);
            state.absorb_round(&alloc, &outcomes);
            match tr.span("stats.decide", Some(me), group, |_| state.decide()) {
                StopDecision::Stop { .. } => break,
                StopDecision::Continue { next_round } => alloc = state.alloc_for(next_round),
            }
        }
        let counts: OutcomeCounts = *state.counts();
        Decomposed {
            root: me,
            result: CampaignResult {
                benchmark: p.name,
                component: spec.component,
                counts,
                records,
                golden,
                telemetry: CampaignTelemetry::disabled(),
                adaptive: Some(state.into_summary()),
            },
            ladder,
            samples: all_samples,
        }
    })
}

/// Re-drives one injection's co-simulation through the driver's public
/// calls for exactly the cycles its record reports, timing attach,
/// stepping and golden compares.
fn drive<D: CosimDriver>(
    tr: &Tracer,
    me: u64,
    group: u64,
    attach: impl FnOnce() -> D,
    s: &InjectionSpec,
    rec: &InjectionRecord,
    acc: &mut CompAcc,
) {
    let (mut d, secs) = timed(|| tr.span("cosim.attach", Some(me), group, |_| attach()));
    acc.attach_s.push(secs);
    tr.span("cosim.warmup", Some(me), group, |_| {
        let t = Instant::now();
        for _ in 0..s.warmup.max(MIN_WARMUP) {
            d.step();
            acc.steps += 1;
            if d.sys().trap().is_some() {
                break;
            }
        }
        acc.step_s += t.elapsed().as_secs_f64();
    });
    d.snapshot_golden();
    d.inject(s.bit);
    tr.span("cosim.run", Some(me), group, |_| {
        let interval = s.check_interval.max(1);
        let mut cycles = 0;
        while cycles < rec.cosim_cycles {
            let batch = (interval - cycles % interval).min(rec.cosim_cycles - cycles);
            let t = Instant::now();
            for _ in 0..batch {
                d.step();
            }
            acc.step_s += t.elapsed().as_secs_f64();
            acc.steps += batch;
            cycles += batch;
            if cycles % interval == 0 {
                let t = Instant::now();
                black_box(d.check());
                acc.check_s += t.elapsed().as_secs_f64();
                acc.checks += 1;
            }
        }
    });
    acc.cosim_cycles += rec.cosim_cycles;
    acc.runs += 1;
}

/// Probes on one decomposed cell: every rung cloned once, the plain
/// golden pass, and up to `cosim_cap` injections re-driven through the
/// co-simulation driver.
fn probe_cell(
    tr: &Tracer,
    group: u64,
    cell: &Cell,
    d: &Decomposed,
    cosim_cap: usize,
    acc: &mut Acc,
) {
    let ladder = &d.ladder;
    for k in 0..ladder.len() as u64 {
        let rung = ladder.rung_below(k * ladder.interval());
        let (sys, secs) = timed(|| tr.span("hlsim.rung_clone", None, group, |_| rung.clone()));
        acc.rung_clone_s.push(secs);
        drop(black_box(sys));
    }
    let (_, secs) = timed(|| {
        tr.span("hlsim.golden_plain", None, group, |_| {
            golden_reference(cell.profile, &cell.spec)
        })
    });
    acc.golden_plain_s += secs;

    let golden = d.result.golden;
    for r in &d.result.records {
        acc.early_exits += u64::from(r.cosim_cycles < cell.spec.cosim_cap);
        acc.records += 1;
    }
    for (s, rec) in d.samples.iter().zip(&d.result.records).take(cosim_cap) {
        tr.span("cosim.probe", None, group, |me| {
            let entry = entry_cycle(s);
            let mut sys = tr.span("hlsim.rung_clone", Some(me), group, |_| {
                ladder.rung_below(entry).clone()
            });
            sys.set_watchdog(2 * golden.cycles + WATCHDOG_MARGIN);
            let from = sys.cycle();
            let (_, secs) =
                timed(|| tr.span("hlsim.run_until", Some(me), group, |_| sys.run_until(entry)));
            acc.accel_cycles += sys.cycle() - from;
            acc.accel_s += secs;
            let comp = acc.comps.entry(comp_key(s.component)).or_default();
            match s.component {
                ComponentKind::L2c => drive(
                    tr,
                    me,
                    group,
                    || L2cDriver::attach(sys, BankId::new(s.instance % 8)),
                    s,
                    rec,
                    comp,
                ),
                ComponentKind::Mcu => drive(
                    tr,
                    me,
                    group,
                    || McuDriver::attach(sys, McuId::new(s.instance % 4)),
                    s,
                    rec,
                    comp,
                ),
                ComponentKind::Ccx => drive(tr, me, group, || CcxDriver::attach(sys), s, rec, comp),
                ComponentKind::Pcie => {
                    drive(tr, me, group, || PcieDriver::attach(sys), s, rec, comp)
                }
            }
        });
    }
}

/// Mean host time of `f` over `reps` calls.
fn per_call(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / f64::from(reps)
}

/// What the traced run hands back to `main`.
pub struct TracedRun {
    /// Every operation the run made, for the digest check.
    pub ops: Vec<Op>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub report: Vec<String>,
}

/// The traced run's accumulating state.
struct Traced<'t> {
    tr: &'t Tracer,
    metrics: BTreeMap<&'static str, f64>,
    acc: Acc,
    ops: Vec<Op>,
    /// Root spans of the traced pass; every other root is a probe.
    roots: Vec<u64>,
    /// In-process default-engine seconds of each cell.
    cell_s: Vec<(String, f64)>,
    report: Vec<String>,
}

impl Traced<'_> {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(metric(name), value);
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(metric(name)).or_insert(0.0) += value;
    }

    fn op(&mut self, cell: &Cell, r: &CampaignResult, secs: f64) {
        self.ops.push(Op {
            id: cell.id(),
            outcome: Ok(digest(r)),
            secs,
        });
    }

    /// A fixed-count cell decomposed into spans, checked, then probed.
    /// Returns the cell's root span.
    fn fixed_cell(&mut self, group: u64, cell: &Cell, cosim_cap: usize) -> u64 {
        let d = decompose_fixed(self.tr, group, cell, &mut self.acc);
        self.op(cell, &d.result, 0.0);
        probe_cell(self.tr, group, cell, &d, cosim_cap, &mut self.acc);
        d.root
    }
}

/// Probe span groups start here, apart from the traced pass's groups.
const PROBE_GROUPS: u64 = 10_000;

/// Grid workloads: the traced pass is the decomposed cells themselves.
fn grid_pass(t: &mut Traced, cells: &[Cell], untraced: &run::Iteration) {
    for (g, c) in cells.iter().enumerate() {
        let root = t.fixed_cell(g as u64 + 1, c, 24);
        t.roots.push(root);
    }
    t.cell_s = untraced
        .ops
        .iter()
        .map(|o| (o.id.clone(), o.secs))
        .collect();
}

/// Service workload: one traced pass of both tenants, then the
/// in-process reference time of every distinct cell and the probes.
fn svc_pass(t: &mut Traced, seed: u64, cells: &[Cell]) {
    let tr = t.tr;
    let streams = cells::svc_streams(seed);
    let handle =
        nestsim_svc::serve(nestsim_svc::ServiceConfig::default()).expect("service binds loopback");
    let mut clients = run::connect_tenants(&handle.addr().to_string());
    let mut roots = Vec::new();
    let jobs: Vec<(Cell, f64, Option<CampaignResult>)> =
        tr.span("bench.iteration", None, 0, |root| {
            roots.push(root);
            std::thread::scope(|s| {
                let handles: Vec<_> = streams
                    .iter()
                    .zip(clients.iter_mut())
                    .enumerate()
                    .map(|(tenant, (jobs, client))| {
                        s.spawn(move || {
                            tr.span("svc.tenant", Some(root), 0, |tid| {
                                jobs.iter()
                                    .enumerate()
                                    .map(|(k, c)| {
                                        let group = (tenant * jobs.len() + k) as u64 + 1;
                                        let (out, secs) = timed(|| {
                                            tr.span("svc.job", Some(tid), group, |_| {
                                                client.run_job(&c.job(), 0)
                                            })
                                        });
                                        let r = match out {
                                            Ok(nestsim_svc::JobOutcome::Done(r)) => Some(*r),
                                            _ => None,
                                        };
                                        (*c, secs, r)
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("tenant thread panicked"))
                    .collect()
            })
        });
    t.roots.extend(roots);
    let stats = clients[0].stats();
    drop(clients);
    handle.shutdown().expect("service stops cleanly");
    match stats {
        Ok(r) => {
            use nestsim_telemetry::names;
            let submitted = r.counter(names::SVC_JOBS_SUBMITTED) as f64;
            let execs = r.counter(names::SVC_EXECS_STARTED) as f64;
            t.set("svc.exec_frac", ratio(execs, submitted));
            t.set(
                "svc.rejected",
                r.counter(names::SVC_ADMISSION_REJECTED) as f64,
            );
            t.set("svc.crashes", r.counter(names::SVC_EXEC_CRASHES) as f64);
            t.report.push(format!(
                "svc.exec_frac base: {execs} executions of {submitted} submitted jobs"
            ));
        }
        Err(e) => t.report.push(format!("svc stats query failed: {e}")),
    }

    // In-process time of each distinct cell at one worker, the way the
    // service's pool executes a job.
    let mut inproc = BTreeMap::new();
    for c in cells {
        let (r, secs) = timed(|| run::in_process(Workload::SvcTwoTenants, c));
        inproc.insert(c.id(), secs);
        t.cell_s.push((c.id(), secs));
        t.op(c, &r, secs);
    }
    let mut overhead_ms = Vec::new();
    let mut codec_s = Vec::new();
    for (c, secs, r) in jobs {
        overhead_ms.push((secs - inproc[&c.id()]) * 1e3);
        match r {
            Some(r) => {
                let frame = SvcMessage::Chunk {
                    ticket: 1,
                    start: 0,
                    records: r.records.clone(),
                };
                codec_s.push(per_call(20, || {
                    let bytes = frame.encode().expect("result frame encodes");
                    black_box(SvcMessage::decode(&bytes).expect("result frame decodes"));
                }));
                t.op(&c, &r, secs);
            }
            None => t.ops.push(Op {
                id: c.id(),
                outcome: Err("service job did not complete".to_string()),
                secs,
            }),
        }
    }
    t.set(
        "svc.overhead_ms.p50",
        percentile(&overhead_ms, 50).unwrap_or(0.0),
    );
    t.set(
        "svc.overhead_ms.p90",
        percentile(&overhead_ms, 90).unwrap_or(0.0),
    );
    t.set("svc.codec_us", median(&codec_s) * 1e6);
    for (g, c) in cells.iter().enumerate() {
        t.fixed_cell(PROBE_GROUPS + g as u64, c, 2);
    }
}

/// Cluster workload: each adaptive cell through the cluster (the
/// traced pass), in process, and decomposed for the probes.
fn cluster_pass(t: &mut Traced, cells: &[Cell]) {
    let tr = t.tr;
    let mut cluster_s = 0.0;
    let mut record_ns = Vec::new();
    for (g, c) in cells.iter().enumerate() {
        let group = g as u64 + 1;
        let mut root = 0;
        let (r, secs) = timed(|| {
            tr.span("cluster.cell", None, group, |id| {
                root = id;
                run_campaign_adaptive_cluster(
                    c.profile,
                    &c.spec,
                    &cells::adaptive_policy(),
                    None,
                    &ClusterConfig::threads(2),
                )
            })
        });
        t.roots.push(root);
        cluster_s += secs;
        t.op(c, &r, secs);
        if let Some(s) = &r.adaptive {
            t.add("adaptive.samples_run", s.samples_run as f64);
            t.add("adaptive.rounds", s.rounds.len() as f64);
        }
        for rec in &r.records {
            record_ns.push(
                per_call(20, || {
                    let mut wr = Writer::new();
                    put_record(&mut wr, rec).expect("record encodes");
                    let bytes = wr.into_bytes();
                    black_box(get_record(&mut Reader::new(&bytes)).expect("record decodes"));
                }) * 1e9,
            );
        }

        let (inproc, secs) = timed(|| run::in_process(Workload::AdaptiveCluster, c));
        t.cell_s.push((c.id(), secs));
        t.op(c, &inproc, secs);
        let d = decompose_adaptive(tr, PROBE_GROUPS + group, c, &mut t.acc);
        t.op(c, &d.result, 0.0);
        probe_cell(tr, PROBE_GROUPS + group, c, &d, 24, &mut t.acc);
    }
    let inproc_s: f64 = t.cell_s.iter().map(|(_, s)| s).sum();
    t.set("cluster.cell_s", cluster_s);
    t.set("cluster.tax_frac", ratio(cluster_s - inproc_s, inproc_s));
    t.set("cluster.wire_record_ns", median(&record_ns));
    t.report.push(format!(
        "cluster.tax_frac base: cluster {cluster_s:.4} s vs in-process {inproc_s:.4} s"
    ));
}

/// Layer metrics from the accumulated probe sums.
fn probe_metrics(t: &mut Traced) {
    let acc = std::mem::take(&mut t.acc);
    t.set("hlsim.golden_plain_s", acc.golden_plain_s);
    t.set("hlsim.golden_laddered_s", acc.golden_laddered_s);
    t.set(
        "hlsim.ladder_tax",
        ratio(acc.golden_laddered_s, acc.golden_plain_s),
    );
    t.report.push(format!(
        "hlsim.ladder_tax base: laddered {:.4} s / plain {:.4} s",
        acc.golden_laddered_s, acc.golden_plain_s
    ));
    let clone_us: Vec<f64> = acc.rung_clone_s.iter().map(|s| s * 1e6).collect();
    t.set(
        "hlsim.rung_clone_us.p50",
        percentile(&clone_us, 50).unwrap_or(0.0),
    );
    t.set(
        "hlsim.rung_clone_us.p90",
        percentile(&clone_us, 90).unwrap_or(0.0),
    );
    t.set("hlsim.rungs", acc.rungs as f64);
    t.set(
        "hlsim.rung_dram_lines",
        ratio(acc.rung_dram_lines as f64, acc.rungs as f64),
    );
    t.set(
        "hlsim.accel_mcycles_per_s",
        ratio(acc.accel_cycles as f64, acc.accel_s) / 1e6,
    );
    t.set("core.forward_cycles", acc.forward_cycles as f64);
    t.set("core.restores", acc.restores as f64);
    t.set(
        "core.worker_efficiency",
        ratio(acc.busy_s, acc.worker_wall_s),
    );
    t.report.push(format!(
        "core.worker_efficiency base: {:.4} s of injections / {:.4} s of worker wall \
         (workers x parallel wall)",
        acc.busy_s, acc.worker_wall_s
    ));
    for (key, c) in &acc.comps {
        let us: Vec<f64> = c.inject_s.iter().map(|s| s * 1e6).collect();
        let attach_us: Vec<f64> = c.attach_s.iter().map(|s| s * 1e6).collect();
        t.set(
            &format!("core.inject_us.{key}.p50"),
            percentile(&us, 50).unwrap_or(0.0),
        );
        t.set(
            &format!("core.inject_us.{key}.p90"),
            percentile(&us, 90).unwrap_or(0.0),
        );
        t.set(
            &format!("cosim.attach_us.{key}"),
            percentile(&attach_us, 50).unwrap_or(0.0),
        );
        t.set(
            &format!("cosim.tick_ns.{key}"),
            ratio(c.step_s, c.steps as f64) * 1e9,
        );
        t.set(
            &format!("cosim.check_ns.{key}"),
            ratio(c.check_s, c.checks as f64) * 1e9,
        );
        t.set(
            &format!("cosim.cycles.{key}"),
            ratio(c.cosim_cycles as f64, c.runs as f64),
        );
        t.report.push(format!(
            "{key}: {} injections timed, {} co-sim probes ({} steps, {} compares)",
            c.inject_s.len(),
            c.runs,
            c.steps,
            c.checks
        ));
    }
    t.set(
        "cosim.early_exit_frac",
        ratio(acc.early_exits as f64, acc.records as f64),
    );
    t.report.push(format!(
        "cosim.early_exit_frac base: {} of {} runs left before the cap",
        acc.early_exits, acc.records
    ));
}

/// The default engine against the simplest alternative, with no
/// intermediate rungs. A report only: nothing asserts which one wins.
fn no_ladder_report(t: &mut Traced, no_ladder: &[Op]) {
    let cell_s: f64 = t.cell_s.iter().map(|(_, s)| s).sum();
    let no_ladder_s: f64 = no_ladder.iter().map(|o| o.secs).sum();
    t.set("core.cell_s", cell_s);
    t.set("core.no_ladder_wall_s", no_ladder_s);
    t.set("core.ladder_over_no_ladder", ratio(cell_s, no_ladder_s));
    t.report
        .push("default engine vs snapshot_interval = u64::MAX (report only):".to_string());
    // The service workload's ~90 small cells are shown as a total only.
    if t.cell_s.len() <= 8 {
        for (id, secs) in &t.cell_s {
            if let Some(o) = no_ladder.iter().find(|o| &o.id == id) {
                t.report.push(format!(
                    "  {id}: core.cell_s {secs:.4} s, core.no_ladder_wall_s {:.4} s, ratio {:.3}",
                    o.secs,
                    ratio(*secs, o.secs)
                ));
            }
        }
    }
    t.report.push(format!(
        "  total: {cell_s:.4} s / {no_ladder_s:.4} s = {:.3}",
        ratio(cell_s, no_ladder_s)
    ));
}

/// Self time per layer, the traced wall time and the tracing overhead.
fn span_metrics(t: &mut Traced, w: Workload, spans: &[Span], untraced_wall: f64) {
    let mut pass_self: BTreeMap<String, f64> = BTreeMap::new();
    let mut probe_self: BTreeMap<String, f64> = BTreeMap::new();
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let into = if t.roots.contains(&root.id) {
            &mut pass_self
        } else {
            &mut probe_self
        };
        for (layer, secs) in layer_self_times(spans, root.id) {
            *into.entry(layer).or_insert(0.0) += secs;
        }
    }
    for (layer, secs) in &pass_self {
        t.set(&format!("self_s.{layer}"), *secs);
    }
    for (title, table) in [("traced pass", &pass_self), ("probes", &probe_self)] {
        t.report
            .push(format!("self time per layer, {} {title}:", w.name()));
        for (layer, secs) in table {
            t.report.push(format!("  {layer:8} {secs:.4} s"));
        }
    }
    let traced_wall: f64 = spans
        .iter()
        .filter(|s| t.roots.contains(&s.id))
        .map(Span::secs)
        .sum();
    t.set("trace.wall_s", traced_wall);
    t.set("trace.overhead_s", traced_wall - untraced_wall);
    t.set("trace.spans", spans.len() as f64);
    t.report.push(format!(
        "tracing overhead: traced wall_s {traced_wall:.4} s - untraced wall_s {untraced_wall:.4} s \
         (mean of the passes before and after) = {:.4} s",
        traced_wall - untraced_wall
    ));
}

/// Runs the traced pass and the probes; `refs` must hold the no-ladder pass.
pub fn traced_run(w: Workload, seed: u64, refs: &Refs) -> TracedRun {
    let no_ladder = refs
        .no_ladder
        .as_deref()
        .expect("the traced run's references include the no-ladder pass");
    let tr = Tracer::default();
    let mut t = Traced {
        tr: &tr,
        metrics: LAYER_METRICS.iter().map(|(k, _)| (*k, 0.0)).collect(),
        acc: Acc::default(),
        ops: Vec::new(),
        roots: Vec::new(),
        cell_s: Vec::new(),
        report: Vec::new(),
    };
    let before = run::iteration(w, seed);
    t.ops.extend(before.ops.iter().cloned());
    let cells = cells::workload_cells(w, seed);
    match w {
        Workload::CosimGrid | Workload::LadderLong => grid_pass(&mut t, &cells, &before),
        Workload::SvcTwoTenants => svc_pass(&mut t, seed, &cells),
        Workload::AdaptiveCluster => cluster_pass(&mut t, &cells),
    }
    probe_metrics(&mut t);
    no_ladder_report(&mut t, no_ladder);
    // A second untraced pass, so the overhead is not measured against a
    // single pass.
    let after = run::iteration(w, seed);
    let untraced_wall = (before.wall_s() + after.wall_s()) / 2.0;
    t.ops.extend(after.ops);

    let spans = tr.take_spans();
    span_metrics(&mut t, w, &spans, untraced_wall);
    if let Err(e) = write_spans(w, seed, &spans) {
        t.report.push(format!("could not write spans: {e}"));
    }
    TracedRun {
        ops: t.ops,
        metrics: t.metrics,
        report: t.report,
    }
}

/// Writes the spans as tab-separated lines under `.e2ebench/` in the
/// working directory.
fn write_spans(w: Workload, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(".e2ebench")?;
    let path = format!(".e2ebench/spans-{}-{seed}.tsv", w.name());
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "id\tparent\tgroup\tname\tstart_s\tend_s")?;
    for s in spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{:.9}\t{:.9}",
            s.id,
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            s.group,
            s.name,
            s.start,
            s.end
        )?;
    }
    f.flush()
}
