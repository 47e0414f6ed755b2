//! Untraced execution of the workloads: one iteration of a workload's
//! fixed work, its set-up, and the reference digests it is checked
//! against.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nestsim_cluster::{run_campaign_adaptive_cluster, run_campaign_cluster, ClusterConfig};
use nestsim_core::adaptive::run_campaign_adaptive;
use nestsim_core::campaign::run_campaign_with;
use nestsim_core::CampaignResult;
use nestsim_svc::{serve, JobOutcome, ServiceConfig, SvcClient};
use nestsim_telemetry::names;

use crate::cells::{self, Cell, Workload};
use crate::digest::{digest, pinned};
use crate::trace::timed;

/// One attempted operation: a cell, a service job, or an adaptive cell.
#[derive(Debug, Clone)]
pub struct Op {
    pub id: String,
    /// The result digest, or why the operation failed.
    pub outcome: Result<u64, String>,
    /// Host seconds of the call (submit→done for a service job).
    pub secs: f64,
}

/// The service's own counters after one iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvcCounters {
    pub submitted: u64,
    pub execs: u64,
    pub dedup_hits: u64,
    pub rejected: u64,
    pub crashes: u64,
}

/// One pass over a workload's fixed work.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host seconds of each of the pass's sequential steps: its cells,
    /// or the whole pass when its jobs run concurrently (service).
    pub steps: Vec<f64>,
    pub ops: Vec<Op>,
    pub svc: Option<SvcCounters>,
    /// (samples run, rounds) per adaptive cell.
    pub adaptive: Vec<(u64, u64)>,
}

impl Iteration {
    pub fn wall_s(&self) -> f64 {
        self.steps.iter().sum()
    }
}

/// Runs `f` as one operation, turning a panic into a failed operation.
fn op(id: String, f: impl FnOnce() -> CampaignResult) -> (Op, Option<CampaignResult>) {
    let (res, secs) = timed(|| catch_unwind(AssertUnwindSafe(f)));
    match res {
        Ok(r) => (
            Op {
                id,
                outcome: Ok(digest(&r)),
                secs,
            },
            Some(r),
        ),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            (
                Op {
                    id,
                    outcome: Err(format!("panicked: {msg}")),
                    secs,
                },
                None,
            )
        }
    }
}

/// The in-process default engine on one of the workload's cells.
pub fn in_process(w: Workload, cell: &Cell) -> CampaignResult {
    match w {
        Workload::AdaptiveCluster => {
            run_campaign_adaptive(cell.profile, &cell.spec, &cells::adaptive_policy(), None)
        }
        _ => run_campaign_with(cell.profile, &cell.spec, None),
    }
}

pub fn iteration(w: Workload, seed: u64) -> Iteration {
    match w {
        Workload::CosimGrid | Workload::LadderLong => {
            let mut it = Iteration::default();
            for c in cells::grid_cells(w, seed) {
                it.ops.push(op(c.id(), || in_process(w, &c)).0);
            }
            it.steps = it.ops.iter().map(|o| o.secs).collect();
            it
        }
        Workload::SvcTwoTenants => svc_iteration(seed),
        Workload::AdaptiveCluster => {
            let mut it = Iteration::default();
            for c in cells::adaptive_cells(seed) {
                let (o, r) = op(c.id(), || {
                    run_campaign_adaptive_cluster(
                        c.profile,
                        &c.spec,
                        &cells::adaptive_policy(),
                        None,
                        &ClusterConfig::threads(2),
                    )
                });
                if let Some(s) = r.and_then(|r| r.adaptive) {
                    it.adaptive.push((s.samples_run, s.rounds.len() as u64));
                }
                it.ops.push(o);
            }
            it.steps = it.ops.iter().map(|o| o.secs).collect();
            it
        }
    }
}

fn job_op(cell: &Cell, client: &mut SvcClient) -> Op {
    let (out, secs) = timed(|| client.run_job(&cell.job(), 0));
    let outcome = match out {
        Ok(JobOutcome::Done(r)) => Ok(digest(&r)),
        Ok(JobOutcome::Rejected(m)) => Err(format!("rejected: {m}")),
        Ok(JobOutcome::Failed(m)) => Err(format!("failed: {m}")),
        Err(e) => Err(format!("client error: {e}")),
    };
    Op {
        id: cell.id(),
        outcome,
        secs,
    }
}

pub fn connect_tenants(addr: &str) -> Vec<SvcClient> {
    ["tenant-a", "tenant-b"]
        .iter()
        .map(|t| SvcClient::connect(addr, t).expect("loopback service accepts clients"))
        .collect()
}

/// A fresh service per iteration: its store starts empty, so every
/// iteration sees the same hit/miss mix.
fn svc_iteration(seed: u64) -> Iteration {
    let streams = cells::svc_streams(seed);
    let handle = serve(ServiceConfig::default()).expect("service binds loopback");
    let mut clients = connect_tenants(&handle.addr().to_string());
    let (per_tenant, wall_s) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .zip(clients.iter_mut())
                .map(|(jobs, client)| {
                    s.spawn(move || jobs.iter().map(|c| job_op(c, client)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let svc = clients[0].stats().ok().map(|r| SvcCounters {
        submitted: r.counter(names::SVC_JOBS_SUBMITTED),
        execs: r.counter(names::SVC_EXECS_STARTED),
        dedup_hits: r.counter(names::SVC_DEDUP_HITS),
        rejected: r.counter(names::SVC_ADMISSION_REJECTED),
        crashes: r.counter(names::SVC_EXEC_CRASHES),
    });
    drop(clients);
    handle.shutdown().expect("service stops cleanly");
    Iteration {
        steps: vec![wall_s],
        ops: per_tenant.into_iter().flatten().collect(),
        svc,
        adaptive: Vec::new(),
    }
}

/// Host time before the first injection can run, per cell (grid,
/// cluster) or for the first job (service).
pub fn setup_once(w: Workload, seed: u64) -> Vec<f64> {
    match w {
        Workload::CosimGrid | Workload::LadderLong => cells::grid_cells(w, seed)
            .iter()
            .map(|c| {
                let c = c.with_samples(0);
                timed(|| run_campaign_with(c.profile, &c.spec, None)).1
            })
            .collect(),
        Workload::SvcTwoTenants => {
            let first = cells::svc_streams(seed)[0][0].with_samples(0);
            let ((handle, outcome), secs) = timed(|| {
                let handle = serve(ServiceConfig::default()).expect("service binds loopback");
                let mut clients = connect_tenants(&handle.addr().to_string());
                let outcome = clients[0].run_job(&first.job(), 0);
                (handle, outcome)
            });
            assert!(
                matches!(outcome, Ok(JobOutcome::Done(_))),
                "set-up job did not complete: {outcome:?}"
            );
            handle.shutdown().expect("service stops cleanly");
            vec![secs]
        }
        // The cluster's set-up is a one-sample campaign per cell:
        // coordinator bind, two workers connecting, the laddered golden
        // pass on the workers, one injection, shutdown.
        Workload::AdaptiveCluster => cells::adaptive_cells(seed)
            .iter()
            .map(|c| {
                let c = c.with_samples(1);
                timed(|| run_campaign_cluster(c.profile, &c.spec, None, &ClusterConfig::threads(2)))
                    .1
            })
            .collect(),
    }
}

/// The workload's distinct cells run in process with intermediate
/// ladder rungs disabled: the simplest engine, used as the reference
/// when a seed has no pinned digests.
pub fn no_ladder_pass(w: Workload, seed: u64) -> Vec<Op> {
    cells::workload_cells(w, seed)
        .iter()
        .map(|c| op(c.id(), || in_process(w, &c.no_ladder())).0)
        .collect()
}

/// The digests every operation is checked against.
pub struct Refs {
    pub digests: BTreeMap<String, u64>,
    pub source: String,
    /// The no-ladder pass, when it was run.
    pub no_ladder: Option<Vec<Op>>,
    /// Failures found while building the references.
    pub failures: Vec<String>,
}

/// Pinned digests when the seed is pinned, else the no-ladder pass.
/// With `always_no_ladder` the no-ladder pass also runs under a pinned
/// seed, and must agree with the pins.
pub fn references(w: Workload, seed: u64, always_no_ladder: bool) -> Refs {
    let pins = pinned(w.name(), seed);
    let no_ladder = (pins.is_none() || always_no_ladder).then(|| no_ladder_pass(w, seed));
    let mut failures = Vec::new();
    let (digests, source) = match pins {
        Some(p) => (p, format!("pinned digests for seed {seed}")),
        None => (
            no_ladder
                .iter()
                .flatten()
                .filter_map(|o| o.outcome.as_ref().ok().map(|d| (o.id.clone(), *d)))
                .collect(),
            "in-process cells at snapshot_interval = u64::MAX".to_string(),
        ),
    };
    for o in no_ladder.iter().flatten() {
        match &o.outcome {
            Err(e) => failures.push(format!("{} (no-ladder reference): {e}", o.id)),
            Ok(d) if digests.get(&o.id) != Some(d) => failures.push(format!(
                "{}: no-ladder digest {d:016x} differs from the pin",
                o.id
            )),
            Ok(_) => {}
        }
    }
    Refs {
        digests,
        source,
        no_ladder,
        failures,
    }
}

/// The failures among `ops`: failed operations and digests that differ
/// from the reference.
pub fn check(ops: &[Op], refs: &BTreeMap<String, u64>) -> Vec<String> {
    ops.iter()
        .filter_map(|o| match (&o.outcome, refs.get(&o.id)) {
            (Err(e), _) => Some(format!("{}: {e}", o.id)),
            (Ok(_), None) => Some(format!("{}: no reference digest", o.id)),
            (Ok(d), Some(r)) if d != r => {
                Some(format!("{}: digest {d:016x}, reference {r:016x}", o.id))
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(id: &str, d: u64) -> Op {
        Op {
            id: id.to_string(),
            outcome: Ok(d),
            secs: 0.1,
        }
    }

    #[test]
    fn check_counts_mismatches_missing_references_and_failed_ops() {
        let refs: BTreeMap<String, u64> = [("a".to_string(), 1), ("b".to_string(), 2)].into();
        let ops = vec![
            ok("a", 1),
            ok("b", 3),
            ok("c", 1),
            Op {
                id: "a".to_string(),
                outcome: Err("panicked: boom".to_string()),
                secs: 0.0,
            },
        ];
        let f = check(&ops, &refs);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(check(&ops[..1], &refs).is_empty());
    }

    #[test]
    fn a_rejected_service_job_is_a_failure() {
        // A queue bound of zero makes the service turn every job away
        // at admission.
        let mut cfg = ServiceConfig::default();
        cfg.machine.max_queue_depth = 0;
        let handle = serve(cfg).expect("service binds loopback");
        let mut client = SvcClient::connect(&handle.addr().to_string(), "t").unwrap();
        let cell = cells::svc_streams(3)[0][0];
        let o = job_op(&cell, &mut client);
        drop(client);
        handle.shutdown().unwrap();
        assert!(
            matches!(&o.outcome, Err(m) if m.starts_with("rejected")),
            "{o:?}"
        );
        let refs: BTreeMap<String, u64> = [(cell.id(), 0)].into();
        let failures = check(&[o], &refs);
        assert_eq!(failures.len(), 1);
        assert_eq!(crate::failed_frac(1, failures.len() as u64), 1.0);
    }
}
