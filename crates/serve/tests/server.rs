//! End-to-end server tests: session lifecycle with audited responses,
//! concurrent multi-tenant traffic checked bit-identical against serial
//! from-scratch solves on [`Rational`], graceful drain, one solve per
//! coalesced burst, and the ascending row order of `Solved` replies under
//! churn. Overload and panic containment are unit tests in `server.rs`,
//! where a test can hold a tenant's lock.

use amf_audit::audit;
use amf_core::incremental::{Delta, IncrementalAmf, JobId};
use amf_core::{Allocation, AmfSolver, FairnessMode, Instance};
use amf_numeric::Rational;
use amf_serve::{
    ClientError, DeltaBatch, ErrorKind, ServeClient, ServeConfig, Server, WireDelta, WireScalar,
};

/// Deltas a lifecycle script sends, in wire and in session form. Keeping
/// both in lockstep lets tests rebuild the exact instance the server holds.
fn lifecycle_deltas() -> Vec<WireDelta> {
    vec![
        WireDelta::AddJob {
            id: 0,
            demands: vec![4.0, 1.0],
            weight: None,
        },
        WireDelta::AddJob {
            id: 1,
            demands: vec![2.0, 3.0],
            weight: None,
        },
        WireDelta::AddJob {
            id: 2,
            demands: vec![0.5, 2.5],
            weight: None,
        },
        WireDelta::DemandChange {
            id: 0,
            site: 1,
            demand: 2.0,
        },
        WireDelta::RemoveJob { id: 1 },
    ]
}

fn as_delta<S: WireScalar>(w: &WireDelta) -> Delta<S> {
    let conv = |v: f64| S::from_wire(v).expect("test values are representable");
    match w {
        WireDelta::AddJob {
            id,
            demands,
            weight,
        } => Delta::AddJob {
            id: JobId(*id),
            demands: demands.iter().map(|d| conv(*d)).collect(),
            weight: weight.map_or(S::ONE, conv),
        },
        WireDelta::RemoveJob { id } => Delta::RemoveJob { id: JobId(*id) },
        WireDelta::DemandChange { id, site, demand } => Delta::DemandChange {
            id: JobId(*id),
            site: *site,
            demand: conv(*demand),
        },
        WireDelta::CapacityChange { site, capacity } => Delta::CapacityChange {
            site: *site,
            capacity: conv(*capacity),
        },
    }
}

#[test]
fn lifecycle_solves_are_audit_certified() {
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    let caps = [6.0, 4.0];
    assert_eq!(
        client
            .create_session("acme", &caps, Some("enhanced"))
            .expect("create"),
        2
    );
    // Duplicate create is a typed error.
    match client.create_session("acme", &caps, None) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::DuplicateTenant),
        other => panic!("expected DuplicateTenant, got {other:?}"),
    }

    let deltas = lifecycle_deltas();
    let (accepted, pending) = client.apply_deltas("acme", &deltas).expect("apply");
    assert_eq!(accepted, deltas.len());
    assert!(pending > 0, "coalescing server stages deltas until Solve");

    let reply = client.solve("acme").expect("solve");
    assert!(reply.resolved);
    assert_eq!(reply.job_ids, vec![0, 2]);

    // Rebuild the exact instance the server holds and audit the reply.
    let mut mirror =
        IncrementalAmf::<f64>::new(AmfSolver::enhanced(), caps.to_vec()).expect("mirror");
    for w in &deltas {
        mirror.apply(as_delta(w)).expect("mirror apply");
    }
    let inst: Instance<f64> = mirror.instance();
    let alloc = Allocation::from_split(reply.split.clone());
    let report = audit(&inst, &alloc, FairnessMode::Enhanced);
    assert!(
        report.is_certified_amf(),
        "served allocation failed the audit: {report:?}"
    );

    // GetAllocation returns the cached result without re-solving.
    let cached = client.get_allocation("acme").expect("get");
    assert!(!cached.resolved);
    assert_eq!(cached.split, reply.split);
    let again = client.solve("acme").expect("idempotent solve");
    assert!(!again.resolved, "no new deltas → cached output");

    // Unknown tenant is typed.
    match client.solve("nobody") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownTenant),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.solves, 1);
    assert_eq!(stats.deltas_applied, deltas.len() as u64);
    assert!(stats.ops.iter().any(|o| o.op == "solve" && o.count > 0));

    client.shutdown().expect("shutdown ack");
    let summary = server.join();
    assert_eq!(summary.sessions, 1);
    assert_eq!(summary.queued, 0, "drain leaves no request in flight");
}

/// `Solved::job_ids` is documented as ascending with `split` rows in the
/// same order. Churn that re-adds jobs after removals (higher ids landing
/// among lower ones) must keep both true.
#[test]
fn solved_job_ids_stay_ascending_and_row_aligned_under_churn() {
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind ephemeral port");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let caps = [4.0, 4.0, 4.0];
    client.create_session("churn", &caps, None).expect("create");
    // Job `id` demands 3 at site `id % 3` only, so a row paired with the
    // wrong id puts flow where the mirror has no demand.
    let row = |id: u64| {
        let mut d = vec![0.0; 3];
        d[(id % 3) as usize] = 3.0;
        d
    };
    let add = |id: u64| WireDelta::AddJob {
        id,
        demands: row(id),
        weight: None,
    };
    let remove = |id: u64| WireDelta::RemoveJob { id };
    let bursts = [
        (0..6).map(add).collect::<Vec<_>>(),
        vec![remove(1), remove(3), add(7), add(8)],
        vec![remove(0), add(10), remove(7), add(9), add(11)],
    ];
    let mut live = std::collections::BTreeSet::new();
    for burst in &bursts {
        client.apply_deltas("churn", burst).expect("apply");
        for w in burst {
            match w {
                WireDelta::AddJob { id, .. } => live.insert(*id),
                WireDelta::RemoveJob { id } => live.remove(id),
                _ => unreachable!("churn sends adds and removes only"),
            };
        }
        let reply = client.solve("churn").expect("solve");
        assert!(
            reply.job_ids.windows(2).all(|w| w[0] < w[1]),
            "job ids not strictly ascending: {:?}",
            reply.job_ids
        );
        assert!(reply.job_ids.iter().eq(live.iter()), "{:?}", reply.job_ids);
        assert_eq!(reply.split.len(), reply.job_ids.len());
        let demands = reply.job_ids.iter().map(|&id| row(id)).collect();
        let inst = Instance::new(caps.to_vec(), demands).expect("mirror instance");
        let alloc = Allocation::from_split(reply.split.clone());
        assert!(alloc.is_feasible(&inst), "rows misaligned: {:?}", reply);
        let report = audit(&inst, &alloc, FairnessMode::Plain);
        assert!(report.is_certified_amf(), "{}", report.summary());
    }
    client.shutdown().expect("shutdown ack");
    server.join();
}

#[test]
fn concurrent_tenants_match_serial_rational_solves() {
    let server = Server::<Rational>::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    const THREADS: usize = 4;
    const TENANTS_PER_THREAD: usize = 2;
    let caps = [7.0, 5.0, 3.0];

    // Each thread owns its tenants, so per-tenant request order is fixed
    // even though threads interleave arbitrarily on the server.
    let finals: Vec<(String, Vec<f64>, Vec<Vec<f64>>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            handles.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut out = Vec::new();
                for k in 0..TENANTS_PER_THREAD {
                    let tenant = format!("tenant-{t}-{k}");
                    client
                        .create_session(&tenant, &caps, Some("enhanced"))
                        .expect("create");
                    // A burst per round: arrivals, a demand change, one
                    // departure; interleave solves between rounds.
                    for round in 0..3u64 {
                        let base = round * 10;
                        let mut deltas = vec![
                            WireDelta::AddJob {
                                id: base,
                                demands: vec![
                                    (1 + (t as u64 + round) % 4) as f64,
                                    (1 + (k as u64 + round) % 3) as f64,
                                    0.5,
                                ],
                                weight: None,
                            },
                            WireDelta::AddJob {
                                id: base + 1,
                                demands: vec![2.0, 0.25 * (1.0 + round as f64), 1.0],
                                weight: Some(1.0 + (round % 2) as f64),
                            },
                            WireDelta::DemandChange {
                                id: base,
                                site: 2,
                                demand: 1.5,
                            },
                        ];
                        if round > 0 {
                            deltas.push(WireDelta::RemoveJob {
                                id: (round - 1) * 10,
                            });
                        }
                        client.apply_deltas(&tenant, &deltas).expect("apply");
                        client.solve(&tenant).expect("solve");
                    }
                    let last = client.solve(&tenant).expect("final solve");
                    out.push((tenant, last.aggregates, last.split));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Serial mirror: replay every tenant's exact request history (stage
    // the round's deltas in a DeltaBatch, apply at the solve, like the
    // coalescing server does) — the served f64 views must match that
    // single-threaded execution bit-for-bit. Aggregates are additionally
    // anchored against a pure from-scratch solve of the final instance:
    // they are canonical for AMF, unlike the split (a flow decomposition),
    // which is only pinned to the mirrored history.
    for (tenant, aggregates, split) in finals {
        let parts: Vec<&str> = tenant.split('-').collect();
        let (t, k): (u64, u64) = (
            parts[1].parse().expect("thread index"),
            parts[2].parse().expect("tenant index"),
        );
        let mut mirror = IncrementalAmf::<Rational>::new(
            AmfSolver::enhanced(),
            caps.iter()
                .map(|c| Rational::from_wire(*c).expect("representable"))
                .collect(),
        )
        .expect("mirror session");
        let mut batch = DeltaBatch::new();
        for round in 0..3u64 {
            let base = round * 10;
            let mut deltas = vec![
                WireDelta::AddJob {
                    id: base,
                    demands: vec![
                        (1 + (t + round) % 4) as f64,
                        (1 + (k + round) % 3) as f64,
                        0.5,
                    ],
                    weight: None,
                },
                WireDelta::AddJob {
                    id: base + 1,
                    demands: vec![2.0, 0.25 * (1.0 + round as f64), 1.0],
                    weight: Some(1.0 + (round % 2) as f64),
                },
                WireDelta::DemandChange {
                    id: base,
                    site: 2,
                    demand: 1.5,
                },
            ];
            if round > 0 {
                deltas.push(WireDelta::RemoveJob {
                    id: (round - 1) * 10,
                });
            }
            for w in &deltas {
                batch.push(&mirror, as_delta(w)).expect("mirror stage");
            }
            mirror.apply_all(batch.take()).expect("mirror apply");
            mirror.solve();
        }
        let out = mirror.solve();
        let want_agg: Vec<f64> = out
            .allocation
            .aggregates()
            .iter()
            .map(|a| a.to_f64())
            .collect();
        let want_split: Vec<Vec<f64>> = out
            .allocation
            .split()
            .iter()
            .map(|row| row.iter().map(|x| x.to_f64()).collect())
            .collect();
        assert_eq!(aggregates, want_agg, "tenant {tenant} aggregates diverged");
        assert_eq!(split, want_split, "tenant {tenant} split diverged");
        let scratch = AmfSolver::enhanced().solve(&mirror.instance());
        let scratch_agg: Vec<f64> = scratch
            .allocation
            .aggregates()
            .iter()
            .map(|a| a.to_f64())
            .collect();
        assert_eq!(
            aggregates, scratch_agg,
            "tenant {tenant} diverged from the from-scratch solve"
        );
    }

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.sessions, THREADS * TENANTS_PER_THREAD);
    assert_eq!(summary.overloaded, 0);
}

#[test]
fn coalescing_folds_a_delta_burst_into_one_solve() {
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .create_session("t", &[8.0, 8.0], Some("plain"))
        .expect("create");
    client
        .apply_deltas(
            "t",
            &[
                WireDelta::AddJob {
                    id: 0,
                    demands: vec![3.0, 1.0],
                    weight: None,
                },
                WireDelta::AddJob {
                    id: 1,
                    demands: vec![1.0, 4.0],
                    weight: None,
                },
            ],
        )
        .expect("seed jobs");
    // A burst of single-delta requests touching the same entry, which the
    // server folds into one staged write.
    let mut last = 0.0;
    for step in 0..8 {
        last = 1.0 + f64::from(step) * 0.25;
        client
            .apply_deltas(
                "t",
                &[WireDelta::DemandChange {
                    id: 0,
                    site: 1,
                    demand: last,
                }],
            )
            .expect("burst delta");
    }
    let reply = client.solve("t").expect("solve");
    client.shutdown().expect("shutdown");
    let summary = server.join();

    // One solve for the seed jobs and the whole burst.
    assert!(reply.resolved);
    assert_eq!(summary.solves, 1);
    // The seed AddJobs are staged too, so every burst write folds straight
    // into the staged add's demand row: all 8 are eliminated.
    assert_eq!(summary.deltas_coalesced, 8);
    // The answer is the solver's on the final instance, rows by job id.
    let last_write = Instance::new(vec![8.0, 8.0], vec![vec![3.0, last], vec![1.0, 4.0]])
        .expect("valid instance");
    let oracle = AmfSolver::new().solve(&last_write).allocation;
    assert_eq!(reply.job_ids, [0, 1]);
    assert_eq!(reply.aggregates, oracle.aggregates());
}
