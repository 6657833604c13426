//! Delta coalescing: merge the deltas staged between two solves so the
//! session applies *one* batch and solves once instead of once per delta.
//!
//! A [`DeltaBatch`] sits in front of an [`IncrementalAmf`] session and
//! absorbs deltas with the merge rules
//!
//! * repeated `DemandChange` / `CapacityChange` on the same `(job, site)`
//!   or site: **last writer wins** — earlier staged values are overwritten
//!   in place;
//! * `DemandChange` on a *staged* `AddJob`: folded into the add's demand
//!   row;
//! * `RemoveJob` of a *staged* `AddJob`: both ops cancel (the session
//!   never sees the job);
//! * `RemoveJob` of a live job: any staged demand changes for that job are
//!   dropped (the remove subsumes them).
//!
//! Validation runs *eagerly* against the "session ⊕ staged batch" view, so
//! a client gets `DuplicateJob`/`UnknownJob`/… at `ApplyDeltas` time, not
//! at the next `Solve` — the same errors, at the same point in the stream,
//! as a session applying every delta immediately.

use std::collections::{BTreeMap, BTreeSet};

use amf_core::incremental::{Delta, DeltaError, IncrementalAmf, JobId};
use amf_numeric::Scalar;

/// Staged deltas awaiting the next solve, with coalescing (see the module
/// docs for the merge rules).
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch<S> {
    /// Staged ops in arrival order; `None` marks a cancelled slot.
    ops: Vec<Option<Delta<S>>>,
    /// Live (non-tombstoned) op count.
    live: usize,
    /// Staged `AddJob` position by id.
    add_idx: BTreeMap<JobId, usize>,
    /// Staged `DemandChange` position by `(job, site)` (live jobs only —
    /// demand changes on staged adds merge into the add row).
    demand_idx: BTreeMap<(JobId, usize), usize>,
    /// Staged `CapacityChange` position by site.
    cap_idx: BTreeMap<usize, usize>,
    /// Session-live jobs with a staged `RemoveJob`.
    removed: BTreeSet<JobId>,
    /// Cumulative count of deltas accepted but eliminated by merging.
    coalesced: u64,
}

impl<S: Scalar> DeltaBatch<S> {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch {
            ops: Vec::new(),
            live: 0,
            add_idx: BTreeMap::new(),
            demand_idx: BTreeMap::new(),
            cap_idx: BTreeMap::new(),
            removed: BTreeSet::new(),
            coalesced: 0,
        }
    }

    /// Staged ops that will reach the session at the next [`take`](Self::take).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative count of accepted deltas that merging eliminated (they
    /// were absorbed into an earlier staged op or cancelled outright).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Whether `id` is live in the "session ⊕ staged batch" view.
    fn live_after(&self, session: &IncrementalAmf<S>, id: JobId) -> bool {
        self.add_idx.contains_key(&id) || (session.contains(id) && !self.removed.contains(&id))
    }

    fn tombstone(&mut self, pos: usize) {
        debug_assert!(self.ops[pos].is_some(), "double tombstone");
        self.ops[pos] = None;
        self.live -= 1;
    }

    fn push_op(&mut self, op: Delta<S>) -> usize {
        self.ops.push(Some(op));
        self.live += 1;
        self.ops.len() - 1
    }

    /// Stage `delta`, validating it against `session` as if every staged
    /// op had already been applied. On `Err` the batch is unchanged.
    pub fn push(&mut self, session: &IncrementalAmf<S>, delta: Delta<S>) -> Result<(), DeltaError> {
        match delta {
            Delta::AddJob {
                id,
                demands,
                weight,
            } => {
                if self.live_after(session, id) {
                    return Err(DeltaError::DuplicateJob { id });
                }
                if demands.len() != session.n_sites() {
                    return Err(DeltaError::RaggedDemands {
                        got: demands.len(),
                        expected: session.n_sites(),
                    });
                }
                if demands.iter().any(|d| *d < S::ZERO || !d.is_valid()) {
                    return Err(DeltaError::InvalidValue { what: "demand" });
                }
                if !weight.is_positive() || !weight.is_valid() {
                    return Err(DeltaError::InvalidValue { what: "weight" });
                }
                let pos = self.push_op(Delta::AddJob {
                    id,
                    demands,
                    weight,
                });
                self.add_idx.insert(id, pos);
            }
            Delta::RemoveJob { id } => {
                if let Some(pos) = self.add_idx.remove(&id) {
                    // Staged add + remove cancel: neither reaches the session.
                    self.tombstone(pos);
                    self.coalesced += 2;
                } else if session.contains(id) && !self.removed.contains(&id) {
                    // Drop staged demand changes the remove subsumes.
                    let stale: Vec<(JobId, usize)> = self
                        .demand_idx
                        .range((id, 0)..=(id, usize::MAX))
                        .map(|(k, _)| *k)
                        .collect();
                    for key in stale {
                        let pos = self
                            .demand_idx
                            .remove(&key)
                            .expect("key collected from the index above");
                        self.tombstone(pos);
                        self.coalesced += 1;
                    }
                    self.push_op(Delta::RemoveJob { id });
                    self.removed.insert(id);
                } else {
                    return Err(DeltaError::UnknownJob { id });
                }
            }
            Delta::DemandChange { id, site, demand } => {
                if !self.live_after(session, id) {
                    return Err(DeltaError::UnknownJob { id });
                }
                if site >= session.n_sites() {
                    return Err(DeltaError::SiteOutOfRange {
                        site,
                        n_sites: session.n_sites(),
                    });
                }
                if demand < S::ZERO || !demand.is_valid() {
                    return Err(DeltaError::InvalidValue { what: "demand" });
                }
                if let Some(&pos) = self.add_idx.get(&id) {
                    // Fold into the staged add's demand row.
                    match self.ops[pos].as_mut() {
                        Some(Delta::AddJob { demands, .. }) => demands[site] = demand,
                        _ => unreachable!("add_idx points at a staged AddJob"),
                    }
                    self.coalesced += 1;
                } else if let Some(&pos) = self.demand_idx.get(&(id, site)) {
                    // Last writer wins.
                    match self.ops[pos].as_mut() {
                        Some(Delta::DemandChange { demand: d, .. }) => *d = demand,
                        _ => unreachable!("demand_idx points at a staged DemandChange"),
                    }
                    self.coalesced += 1;
                } else {
                    let pos = self.push_op(Delta::DemandChange { id, site, demand });
                    self.demand_idx.insert((id, site), pos);
                }
            }
            Delta::CapacityChange { site, capacity } => {
                if site >= session.n_sites() {
                    return Err(DeltaError::SiteOutOfRange {
                        site,
                        n_sites: session.n_sites(),
                    });
                }
                if capacity < S::ZERO || !capacity.is_valid() {
                    return Err(DeltaError::InvalidValue { what: "capacity" });
                }
                if let Some(&pos) = self.cap_idx.get(&site) {
                    match self.ops[pos].as_mut() {
                        Some(Delta::CapacityChange { capacity: c, .. }) => *c = capacity,
                        _ => unreachable!("cap_idx points at a staged CapacityChange"),
                    }
                    self.coalesced += 1;
                } else {
                    let pos = self.push_op(Delta::CapacityChange { site, capacity });
                    self.cap_idx.insert(site, pos);
                }
            }
        }
        Ok(())
    }

    /// Drain the staged ops in arrival order, resetting the batch (the
    /// cumulative [`coalesced`](Self::coalesced) counter survives).
    pub fn take(&mut self) -> Vec<Delta<S>> {
        self.add_idx.clear();
        self.demand_idx.clear();
        self.cap_idx.clear();
        self.removed.clear();
        self.live = 0;
        self.ops.drain(..).flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amf_core::AmfSolver;

    fn session() -> IncrementalAmf<f64> {
        let mut s =
            IncrementalAmf::new(AmfSolver::enhanced(), vec![10.0, 10.0]).expect("valid capacities");
        s.apply(Delta::AddJob {
            id: JobId(1),
            demands: vec![4.0, 4.0],
            weight: 1.0,
        })
        .expect("valid add");
        s
    }

    #[test]
    fn last_writer_wins_on_demand_and_capacity() {
        let s = session();
        let mut b = DeltaBatch::new();
        for d in [1.0, 2.0, 3.0] {
            b.push(
                &s,
                Delta::DemandChange {
                    id: JobId(1),
                    site: 0,
                    demand: d,
                },
            )
            .expect("valid");
        }
        b.push(
            &s,
            Delta::CapacityChange {
                site: 1,
                capacity: 5.0,
            },
        )
        .expect("valid");
        b.push(
            &s,
            Delta::CapacityChange {
                site: 1,
                capacity: 7.0,
            },
        )
        .expect("valid");
        assert_eq!(b.len(), 2);
        assert_eq!(b.coalesced(), 3);
        let ops = b.take();
        assert_eq!(
            ops,
            vec![
                Delta::DemandChange {
                    id: JobId(1),
                    site: 0,
                    demand: 3.0
                },
                Delta::CapacityChange {
                    site: 1,
                    capacity: 7.0
                },
            ]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn staged_add_absorbs_demand_changes_and_cancels_with_remove() {
        let s = session();
        let mut b = DeltaBatch::new();
        b.push(
            &s,
            Delta::AddJob {
                id: JobId(2),
                demands: vec![1.0, 1.0],
                weight: 1.0,
            },
        )
        .expect("valid");
        b.push(
            &s,
            Delta::DemandChange {
                id: JobId(2),
                site: 1,
                demand: 9.0,
            },
        )
        .expect("merges into the staged add");
        assert_eq!(b.len(), 1);
        // Cancel: the session never sees job 2.
        b.push(&s, Delta::RemoveJob { id: JobId(2) })
            .expect("valid");
        assert!(b.is_empty());
        assert_eq!(b.coalesced(), 3);
        // Job 2 is gone from the batch view: removing again is an error.
        assert_eq!(
            b.push(&s, Delta::RemoveJob { id: JobId(2) }),
            Err(DeltaError::UnknownJob { id: JobId(2) })
        );
    }

    #[test]
    fn remove_of_live_job_drops_staged_demand_changes() {
        let s = session();
        let mut b = DeltaBatch::new();
        b.push(
            &s,
            Delta::DemandChange {
                id: JobId(1),
                site: 0,
                demand: 2.0,
            },
        )
        .expect("valid");
        b.push(
            &s,
            Delta::DemandChange {
                id: JobId(1),
                site: 1,
                demand: 2.0,
            },
        )
        .expect("valid");
        b.push(&s, Delta::RemoveJob { id: JobId(1) })
            .expect("valid");
        assert_eq!(b.len(), 1);
        assert_eq!(b.coalesced(), 2);
        assert_eq!(b.take(), vec![Delta::RemoveJob { id: JobId(1) }]);
    }

    #[test]
    fn validation_matches_eager_sessions() {
        let s = session();
        let mut b = DeltaBatch::new();
        assert_eq!(
            b.push(
                &s,
                Delta::AddJob {
                    id: JobId(1),
                    demands: vec![1.0, 1.0],
                    weight: 1.0
                }
            ),
            Err(DeltaError::DuplicateJob { id: JobId(1) })
        );
        assert_eq!(
            b.push(
                &s,
                Delta::AddJob {
                    id: JobId(2),
                    demands: vec![1.0],
                    weight: 1.0
                }
            ),
            Err(DeltaError::RaggedDemands {
                got: 1,
                expected: 2
            })
        );
        assert_eq!(
            b.push(
                &s,
                Delta::DemandChange {
                    id: JobId(1),
                    site: 7,
                    demand: 1.0
                }
            ),
            Err(DeltaError::SiteOutOfRange {
                site: 7,
                n_sites: 2
            })
        );
        assert_eq!(
            b.push(
                &s,
                Delta::CapacityChange {
                    site: 0,
                    capacity: -1.0
                }
            ),
            Err(DeltaError::InvalidValue { what: "capacity" })
        );
        // Remove live job, then re-add under the same id: allowed, both ops
        // reach the session in order.
        b.push(&s, Delta::RemoveJob { id: JobId(1) })
            .expect("valid");
        b.push(
            &s,
            Delta::AddJob {
                id: JobId(1),
                demands: vec![2.0, 2.0],
                weight: 1.0,
            },
        )
        .expect("re-add after staged remove");
        assert_eq!(b.len(), 2);
        // Applying the drained batch to the real session succeeds.
        let mut live = session();
        live.apply_all(b.take()).expect("batch replays cleanly");
        assert_eq!(live.job_ids(), vec![JobId(1)]);
        assert_eq!(live.instance().demands()[0], vec![2.0, 2.0]);
    }
}
