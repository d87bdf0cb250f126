//! Continuous (standing) range queries over a live-updated database.
//!
//! A subscriber registers a range box and an initial result set; from
//! then on every committed writer batch produces **exactly one**
//! [`QueryDelta`] per subscription — the net `+id` / `−id` effect of
//! that batch on the subscription's result, stamped with the epoch the
//! batch published at. Replaying the initial result plus the delta
//! stream in epoch order reconstructs the range query's answer after
//! any prefix of commits.
//!
//! The registry is storage-agnostic: it folds the committed group
//! — the [`WriteOp`]s the writer logged and applied — into every
//! subscription. The database's commit path clones the group before the
//! page apply consumes it and feeds the clone to
//! [`ContinuousQueries::apply_batch`] *inside* the publish critical
//! section (under the published-state write lock). Since registration
//! runs under the matching read lock around its baseline snapshot query,
//! a subscriber can never observe a gap or an overlap: the baseline and
//! the delta stream tile the commit history exactly.

use crate::db::WriteOp;
use flat_geom::Aabb;
use std::collections::{HashMap, HashSet, VecDeque};

/// Handle to one registered continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContinuousQueryId(pub(crate) u64);

/// The net effect of one committed batch on one subscription.
///
/// `added` and `removed` are disjoint and sorted; a batch that does not
/// touch the subscribed range produces a delta with both empty (the
/// subscriber still learns the epoch advanced).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryDelta {
    /// The epoch the batch published at (see
    /// [`crate::FlatDb`]'s snapshot epochs — a snapshot pinned at epoch
    /// `e` reflects exactly the deltas with `epoch <= e`).
    pub epoch: u64,
    /// Ids that entered the result set, ascending.
    pub added: Vec<u64>,
    /// Ids that left the result set, ascending.
    pub removed: Vec<u64>,
}

impl QueryDelta {
    /// `true` when the batch left the result set unchanged.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

struct Subscription {
    range: Aabb,
    /// Ids currently in the subscription's result set.
    live: HashSet<u64>,
    /// Deltas committed but not yet polled.
    pending: VecDeque<QueryDelta>,
}

/// The registry of live subscriptions of one database.
#[derive(Default)]
pub(crate) struct ContinuousQueries {
    next_id: u64,
    subs: HashMap<u64, Subscription>,
}

impl ContinuousQueries {
    pub(crate) fn new() -> ContinuousQueries {
        ContinuousQueries::default()
    }

    /// Registers a subscription whose baseline result is `initial`.
    /// The caller must hold the publish lock (shared) around the
    /// baseline query *and* this call, so no batch commits in between.
    pub(crate) fn register(
        &mut self,
        range: Aabb,
        initial: impl IntoIterator<Item = u64>,
    ) -> ContinuousQueryId {
        let id = self.next_id;
        self.next_id += 1;
        self.subs.insert(
            id,
            Subscription {
                range,
                live: initial.into_iter().collect(),
                pending: VecDeque::new(),
            },
        );
        ContinuousQueryId(id)
    }

    /// Drops a subscription; `false` if the id was never registered or
    /// already dropped.
    pub(crate) fn unregister(&mut self, id: ContinuousQueryId) -> bool {
        self.subs.remove(&id.0).is_some()
    }

    /// Drains the undelivered deltas of `id` (oldest first); `None` for
    /// an unknown subscription.
    pub(crate) fn poll(&mut self, id: ContinuousQueryId) -> Option<Vec<QueryDelta>> {
        self.subs
            .get_mut(&id.0)
            .map(|s| s.pending.drain(..).collect())
    }

    /// The current result set of `id`, ascending — the baseline plus
    /// every delta applied so far (including undelivered ones).
    pub(crate) fn result(&self, id: ContinuousQueryId) -> Option<Vec<u64>> {
        self.subs.get(&id.0).map(|s| {
            let mut ids: Vec<u64> = s.live.iter().copied().collect();
            ids.sort_unstable();
            ids
        })
    }

    /// Folds one committed batch into every subscription, pushing
    /// exactly one delta (possibly empty) per subscription. Ops are
    /// walked in group order so delete-then-reinsert (and the reverse)
    /// net out exactly as they do in the index.
    pub(crate) fn apply_batch(&mut self, ops: &[WriteOp], epoch: u64) {
        for sub in self.subs.values_mut() {
            let mut added: HashSet<u64> = HashSet::new();
            let mut removed: HashSet<u64> = HashSet::new();
            for op in ops {
                match op {
                    WriteOp::Insert(entries) => {
                        for e in entries {
                            if !e.mbr.intersects(&sub.range) {
                                continue;
                            }
                            if !removed.remove(&e.id) {
                                added.insert(e.id);
                            }
                        }
                    }
                    WriteOp::Delete(ids) => {
                        for id in ids {
                            if !added.remove(id) && sub.live.contains(id) {
                                removed.insert(*id);
                            }
                        }
                    }
                    WriteOp::Compact => {}
                }
            }
            for id in &removed {
                sub.live.remove(id);
            }
            sub.live.extend(added.iter().copied());
            let mut added: Vec<u64> = added.into_iter().collect();
            let mut removed: Vec<u64> = removed.into_iter().collect();
            added.sort_unstable();
            removed.sort_unstable();
            sub.pending.push_back(QueryDelta {
                epoch,
                added,
                removed,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_geom::Point3;
    use flat_rtree::Entry;

    fn boxed(min: f64, max: f64) -> Aabb {
        Aabb::new(Point3::new(min, min, min), Point3::new(max, max, max))
    }

    fn point(v: f64) -> Aabb {
        boxed(v, v)
    }

    #[test]
    fn inserts_and_deletes_stream_as_deltas() {
        let mut reg = ContinuousQueries::new();
        let sub = reg.register(boxed(0.0, 10.0), [1, 2]);
        reg.apply_batch(
            &[WriteOp::Insert(vec![
                Entry::new(3, point(5.0)),
                Entry::new(4, point(50.0)),
            ])],
            7,
        );
        reg.apply_batch(&[WriteOp::Delete(vec![2, 4])], 8);
        let deltas = reg.poll(sub).unwrap();
        assert_eq!(
            deltas,
            vec![
                QueryDelta {
                    epoch: 7,
                    added: vec![3],
                    removed: vec![]
                },
                QueryDelta {
                    epoch: 8,
                    added: vec![],
                    removed: vec![2]
                },
            ]
        );
        assert_eq!(reg.result(sub).unwrap(), vec![1, 3]);
        // Polling again returns nothing new.
        assert!(reg.poll(sub).unwrap().is_empty());
    }

    #[test]
    fn groups_net_out_in_op_order() {
        let mut reg = ContinuousQueries::new();
        let sub = reg.register(boxed(0.0, 10.0), [1]);
        // Delete-then-reinsert of a live id inside one group: no net
        // change. Insert-then-delete of a fresh id: no net change either.
        reg.apply_batch(
            &[
                WriteOp::Delete(vec![1]),
                WriteOp::Insert(vec![Entry::new(1, point(2.0)), Entry::new(9, point(3.0))]),
                WriteOp::Delete(vec![9]),
            ],
            3,
        );
        let deltas = reg.poll(sub).unwrap();
        assert_eq!(deltas.len(), 1, "one delta per committed batch");
        assert!(deltas[0].is_empty());
        assert_eq!(deltas[0].epoch, 3);
        assert_eq!(reg.result(sub).unwrap(), vec![1]);
    }

    #[test]
    fn reinsert_outside_the_range_is_a_removal() {
        let mut reg = ContinuousQueries::new();
        let sub = reg.register(boxed(0.0, 10.0), [5]);
        reg.apply_batch(
            &[
                WriteOp::Delete(vec![5]),
                WriteOp::Insert(vec![Entry::new(5, point(99.0))]),
            ],
            2,
        );
        let deltas = reg.poll(sub).unwrap();
        assert_eq!(deltas[0].removed, vec![5]);
        assert!(deltas[0].added.is_empty());
        assert!(reg.result(sub).unwrap().is_empty());
    }

    #[test]
    fn compaction_and_unrelated_batches_produce_empty_deltas() {
        let mut reg = ContinuousQueries::new();
        let sub = reg.register(boxed(0.0, 1.0), [7]);
        reg.apply_batch(&[WriteOp::Compact], 4);
        reg.apply_batch(&[WriteOp::Insert(vec![Entry::new(8, point(70.0))])], 5);
        let deltas = reg.poll(sub).unwrap();
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(QueryDelta::is_empty));
        assert_eq!(deltas[0].epoch, 4);
        assert_eq!(deltas[1].epoch, 5);
    }

    #[test]
    fn unregister_stops_delivery_and_poll_reports_unknown() {
        let mut reg = ContinuousQueries::new();
        let sub = reg.register(boxed(0.0, 1.0), []);
        assert!(reg.unregister(sub));
        assert!(!reg.unregister(sub));
        assert!(reg.poll(sub).is_none());
        assert!(reg.result(sub).is_none());
    }
}
