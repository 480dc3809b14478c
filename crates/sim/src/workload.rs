//! Churn workload generation: Poisson join/leave streams and member
//! failures, the "highly dynamic" group behaviour the paper's §3 predicts.

use crate::mobility::TimedEvent;
use crate::rng::SplitMix64;
use rgb_core::prelude::*;
use rgb_core::topology::HierarchyLayout;
use std::collections::BTreeSet;

/// Parameters of a churn workload.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Members present at the start.
    pub initial_members: usize,
    /// Mean inter-arrival time of new joins (ticks); `0` disables joins.
    pub mean_join_interval: f64,
    /// Mean lifetime of a member before leaving (ticks); `0` disables
    /// leaves.
    pub mean_lifetime: f64,
    /// Probability a departure is a failure (faulty disconnection) rather
    /// than a voluntary leave.
    pub failure_fraction: f64,
    /// Workload duration (ticks).
    pub duration: u64,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            initial_members: 50,
            mean_join_interval: 100.0,
            mean_lifetime: 2_000.0,
            failure_fraction: 0.2,
            duration: 10_000,
        }
    }
}

/// Generate a time-sorted churn schedule over the APs of `layout`.
pub fn churn(layout: &HierarchyLayout, params: ChurnParams, seed: u64) -> Vec<TimedEvent> {
    let mut rng = SplitMix64::new(seed);
    let aps = layout.aps();
    let mut events: Vec<TimedEvent> = Vec::new();
    let mut next_guid = 0u64;
    let mut luid = 0u64;
    let spawn = |at: u64,
                 rng: &mut SplitMix64,
                 events: &mut Vec<TimedEvent>,
                 next_guid: &mut u64,
                 luid: &mut u64| {
        let guid = Guid(*next_guid);
        *next_guid += 1;
        *luid += 1;
        let ap = *rng.pick(&aps);
        events.push((at, ap, MhEvent::Join { guid, luid: Luid(*luid) }));
        if params.mean_lifetime > 0.0 {
            let leave_at = at as f64 + rng.exponential(params.mean_lifetime).max(1.0);
            if leave_at < params.duration as f64 {
                let ev = if rng.chance(params.failure_fraction) {
                    MhEvent::FailureDetected { guid }
                } else {
                    MhEvent::Leave { guid }
                };
                events.push((leave_at as u64, ap, ev));
            }
        }
    };
    for _ in 0..params.initial_members {
        let at = rng.range(0, 10);
        spawn(at, &mut rng, &mut events, &mut next_guid, &mut luid);
    }
    if params.mean_join_interval > 0.0 {
        let mut t = 0.0f64;
        loop {
            t += rng.exponential(params.mean_join_interval).max(1.0);
            if t >= params.duration as f64 {
                break;
            }
            spawn(t as u64, &mut rng, &mut events, &mut next_guid, &mut luid);
        }
    }
    events.sort_by_key(|&(t, ap, _)| (t, ap));
    events
}

/// Expected final operational membership of a schedule (joins minus
/// departures), for oracle checks.
pub fn expected_members(events: &[TimedEvent]) -> usize {
    members_after(events.iter().copied()).len()
}

/// The members a schedule leaves in the group, folding `events` in the
/// order given: a join, handoff-in or resume adds the GUID, a leave,
/// detected failure or disconnect removes it.
pub(crate) fn members_after(events: impl IntoIterator<Item = TimedEvent>) -> BTreeSet<Guid> {
    let mut present = BTreeSet::new();
    for (_, _, event) in events {
        match event {
            MhEvent::Join { guid, .. }
            | MhEvent::HandoffIn { guid, .. }
            | MhEvent::Resume { guid, .. } => {
                present.insert(guid);
            }
            MhEvent::Leave { guid }
            | MhEvent::FailureDetected { guid }
            | MhEvent::Disconnect { guid } => {
                present.remove(&guid);
            }
        }
    }
    present
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> HierarchyLayout {
        HierarchySpec::new(2, 3).build(GroupId(1)).unwrap()
    }

    #[test]
    fn initial_members_all_join() {
        let params = ChurnParams {
            initial_members: 25,
            mean_join_interval: 0.0,
            mean_lifetime: 0.0,
            failure_fraction: 0.0,
            duration: 100,
        };
        let events = churn(&layout(), params, 1);
        assert_eq!(events.len(), 25);
        assert_eq!(expected_members(&events), 25);
    }

    #[test]
    fn leaves_reduce_expected_membership() {
        let params = ChurnParams {
            initial_members: 30,
            mean_join_interval: 0.0,
            mean_lifetime: 50.0,
            failure_fraction: 0.5,
            duration: 100_000,
        };
        let events = churn(&layout(), params, 2);
        // almost every member departs within the long window
        assert!(expected_members(&events) < 5);
        let failures =
            events.iter().filter(|(_, _, e)| matches!(e, MhEvent::FailureDetected { .. })).count();
        let leaves = events.iter().filter(|(_, _, e)| matches!(e, MhEvent::Leave { .. })).count();
        assert!(failures > 5 && leaves > 5, "both departure kinds present");
    }

    #[test]
    fn continuous_arrivals_follow_rate() {
        let params = ChurnParams {
            initial_members: 0,
            mean_join_interval: 10.0,
            mean_lifetime: 0.0,
            failure_fraction: 0.0,
            duration: 10_000,
        };
        let events = churn(&layout(), params, 3);
        // ≈ duration / mean_interval arrivals
        assert!((700..1300).contains(&events.len()), "got {}", events.len());
    }

    #[test]
    fn schedule_is_sorted_and_guid_unique_per_join() {
        let events = churn(&layout(), ChurnParams::default(), 4);
        for w in events.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        let mut guids: Vec<u64> = events
            .iter()
            .filter_map(|(_, _, e)| match e {
                MhEvent::Join { guid, .. } => Some(guid.0),
                _ => None,
            })
            .collect();
        let before = guids.len();
        guids.sort();
        guids.dedup();
        assert_eq!(guids.len(), before);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = churn(&layout(), ChurnParams::default(), 9);
        let b = churn(&layout(), ChurnParams::default(), 9);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
    }
}
