//! Active Instance Stacks (AIS) — the sequence index behind the SSC
//! operator.
//!
//! For a pattern with `n` positive components, an [`AisGroup`] keeps one
//! stack per component. When an event matches component `i`, an *instance*
//! is appended to stack `i` carrying its **RIP** ("most Recent Instance in
//! the Previous stack" pointer): the number of instances stack `i-1` held
//! at append time. During sequence construction, the viable predecessors of
//! an instance are exactly the instances of the previous stack with
//! absolute index `< rip` — by construction they arrived earlier, so their
//! timestamps are no greater; a strict timestamp comparison finishes the
//! ordering test.
//!
//! Stacks support pruning from the front (window pushdown) without
//! invalidating RIPs: instances are addressed by *absolute index* (count
//! since stream start), and each stack remembers how many it has dropped.
//!
//! Each instance holds its event's timestamp inline, so pruning and the
//! window-bounded walk of sequence construction read it without chasing
//! the shared event body; a group of up to two stacks holds them inline.

use std::collections::VecDeque;

use crate::error::Result;
use crate::event::{Event, SchemaRegistry};
use crate::snapshot::{EventSnapshot, InstanceSnapshot, StackSnapshot};
use crate::time::Timestamp;

/// One stack entry.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The event bound to this component.
    pub event: Event,
    /// `event.timestamp()`, held inline: pruning and sequence construction
    /// compare timestamps of every instance they walk, and reading them
    /// here saves a pointer chase into the shared event body per step.
    pub ts: Timestamp,
    /// Absolute count of instances in the previous stack at append time.
    /// Zero for the first stack.
    pub rip: usize,
}

/// A pruned-from-the-front stack with absolute indexing.
#[derive(Debug, Default)]
pub struct Stack {
    /// Number of instances pruned from the front since stream start.
    base: usize,
    items: VecDeque<Instance>,
}

impl Stack {
    /// Create an empty stack.
    pub fn new() -> Self {
        Stack::default()
    }

    /// Total instances ever appended (the next instance's absolute index).
    pub fn total(&self) -> usize {
        self.base + self.items.len()
    }

    /// Absolute index of the oldest retained instance.
    pub fn first_index(&self) -> usize {
        self.base
    }

    /// Number of retained instances.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no instances are retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Append an instance; returns its absolute index.
    pub fn push(&mut self, inst: Instance) -> usize {
        let idx = self.total();
        self.items.push_back(inst);
        idx
    }

    /// The instance at absolute index `idx`, if retained.
    pub fn get(&self, idx: usize) -> Option<&Instance> {
        idx.checked_sub(self.base).and_then(|i| self.items.get(i))
    }

    /// Drop instances with `timestamp < min_ts` from the front.
    /// Returns how many were dropped.
    ///
    /// Instances are appended in timestamp order, so expiry is always a
    /// prefix.
    pub fn prune_before(&mut self, min_ts: Timestamp) -> usize {
        let mut dropped = 0;
        while let Some(front) = self.items.front() {
            if front.ts < min_ts {
                self.items.pop_front();
                self.base += 1;
                dropped += 1;
            } else {
                break;
            }
        }
        dropped
    }

    /// Serializable image of this stack (absolute indexing included).
    pub fn snapshot(&self) -> StackSnapshot {
        StackSnapshot {
            base: self.base as u64,
            instances: self
                .items
                .iter()
                .map(|i| InstanceSnapshot {
                    event: EventSnapshot::capture(&i.event),
                    rip: i.rip as u64,
                })
                .collect(),
        }
    }

    /// Rebuild a stack from its snapshot, resolving events against
    /// `registry`.
    pub fn from_snapshot(snap: &StackSnapshot, registry: &SchemaRegistry) -> Result<Stack> {
        let mut items = VecDeque::with_capacity(snap.instances.len());
        for i in &snap.instances {
            let event = i.event.rebuild(registry)?;
            items.push_back(Instance {
                ts: event.timestamp(),
                event,
                rip: i.rip as usize,
            });
        }
        Ok(Stack {
            base: snap.base as usize,
            items,
        })
    }

    /// Iterate retained instances newest-first together with their absolute
    /// indexes, restricted to absolute index `< bound`.
    pub fn iter_below(&self, bound: usize) -> impl Iterator<Item = (usize, &Instance)> {
        let upper = bound.min(self.total());
        let start = self.base;
        // Relative range [0, upper - base), iterated in reverse.
        let count = upper.saturating_sub(start);
        self.items
            .iter()
            .take(count)
            .enumerate()
            .rev()
            .map(move |(i, inst)| (start + i, inst))
    }
}

/// One group of stacks (one per positive component). Unpartitioned plans
/// use a single group; PAIS keeps one group per partition-key value.
#[derive(Debug)]
pub struct AisGroup {
    stacks: GroupStacks,
}

/// A group's stacks. Up to two — every `SEQ(A, B)` — live inline in the
/// group, and so in its PAIS map entry: a probe reaches them without a
/// second pointer chase, and a new partition allocates nothing for them.
/// Longer patterns keep theirs in one heap slice.
#[derive(Debug)]
enum GroupStacks {
    /// The first `len` stacks are the group's.
    Inline {
        stacks: [Stack; 2],
        len: usize,
    },
    Heap(Box<[Stack]>),
}

impl std::ops::Deref for GroupStacks {
    type Target = [Stack];

    fn deref(&self) -> &[Stack] {
        match self {
            GroupStacks::Inline { stacks, len } => &stacks[..*len],
            GroupStacks::Heap(stacks) => stacks,
        }
    }
}

impl std::ops::DerefMut for GroupStacks {
    fn deref_mut(&mut self) -> &mut [Stack] {
        match self {
            GroupStacks::Inline { stacks, len } => &mut stacks[..*len],
            GroupStacks::Heap(stacks) => stacks,
        }
    }
}

impl AisGroup {
    /// Create a group for `n` positive components.
    pub fn new(n: usize) -> Self {
        let stacks = if n <= 2 {
            GroupStacks::Inline {
                stacks: Default::default(),
                len: n,
            }
        } else {
            GroupStacks::Heap((0..n).map(|_| Stack::new()).collect())
        };
        AisGroup { stacks }
    }

    /// The stack for positive component `i`.
    pub fn stack(&self, i: usize) -> &Stack {
        &self.stacks[i]
    }

    /// Mutable access to the stack for positive component `i`.
    pub fn stack_mut(&mut self, i: usize) -> &mut Stack {
        &mut self.stacks[i]
    }

    /// Number of stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// True when the group has no stacks (degenerate).
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Serializable image of every stack, in component order.
    pub fn snapshot(&self) -> Vec<StackSnapshot> {
        self.stacks.iter().map(Stack::snapshot).collect()
    }

    /// Rebuild a group from per-stack snapshots.
    pub fn from_snapshot(stacks: &[StackSnapshot], registry: &SchemaRegistry) -> Result<AisGroup> {
        let mut group = AisGroup::new(stacks.len());
        for (slot, s) in group.stacks.iter_mut().zip(stacks) {
            *slot = Stack::from_snapshot(s, registry)?;
        }
        Ok(group)
    }

    /// Prune every stack; returns total dropped.
    pub fn prune_before(&mut self, min_ts: Timestamp) -> usize {
        self.stacks.iter_mut().map(|s| s.prune_before(min_ts)).sum()
    }

    /// Total retained instances across stacks.
    pub fn retained(&self) -> usize {
        self.stacks.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;
    use crate::value::Value;

    fn ev(ts: u64) -> Event {
        retail_registry()
            .build_event(
                "SHELF_READING",
                ts,
                vec![Value::Int(1), Value::str("p"), Value::Int(1)],
            )
            .unwrap()
    }

    #[test]
    fn absolute_indexing_survives_pruning() {
        let mut s = Stack::new();
        for ts in [1, 2, 3, 4, 5] {
            s.push(Instance {
                event: ev(ts),
                ts,
                rip: 0,
            });
        }
        assert_eq!(s.total(), 5);
        assert_eq!(s.prune_before(3), 2);
        assert_eq!(s.total(), 5);
        assert_eq!(s.first_index(), 2);
        assert_eq!(s.len(), 3);
        assert!(s.get(1).is_none()); // pruned
        assert_eq!(s.get(2).unwrap().event.timestamp(), 3);
        assert_eq!(s.get(4).unwrap().event.timestamp(), 5);
        assert!(s.get(5).is_none());
    }

    #[test]
    fn iter_below_respects_rip_bound_and_pruning() {
        let mut s = Stack::new();
        for ts in [10, 20, 30, 40] {
            s.push(Instance {
                event: ev(ts),
                ts,
                rip: 0,
            });
        }
        // Bound 3 = only absolute indexes 0,1,2; newest first.
        let got: Vec<u64> = s.iter_below(3).map(|(_, i)| i.event.timestamp()).collect();
        assert_eq!(got, vec![30, 20, 10]);

        s.prune_before(20);
        let got: Vec<(usize, u64)> = s
            .iter_below(3)
            .map(|(idx, i)| (idx, i.event.timestamp()))
            .collect();
        assert_eq!(got, vec![(2, 30), (1, 20)]);

        // Bound beyond total clamps.
        let got: Vec<usize> = s.iter_below(99).map(|(idx, _)| idx).collect();
        assert_eq!(got, vec![3, 2, 1]);
    }

    #[test]
    fn stack_snapshot_round_trips_after_pruning() {
        let mut s = Stack::new();
        for ts in [1, 2, 3, 4, 5] {
            s.push(Instance {
                event: ev(ts),
                ts,
                rip: ts as usize - 1,
            });
        }
        s.prune_before(3);
        let snap = s.snapshot();
        assert_eq!(snap.base, 2);
        assert_eq!(snap.instances.len(), 3);
        let back = Stack::from_snapshot(&snap, &retail_registry()).unwrap();
        assert_eq!(back.total(), s.total());
        assert_eq!(back.first_index(), s.first_index());
        let walked: Vec<(usize, u64, usize)> = back
            .iter_below(99)
            .map(|(i, inst)| (i, inst.event.timestamp(), inst.rip))
            .collect();
        let orig: Vec<(usize, u64, usize)> = s
            .iter_below(99)
            .map(|(i, inst)| (i, inst.event.timestamp(), inst.rip))
            .collect();
        assert_eq!(walked, orig);
    }

    #[test]
    fn group_prune_counts() {
        let mut g = AisGroup::new(2);
        g.stack_mut(0).push(Instance {
            event: ev(1),
            ts: 1,
            rip: 0,
        });
        g.stack_mut(0).push(Instance {
            event: ev(5),
            ts: 5,
            rip: 0,
        });
        g.stack_mut(1).push(Instance {
            event: ev(2),
            ts: 2,
            rip: 1,
        });
        assert_eq!(g.retained(), 3);
        assert_eq!(g.prune_before(3), 2);
        assert_eq!(g.retained(), 1);
    }

    #[test]
    fn group_layouts_round_trip() {
        // One and two stacks are held inline, three on the heap.
        for n in 1..=3 {
            let mut g = AisGroup::new(n);
            assert_eq!(g.len(), n);
            for i in 0..n {
                g.stack_mut(i).push(Instance {
                    event: ev(i as u64 + 1),
                    ts: i as u64 + 1,
                    rip: i,
                });
            }
            let back = AisGroup::from_snapshot(&g.snapshot(), &retail_registry()).unwrap();
            assert_eq!(back.len(), n);
            for i in 0..n {
                let inst = back.stack(i).get(0).unwrap();
                assert_eq!((inst.ts, inst.rip), (i as u64 + 1, i));
            }
        }
    }
}
