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
//! the shared event body. Each stack holds its oldest retained instance
//! inline too, and a group of up to two stacks holds its stacks inline in
//! the partition's entry: touching a partition whose stacks hold at most
//! one instance each — almost every partition when keys are many and the
//! window is short — reads no heap buffer of the index; only dropping an
//! expired instance reaches into its event. The instances behind a stack's
//! head live in its tail, a heap ring allocated by the first of them and
//! kept, so a dense partition pays one allocation per stack, not one per
//! spill.

use std::collections::{vec_deque, VecDeque};

use crate::event::Event;
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
///
/// The retained instances, oldest first, are `head` followed by `tail`.
#[derive(Debug, Default)]
pub struct Stack {
    /// Number of instances pruned from the front since stream start.
    base: usize,
    /// The oldest retained instance; `None` exactly when the stack is
    /// empty.
    head: Option<Instance>,
    /// The retained instances after `head`, oldest first. Allocated by the
    /// first instance pushed behind a head and kept from then on, so a
    /// stack that keeps spilling and draining allocates once. Boxed so a
    /// stack stays 40 B: a bare `VecDeque` header is 32.
    #[allow(clippy::box_collection)]
    tail: Option<Box<VecDeque<Instance>>>,
}

impl Stack {
    /// Create an empty stack.
    pub fn new() -> Self {
        Stack::default()
    }

    /// Total instances ever appended (the next instance's absolute index).
    pub fn total(&self) -> usize {
        self.base + self.len()
    }

    /// Absolute index of the oldest retained instance.
    pub fn first_index(&self) -> usize {
        self.base
    }

    /// Number of retained instances.
    pub fn len(&self) -> usize {
        match &self.head {
            None => 0,
            Some(_) => 1 + self.tail.as_ref().map_or(0, |t| t.len()),
        }
    }

    /// True when no instances are retained.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// Append an instance; returns its absolute index.
    pub fn push(&mut self, inst: Instance) -> usize {
        let idx = self.total();
        if self.head.is_none() {
            self.head = Some(inst);
        } else {
            self.tail.get_or_insert_with(Box::default).push_back(inst);
        }
        idx
    }

    /// The instance at absolute index `idx`, if retained.
    pub fn get(&self, idx: usize) -> Option<&Instance> {
        match idx.checked_sub(self.base)? {
            0 => self.head.as_ref(),
            i => self.tail.as_ref()?.get(i - 1),
        }
    }

    /// Drop instances with `timestamp < min_ts` from the front.
    /// Returns how many were dropped.
    ///
    /// Instances are appended in timestamp order, so expiry is always a
    /// prefix. Each dropped head is replaced by the front of the tail, so
    /// the oldest retained instance is always the inline one.
    pub fn prune_before(&mut self, min_ts: Timestamp) -> usize {
        let mut dropped = 0;
        while self.head.as_ref().is_some_and(|h| h.ts < min_ts) {
            self.head = self.tail.as_mut().and_then(|t| t.pop_front());
            dropped += 1;
        }
        self.base += dropped;
        dropped
    }

    /// The retained instances, oldest first.
    pub(crate) fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.head
            .iter()
            .chain(self.tail.iter().flat_map(|t| t.iter()))
    }

    /// Iterate retained instances newest-first together with their absolute
    /// indexes, restricted to absolute index `< bound`.
    pub fn iter_below(&self, bound: usize) -> impl Iterator<Item = (usize, &Instance)> {
        let count = bound.min(self.total()).saturating_sub(self.base);
        let tail = match &self.tail {
            Some(t) if count > 1 => t.range(..count - 1),
            _ => vec_deque::Iter::default(),
        };
        // The bounded part of the tail backwards, then the head.
        self.head
            .as_ref()
            .filter(|_| count > 0)
            .into_iter()
            .chain(tail)
            .rev()
            .zip((self.base..self.base + count).rev())
            .map(|(inst, i)| (i, inst))
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
    /// The first `len` stacks are the group's. A `u8` leaves room for the
    /// variant tag beside it, so a group stays 88 B.
    Inline {
        stacks: [Stack; 2],
        len: u8,
    },
    Heap(Box<[Stack]>),
}

impl std::ops::Deref for GroupStacks {
    type Target = [Stack];

    fn deref(&self) -> &[Stack] {
        match self {
            GroupStacks::Inline { stacks, len } => &stacks[..usize::from(*len)],
            GroupStacks::Heap(stacks) => stacks,
        }
    }
}

impl std::ops::DerefMut for GroupStacks {
    fn deref_mut(&mut self) -> &mut [Stack] {
        match self {
            GroupStacks::Inline { stacks, len } => &mut stacks[..usize::from(*len)],
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
                len: n as u8,
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

    /// The stacks, in component order.
    pub(crate) fn stacks(&self) -> &[Stack] {
        &self.stacks
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

    fn inst(ts: u64, rip: usize) -> Instance {
        Instance {
            event: ev(ts),
            ts,
            rip,
        }
    }

    /// A first stack holding one instance per timestamp.
    fn stack_of(ts: &[u64]) -> Stack {
        let mut s = Stack::new();
        for &t in ts {
            s.push(inst(t, 0));
        }
        s
    }

    /// `iter_below(bound)` as (absolute index, timestamp) pairs.
    fn walk(s: &Stack, bound: usize) -> Vec<(usize, u64)> {
        s.iter_below(bound).map(|(i, inst)| (i, inst.ts)).collect()
    }

    #[test]
    fn absolute_indexing_survives_pruning() {
        let mut s = stack_of(&[1, 2, 3, 4, 5]);
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
        let mut s = stack_of(&[10, 20, 30, 40]);
        // Bound 3 = only absolute indexes 0,1,2; newest first.
        assert_eq!(walk(&s, 3), vec![(2, 30), (1, 20), (0, 10)]);
        s.prune_before(20);
        assert_eq!(walk(&s, 3), vec![(2, 30), (1, 20)]);
        // Bound beyond total clamps.
        let got: Vec<usize> = walk(&s, 99).into_iter().map(|(i, _)| i).collect();
        assert_eq!(got, vec![3, 2, 1]);
    }

    #[test]
    fn stacks_of_zero_to_three_instances() {
        let all = [10, 20, 30];
        for n in 0..=3 {
            let s = stack_of(&all[..n]);
            assert_eq!((s.len(), s.total(), s.is_empty()), (n, n, n == 0));
            // One instance lives in the head; a tail exists from the second.
            assert_eq!(s.head.is_some(), n > 0);
            assert_eq!(s.tail.as_ref().map_or(0, |t| t.len()), n.saturating_sub(1));
            for (i, &ts) in all[..n].iter().enumerate() {
                assert_eq!(s.get(i).unwrap().ts, ts);
            }
            assert!(s.get(n).is_none());
            let newest_first: Vec<(usize, u64)> =
                all[..n].iter().copied().enumerate().rev().collect();
            assert_eq!(walk(&s, 99), newest_first);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn layout_sizes() {
        // The head and the tail pointer take the `VecDeque` header's place.
        assert_eq!(std::mem::size_of::<Stack>(), 40);
        assert_eq!(std::mem::size_of::<AisGroup>(), 88);
    }

    #[test]
    fn pruning_crosses_from_head_into_tail_and_empties_both() {
        let mut s = stack_of(&[1, 2, 3, 4]);
        // The head and one tail instance go; the tail's front is promoted.
        assert_eq!(s.prune_before(3), 2);
        assert_eq!((s.first_index(), s.len()), (2, 2));
        assert_eq!(s.head.as_ref().unwrap().ts, 3);
        // `get` at `base` reads the head, at `base + 1` the tail.
        assert_eq!(s.get(2).unwrap().ts, 3);
        assert_eq!(s.get(3).unwrap().ts, 4);
        assert!(s.get(1).is_none());

        assert_eq!(s.prune_before(100), 2);
        assert!(s.is_empty() && s.head.is_none());
        assert_eq!((s.first_index(), s.total()), (4, 4));
        assert!(s.get(3).is_none() && s.get(4).is_none());
        assert!(walk(&s, 99).is_empty());
        assert_eq!(s.prune_before(100), 0);

        // Pushing again refills the head first, at the next absolute index.
        assert_eq!(s.push(inst(200, 0)), 4);
        assert_eq!(s.get(4).unwrap().ts, 200);
        assert_eq!(s.tail.as_ref().unwrap().len(), 0);
    }

    #[test]
    fn iter_below_bounds_at_head_seam_and_past_total() {
        let mut s = stack_of(&[5, 10, 20, 30, 40]);
        s.prune_before(10); // base 1: head 10, tail 20, 30, 40
        assert!(walk(&s, 0).is_empty());
        assert!(walk(&s, 1).is_empty()); // ends before the head
        assert_eq!(walk(&s, 2), vec![(1, 10)]); // ends in the head
        assert_eq!(walk(&s, 3), vec![(2, 20), (1, 10)]); // at the seam
        assert_eq!(walk(&s, 4), vec![(3, 30), (2, 20), (1, 10)]);
        let all = vec![(4, 40), (3, 30), (2, 20), (1, 10)];
        assert_eq!(walk(&s, 5), all);
        assert_eq!(walk(&s, 6), all); // past total
        assert_eq!(walk(&s, usize::MAX), all);
    }

    #[test]
    fn a_drained_spill_keeps_its_one_instance_in_the_head() {
        let mut s = Stack::new();
        for round in 0..50u64 {
            // Three instances per round, then all but the newest expire:
            // the stack goes 1 -> 4 -> 1 (0 -> 3 -> 1 in the first round).
            for k in 1..=3 {
                s.push(inst(round * 10 + k, 0));
            }
            let expired = if round == 0 { 2 } else { 3 };
            assert_eq!(s.prune_before(round * 10 + 3), expired);
            assert_eq!(s.head.as_ref().unwrap().ts, round * 10 + 3);
            assert!(s.tail.as_ref().unwrap().is_empty());
            assert_eq!((s.first_index(), s.len()), (3 * round as usize + 2, 1));
        }
        // The tail never grew past what one round needs.
        assert!(s.tail.as_ref().unwrap().capacity() < 8);
    }

    #[test]
    fn group_prune_counts() {
        let mut g = AisGroup::new(2);
        g.stack_mut(0).push(inst(1, 0));
        g.stack_mut(0).push(inst(5, 0));
        g.stack_mut(1).push(inst(2, 1));
        assert_eq!(g.retained(), 3);
        assert_eq!(g.prune_before(3), 2);
        assert_eq!(g.retained(), 1);
    }

    #[test]
    fn group_layouts_round_trip() {
        // One and two stacks are held inline, three on the heap; each
        // gives back what was pushed onto it.
        for n in 1..=3 {
            let mut g = AisGroup::new(n);
            assert_eq!(g.len(), n);
            assert_eq!(matches!(g.stacks, GroupStacks::Heap(_)), n > 2);
            // Each instance follows the one instance of the previous stack.
            let rip = |i: usize| i.min(1);
            for i in 0..n {
                g.stack_mut(i).push(inst(i as u64 + 1, rip(i)));
            }
            for i in 0..n {
                let inst = g.stack(i).get(0).unwrap();
                assert_eq!((inst.ts, inst.rip), (i as u64 + 1, rip(i)));
            }
        }
    }
}
