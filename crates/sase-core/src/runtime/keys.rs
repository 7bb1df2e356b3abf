//! The partition-key table every query of an engine indexes into.
//!
//! §2.1.2's PAIS partitions each query's stacks "across value-based
//! partitions". A [`KeyTable`] interns those values once for all queries:
//! it maps each live partition key to a dense `u32` *slot*, keyed by value
//! rather than by event type, so a query's `x` and `y` of different types
//! meet in one group. Per query, a [`SlotMap`] then reaches its group (or
//! negation bucket) by slot with two array loads.
//!
//! An offer interns an event's key at most once per distinct accessor:
//! the first offer row, of any query, that needs the key through a given
//! accessor extracts and interns it, and the table memoizes the slot for
//! the rest of the offer. The memo is stamped with an offer counter, so it
//! never outlives its event, whatever address a later event lands at.
//!
//! Every group and bucket holds its slot. Dropping one (the periodic
//! sweeps, a restore, an unregister) releases the hold; a slot with no
//! holder leaves the map and goes on a free list that is reused last in,
//! first out, so the table never has more slots than the peak number of
//! live keys. Slot ids depend on arrival and reclamation order, so nothing
//! observable may depend on them: snapshots order events by key, not by
//! slot.

use crate::event::Event;
use crate::hash::FxHashMap;
use crate::value::ValueKey;

use super::KeyAccess;

/// The sentinel for "no entry" in slot-indexed arrays, and for "the
/// event lacks a key attribute" in the offer memo.
const VACANT: u32 = u32::MAX;

/// `n` as a slot or entry id. The number of live keys comes from the
/// input, so the conversion is checked, and it never yields [`VACANT`].
fn id(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&id| id != VACANT)
        .expect("fewer than u32::MAX live partition keys")
}

/// A partition key as the table stores it: a single-part key (the common
/// case) inline in the map entry, so a probe compares it without a
/// pointer chase. Hashes and borrows as the `[ValueKey]` slice it holds,
/// so lookups take a borrowed slice and allocate nothing; `new` is the
/// only constructor, so the derived equality agrees with the slice's.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PartitionKey {
    One(ValueKey),
    Many(Box<[ValueKey]>),
}

impl PartitionKey {
    fn new(parts: &[ValueKey]) -> Self {
        match parts {
            [one] => PartitionKey::One(one.clone()),
            _ => PartitionKey::Many(parts.into()),
        }
    }

    fn as_slice(&self) -> &[ValueKey] {
        match self {
            PartitionKey::One(k) => std::slice::from_ref(k),
            PartitionKey::Many(ks) => ks,
        }
    }
}

impl std::borrow::Borrow<[ValueKey]> for PartitionKey {
    fn borrow(&self) -> &[ValueKey] {
        self.as_slice()
    }
}

impl std::hash::Hash for PartitionKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// One slot of the table: its key while live, and how many groups and
/// buckets hold it.
#[derive(Debug)]
struct Slot {
    key: Option<PartitionKey>,
    holders: u32,
}

/// The interned keys proper: key → slot, slot → key, and the free slots.
#[derive(Debug, Default)]
struct Interned {
    map: FxHashMap<PartitionKey, u32>,
    slots: Vec<Slot>,
    /// Slots without a key, reused last in, first out.
    free: Vec<u32>,
}

impl Interned {
    fn intern(&mut self, parts: &[ValueKey]) -> u32 {
        if let Some(&slot) = self.map.get(parts) {
            return slot;
        }
        let key = PartitionKey::new(parts);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].key = Some(key.clone());
                slot
            }
            None => {
                self.slots.push(Slot {
                    key: Some(key.clone()),
                    holders: 0,
                });
                id(self.slots.len() - 1)
            }
        };
        self.map.insert(key, slot);
        slot
    }
}

/// The offer memo's entry for one accessor: the slot it interned, valid
/// while `offer` is the table's current offer.
#[derive(Debug, Clone, Copy)]
struct Memo {
    offer: u64,
    slot: u32,
}

/// An engine's partition keys, shared by all its queries (see the module
/// documentation).
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    interned: Interned,
    /// The distinct key accessors of the registered offer rows; a row's
    /// accessor id indexes this and `memo`. Entries outlive the queries
    /// that registered them: their number is bounded by the schemas'
    /// attribute positions and names.
    accessors: Vec<KeyAccess>,
    memo: Vec<Memo>,
    /// The current offer, stamped on the memo entries it fills.
    offer: u64,
    /// Reused buffer for multi-part keys.
    scratch: Vec<ValueKey>,
}

impl KeyTable {
    /// The id of `key`'s accessor, registering it on first sight.
    pub(super) fn accessor(&mut self, key: &KeyAccess) -> u32 {
        let at = match self.accessors.iter().position(|a| a == key) {
            Some(at) => at,
            None => {
                self.accessors.push(key.clone());
                self.memo.push(Memo { offer: 0, slot: 0 });
                self.accessors.len() - 1
            }
        };
        id(at)
    }

    /// Start offering a new event: every memoized slot goes stale.
    #[inline]
    pub(crate) fn begin_offer(&mut self) {
        self.offer += 1;
    }

    /// The slot of `event`'s key through `key`, whose id is `accessor`,
    /// or `None` when the event lacks a key attribute. Extracts and interns
    /// only on the accessor's first use in the current offer.
    #[inline]
    pub(super) fn slot_of(&mut self, accessor: u32, key: &KeyAccess, event: &Event) -> Option<u32> {
        debug_assert!(self.offer > 0, "begin_offer before the first slot_of");
        let memo = self.memo[accessor as usize];
        let slot = if memo.offer == self.offer {
            memo.slot
        } else {
            let mut one = None;
            let slot = match key.extract(event, &mut one, &mut self.scratch) {
                Some(parts) => self.interned.intern(parts),
                None => VACANT,
            };
            self.memo[accessor as usize] = Memo {
                offer: self.offer,
                slot,
            };
            slot
        };
        (slot != VACANT).then_some(slot)
    }

    /// The slot of `parts`, interning it if new.
    #[cfg(test)]
    pub(crate) fn intern(&mut self, parts: &[ValueKey]) -> u32 {
        self.interned.intern(parts)
    }

    /// The key a live slot interns.
    pub(crate) fn key(&self, slot: u32) -> &[ValueKey] {
        self.interned.slots[slot as usize]
            .key
            .as_ref()
            .expect("a held slot has a key")
            .as_slice()
    }

    fn hold(&mut self, slot: u32) {
        self.interned.slots[slot as usize].holders += 1;
    }

    /// Drop one hold on `slot`; the last one frees it.
    fn release(&mut self, slot: u32) {
        let entry = &mut self.interned.slots[slot as usize];
        entry.holders -= 1;
        if entry.holders == 0 {
            let key = entry.key.take().expect("a held slot has a key");
            self.interned.map.remove(key.as_slice());
            self.interned.free.push(slot);
        }
    }

    /// Slots allocated so far, live or free: the largest number of keys
    /// that were ever live at once.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.interned.slots.len()
    }

    /// Keys live now.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.interned.map.len()
    }

    /// How many slots the table has room for without growing: the bound
    /// on every [`SlotMap`] index.
    fn capacity(&self) -> usize {
        self.interned.slots.capacity()
    }
}

/// A query's entries (PAIS groups or negation buckets) by slot of a
/// [`KeyTable`]: dense entries, a slot → entry index, and entry → slot.
/// The index costs 4 B per slot the table has room for, whatever the
/// query's own number of entries.
#[derive(Debug)]
pub(crate) struct SlotMap<T> {
    /// Slot → entry, [`VACANT`] where this query has none.
    index: Vec<u32>,
    entries: Vec<T>,
    /// Entry → slot.
    slots: Vec<u32>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap {
            index: Vec::new(),
            entries: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<T> SlotMap<T> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn position(&self, slot: u32) -> Option<usize> {
        match self.index.get(slot as usize) {
            Some(&local) if local != VACANT => Some(local as usize),
            _ => None,
        }
    }

    /// The entry of `slot`, if any.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        self.position(slot).map(|local| &self.entries[local])
    }

    /// The entry of `slot`, if any, mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.position(slot).map(|local| &mut self.entries[local])
    }

    /// The entry of `slot`, made by `make` (and holding the slot) when
    /// there is none.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        slot: u32,
        keys: &mut KeyTable,
        make: impl FnOnce() -> T,
    ) -> &mut T {
        let local = match self.position(slot) {
            Some(local) => local,
            None => self.push(slot, keys, make()),
        };
        &mut self.entries[local]
    }

    /// Add the entry of `slot`, which must have none, holding the slot.
    fn push(&mut self, slot: u32, keys: &mut KeyTable, entry: T) -> usize {
        let at = slot as usize;
        if at >= self.index.len() {
            // Grow to the table's capacity at once: exactly, so the index
            // never outgrows the table, and rarely, since the table's own
            // growth doubles.
            let len = keys.capacity();
            self.index.reserve_exact(len - self.index.len());
            self.index.resize(len, VACANT);
        }
        keys.hold(slot);
        let local = self.entries.len();
        self.index[at] = id(local);
        self.entries.push(entry);
        self.slots.push(slot);
        local
    }

    /// Keep the entries `keep` accepts; the rest release their slots.
    pub(crate) fn retain(&mut self, keys: &mut KeyTable, mut keep: impl FnMut(&mut T) -> bool) {
        let mut local = 0;
        while local < self.entries.len() {
            if keep(&mut self.entries[local]) {
                local += 1;
                continue;
            }
            self.entries.swap_remove(local);
            let slot = self.slots.swap_remove(local);
            self.index[slot as usize] = VACANT;
            if let Some(&moved) = self.slots.get(local) {
                self.index[moved as usize] = local as u32;
            }
            keys.release(slot);
        }
    }

    /// Drop every entry, releasing its slot.
    pub(crate) fn clear(&mut self, keys: &mut KeyTable) {
        self.retain(keys, |_| false);
    }

    /// The entries, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Each entry with the key it is held under, in no particular order.
    pub(crate) fn iter<'a>(
        &'a self,
        keys: &'a KeyTable,
    ) -> impl Iterator<Item = (&'a [ValueKey], &'a T)> {
        self.slots.iter().map(|&s| keys.key(s)).zip(&self.entries)
    }

    /// Bytes of the slot index.
    #[cfg(test)]
    fn index_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u32>()
    }

    /// Bytes of everything else: the entries and their slots.
    #[cfg(test)]
    fn entry_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<T>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{retail_registry, SchemaRegistry};
    use crate::functions::FunctionRegistry;
    use crate::lang::parse_query;
    use crate::plan::Planner;
    use crate::runtime::ais::AisGroup;
    use crate::runtime::ssc::SWEEP_PERIOD;
    use crate::runtime::QueryRuntime;
    use crate::value::Value;

    /// Runtimes of `queries`, all keyed in one table.
    fn runtimes(reg: &SchemaRegistry, queries: &[&str]) -> (Vec<QueryRuntime>, KeyTable) {
        let planner = Planner::new(reg.clone(), FunctionRegistry::with_stdlib());
        let mut keys = KeyTable::default();
        let rts = queries
            .iter()
            .enumerate()
            .map(|(i, src)| {
                let plan = planner.plan(&parse_query(src).unwrap()).unwrap();
                QueryRuntime::in_table(format!("q{i}"), plan, &mut keys)
            })
            .collect();
        (rts, keys)
    }

    /// Offer `event` to every runtime, as an engine routing it to all.
    fn offer(rts: &mut [QueryRuntime], keys: &mut KeyTable, event: &Event) {
        keys.begin_offer();
        let mut out = Vec::new();
        for rt in rts {
            rt.offer(keys, event, &mut out);
        }
    }

    fn ev(reg: &SchemaRegistry, ty: &str, ts: u64, tag: i64, area: i64) -> Event {
        reg.build_event(
            ty,
            ts,
            vec![Value::Int(tag), Value::str("p"), Value::Int(area)],
        )
        .unwrap()
    }

    const SHOPLIFTING: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                               WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 10";
    const MOVES: &str = "EVENT SEQ(SHELF_READING x, SHELF_READING y) \
                         WHERE x.TagId = y.TagId AND x.AreaId != y.AreaId WITHIN 10";

    #[test]
    fn sweeps_give_expired_slots_back() {
        let reg = retail_registry();
        let (mut rts, mut keys) = runtimes(&reg, &[SHOPLIFTING, MOVES]);
        // 2,000 tags, each on a shelf and at the counter (fewer events than
        // a sweep period): groups of both queries and negation buckets, all
        // sharing one slot per tag.
        let mut ts = 0;
        for tag in 0..2_000 {
            ts += 1;
            offer(&mut rts, &mut keys, &ev(&reg, "SHELF_READING", ts, tag, 1));
            ts += 1;
            offer(
                &mut rts,
                &mut keys,
                &ev(&reg, "COUNTER_READING", ts, tag, 1),
            );
        }
        assert_eq!(keys.live(), 2_000);
        assert_eq!(rts[0].retained_state(), (2_000, 2_000));
        // Much later, one tag until both queries have swept: every other
        // window has expired.
        for _ in 0..SWEEP_PERIOD {
            ts += 100;
            offer(&mut rts, &mut keys, &ev(&reg, "SHELF_READING", ts, 0, 1));
        }
        assert_eq!(keys.live(), 1);
        assert_eq!(keys.slots(), 2_000);
        assert_eq!(rts[0].retained_state(), (1, 0));
        // Unregistering releases the rest.
        for rt in &mut rts {
            rt.release(&mut keys);
        }
        assert_eq!(keys.live(), 0);
    }

    #[test]
    fn the_table_never_outgrows_the_peak_of_live_keys() {
        let reg = retail_registry();
        let (mut rts, mut keys) = runtimes(&reg, &[SHOPLIFTING, MOVES]);
        let mut peak = 0;
        let mut ts = 0;
        // Five generations of 1,000 fresh tags, each outliving its window
        // and a sweep.
        for generation in 0..5 {
            for k in 0..2 * SWEEP_PERIOD as i64 {
                ts += 1;
                let tag = generation * 1_000 + k % 1_000;
                let ty = ["SHELF_READING", "COUNTER_READING"][(k % 2) as usize];
                offer(&mut rts, &mut keys, &ev(&reg, ty, ts, tag, k % 3));
                peak = peak.max(keys.live());
            }
        }
        assert!(keys.slots() <= peak, "{} slots, peak {peak}", keys.slots());
        assert!(peak < 5_000, "expired generations were reclaimed");
    }

    #[test]
    fn a_narrow_query_pays_four_bytes_per_slot() {
        let reg = retail_registry();
        let (mut rts, mut keys) = runtimes(
            &reg,
            &[
                "EVENT SEQ(COUNTER_READING x, EXIT_READING z) WHERE x.TagId = z.TagId",
                "EVENT SEQ(SHELF_READING x, EXIT_READING z) WHERE x.AreaId = z.AreaId",
            ],
        );
        for tag in 0..10_000 {
            let e = ev(&reg, "COUNTER_READING", 1 + tag as u64, tag, 1);
            offer(&mut rts, &mut keys, &e);
        }
        // The four areas arrive last, so their slots sit at the top of the
        // table and the narrow query's index spans all of it.
        for area in 0..4 {
            let e = ev(
                &reg,
                "SHELF_READING",
                20_000 + area as u64,
                0,
                20_000 + area,
            );
            offer(&mut rts, &mut keys, &e);
        }
        let (wide, narrow) = (rts[0].seq.groups(), rts[1].seq.groups());
        assert_eq!((wide.len(), narrow.len()), (10_000, 4));
        assert!(keys.capacity() >= 10_004);
        assert!(narrow.index_bytes() <= 4 * keys.capacity());
        let four_groups = 4 * (std::mem::size_of::<AisGroup>() + 4);
        assert!(
            narrow.entry_bytes() <= four_groups,
            "{} bytes of groups",
            narrow.entry_bytes()
        );
    }
}
