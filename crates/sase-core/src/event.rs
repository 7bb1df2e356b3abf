//! Event model: event types, schemas, and events.
//!
//! The Event Generation Layer (§3, component 5) "generates events according
//! to a pre-defined schema". A [`SchemaRegistry`] holds those pre-defined
//! schemas; every [`Event`] is an instance of exactly one registered type
//! with a timestamp in logical time and its typed attributes.
//!
//! Attribute names are matched case-insensitively (the paper itself writes
//! `TagId` in Q1 and `id` / `area_id` in Q2), and every event exposes the
//! pseudo-attribute `timestamp` (also reachable as `ts`).

use std::fmt;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use crate::error::{Result, SaseError};
use crate::hash::FxHashMap;
use crate::time::Timestamp;
use crate::value::{Value, ValueType};

/// Run `f` over the ASCII-lowercased form of `name` without heap-allocating
/// in the common cases: names that are already lowercase are passed through
/// untouched, and mixed-case names up to 64 bytes are lowercased into a
/// stack buffer. Only pathological (>64-byte, mixed-case) names fall back
/// to an owned `String`.
///
/// Every case-insensitive lookup on the ingest/wire path funnels through
/// this, so schema and attribute resolution never allocates per event.
pub(crate) fn with_ascii_lowercase<R>(name: &str, f: impl FnOnce(&str) -> R) -> R {
    if !name.bytes().any(|b| b.is_ascii_uppercase()) {
        return f(name);
    }
    let bytes = name.as_bytes();
    if bytes.len() <= 64 {
        let mut buf = [0u8; 64];
        let slice = &mut buf[..bytes.len()];
        slice.copy_from_slice(bytes);
        slice.make_ascii_lowercase();
        // Lowercasing only rewrites ASCII bytes, so UTF-8 validity holds.
        f(std::str::from_utf8(slice).expect("ascii-lowercasing preserves utf-8"))
    } else {
        f(&name.to_ascii_lowercase())
    }
}

/// Interned identifier of an event type within a [`SchemaRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventTypeId(pub u32);

impl fmt::Display for EventTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type#{}", self.0)
    }
}

/// Schema of one event type: its name and ordered, typed attributes.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Type name as registered (e.g. `SHELF_READING`).
    pub name: Arc<str>,
    /// Ordered attribute declarations.
    pub attributes: Vec<AttributeDecl>,
    /// Lowercased attribute name -> position, for case-insensitive lookup.
    index: FxHashMap<String, usize>,
}

/// A single attribute declaration inside a [`Schema`].
#[derive(Debug, Clone)]
pub struct AttributeDecl {
    /// Attribute name as registered (e.g. `TagId`).
    pub name: Arc<str>,
    /// Declared value type.
    pub ty: ValueType,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// Fails if two attributes collide case-insensitively or an attribute
    /// shadows the `timestamp`/`ts` pseudo-attributes.
    pub fn new(name: impl AsRef<str>, attrs: &[(&str, ValueType)]) -> Result<Schema> {
        let mut index = FxHashMap::default();
        index.reserve(attrs.len());
        let mut attributes = Vec::with_capacity(attrs.len());
        for (pos, (attr, ty)) in attrs.iter().enumerate() {
            let key = attr.to_ascii_lowercase();
            if key == "timestamp" || key == "ts" {
                return Err(SaseError::schema(format!(
                    "attribute `{attr}` shadows the built-in timestamp pseudo-attribute"
                )));
            }
            if index.insert(key, pos).is_some() {
                return Err(SaseError::schema(format!(
                    "duplicate attribute `{attr}` in schema `{}`",
                    name.as_ref()
                )));
            }
            attributes.push(AttributeDecl {
                name: Arc::from(*attr),
                ty: *ty,
            });
        }
        Ok(Schema {
            name: Arc::from(name.as_ref()),
            attributes,
            index,
        })
    }

    /// Number of declared attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Case-insensitive position lookup (allocation-free for names up to
    /// 64 bytes).
    pub fn attr_position(&self, attr: &str) -> Option<usize> {
        with_ascii_lowercase(attr, |lc| self.index.get(lc).copied())
    }

    /// Position lookup for an *already-lowercased* attribute name. The
    /// compiled-predicate fast path lowercases names once at plan time and
    /// resolves through this at eval time — one hash probe, no allocation,
    /// no byte scan.
    pub fn attr_position_lc(&self, attr_lc: &str) -> Option<usize> {
        self.index.get(attr_lc).copied()
    }

    /// Declared type of an attribute.
    pub fn attr_type(&self, attr: &str) -> Option<ValueType> {
        self.attr_position(attr).map(|i| self.attributes[i].ty)
    }
}

/// Registry of event schemas shared by the parser, planner, engine, and the
/// event-generation layer. Cloning is cheap (it is an `Arc` handle) and all
/// methods take `&self`; interior mutability makes it usable concurrently.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Indexed by [`EventTypeId`].
    types: Vec<ResolvedType>,
    by_name: FxHashMap<String, EventTypeId>,
}

impl RegistryInner {
    fn resolve(&self, name: &str) -> Result<&ResolvedType> {
        with_ascii_lowercase(name, |lc| self.by_name.get(lc))
            .and_then(|id| self.types.get(id.0 as usize))
            .ok_or_else(|| SaseError::schema(format!("unknown event type `{name}`")))
    }
}

impl SchemaRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new event type. Type names are case-insensitive.
    pub fn register(&self, name: &str, attrs: &[(&str, ValueType)]) -> Result<EventTypeId> {
        let schema = Schema::new(name, attrs)?;
        let mut inner = self.inner.write();
        let key = name.to_ascii_lowercase();
        if inner.by_name.contains_key(&key) {
            return Err(SaseError::schema(format!(
                "event type `{name}` is already registered"
            )));
        }
        let id = EventTypeId(inner.types.len() as u32);
        inner.types.push(ResolvedType {
            id,
            schema: Arc::new(schema),
        });
        inner.by_name.insert(key, id);
        Ok(id)
    }

    /// Replace the schema of an already-registered event type, keeping its
    /// [`EventTypeId`] stable. The lookup is case-insensitive like
    /// [`SchemaRegistry::register`].
    ///
    /// This exists for *engine-managed derived types*: when every producer
    /// of a derived (`INTO`) stream is unregistered and a new producer with
    /// a different RETURN shape takes over, the engine redefines the stream's
    /// event type rather than mis-building events against the stale schema.
    /// Events built before the redefinition keep their original schema
    /// handle, so they stay internally consistent.
    pub fn redefine(&self, name: &str, attrs: &[(&str, ValueType)]) -> Result<EventTypeId> {
        let schema = Schema::new(name, attrs)?;
        let mut inner = self.inner.write();
        let key = name.to_ascii_lowercase();
        let Some(&id) = inner.by_name.get(&key) else {
            return Err(SaseError::schema(format!(
                "cannot redefine unregistered event type `{name}`"
            )));
        };
        inner.types[id.0 as usize].schema = Arc::new(schema);
        Ok(id)
    }

    /// Look up a type id by name (case-insensitive). The registry stores
    /// pre-lowercased keys, so the lookup itself never heap-allocates —
    /// this sits on the ingest/wire path and runs once per decoded frame.
    pub fn type_id(&self, name: &str) -> Option<EventTypeId> {
        with_ascii_lowercase(name, |lc| self.inner.read().by_name.get(lc).copied())
    }

    /// Fetch the schema for a type id.
    pub fn schema(&self, id: EventTypeId) -> Option<Arc<Schema>> {
        self.inner
            .read()
            .types
            .get(id.0 as usize)
            .map(|t| Arc::clone(&t.schema))
    }

    /// Fetch a schema by name.
    pub fn schema_by_name(&self, name: &str) -> Option<Arc<Schema>> {
        let id = self.type_id(name)?;
        self.schema(id)
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.inner.read().types.len()
    }

    /// True when no types are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of all registered types, in registration order.
    pub fn type_names(&self) -> Vec<Arc<str>> {
        self.inner
            .read()
            .types
            .iter()
            .map(|t| t.schema.name.clone())
            .collect()
    }

    /// Resolve a type name (case-insensitive) to its id and current schema
    /// under one read lock; an unregistered name is a schema error naming
    /// it. The handle builds events of that type without coming back to
    /// the registry; see [`ResolvedType`].
    pub fn resolve(&self, name: &str) -> Result<ResolvedType> {
        self.read().resolve(name).cloned()
    }

    /// Take one read of the registry, to resolve many names under it; see
    /// [`RegistryRead`] for what the holder must not do meanwhile.
    pub fn read(&self) -> RegistryRead<'_> {
        RegistryRead {
            inner: self.inner.read(),
        }
    }

    /// Create a validated event of the named type.
    pub fn build_event(
        &self,
        type_name: &str,
        timestamp: Timestamp,
        attrs: Vec<Value>,
    ) -> Result<Event> {
        self.resolve(type_name)?.build_event(timestamp, attrs)
    }

    /// Create a validated event of the identified type.
    pub fn build_event_by_id(
        &self,
        id: EventTypeId,
        timestamp: Timestamp,
        attrs: Vec<Value>,
    ) -> Result<Event> {
        let ty = self
            .inner
            .read()
            .types
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| SaseError::schema(format!("unknown event type id {id}")))?;
        ty.build_event(timestamp, attrs)
    }
}

/// One read of a [`SchemaRegistry`], held while many names are resolved:
/// a decoder takes one per frame instead of one lock per event.
///
/// # Holding it
///
/// A `RegistryRead` holds the registry's read lock until it is dropped,
/// so [`register`](SchemaRegistry::register) and
/// [`redefine`](SchemaRegistry::redefine) wait for it. While it lives, the
/// thread holding it **must not call back into the registry** — no
/// [`SchemaRegistry`] method, on this handle or any clone of it. The lock
/// is `std`'s `RwLock`, which may park a second read behind a writer that
/// is itself waiting for the first read to end (a deadlock), or panic on
/// it. Nothing reachable from here needs to: [`RegistryRead::resolve`]
/// answers from the held read, and a [`ResolvedType`] builds events from
/// its own schema handle. Resolve, build, then drop the read.
#[derive(Debug)]
pub struct RegistryRead<'a> {
    inner: RwLockReadGuard<'a, RegistryInner>,
}

impl RegistryRead<'_> {
    /// Resolve a type name (case-insensitive) as
    /// [`SchemaRegistry::resolve`] does, without taking the lock again and
    /// without touching the schema's reference count: the handle is
    /// borrowed from the read.
    pub fn resolve(&self, name: &str) -> Result<&ResolvedType> {
        self.inner.resolve(name)
    }
}

/// An event type resolved once against a [`SchemaRegistry`]: its id and
/// the schema it had at that moment.
///
/// This is the constructor for code that wants a type's arity before it
/// has the attributes (a decoder) or builds many events of one type (a
/// generator): resolve the name with [`SchemaRegistry::resolve`] (or
/// [`RegistryRead::resolve`] for many names under one read), then build
/// with [`ResolvedType::build_event_with`], which takes each attribute
/// from a callback and writes it straight into the event, or with
/// [`ResolvedType::build_event`], its wrapper for a `Vec`. Both validate
/// arity and attribute types exactly as [`SchemaRegistry::build_event`]
/// does (same checks, same messages — that method is this one behind a
/// lookup) but touch neither the registry nor its lock.
///
/// **Cost:** `build_event_with` is one allocation, the event itself, for
/// a type of up to three attributes, and two for a wider one (see
/// [`Event`] for the layout); the values it is handed are moved in, so a
/// string attribute costs whatever made its `Arc<str>` and nothing more.
/// `build_event` adds only the caller's `Vec`, which it frees.
///
/// The handle is a snapshot: if the type is later
/// [redefined](SchemaRegistry::redefine), events built from an old handle
/// keep the schema they were validated against, like any event built
/// before the redefinition.
#[derive(Debug, Clone)]
pub struct ResolvedType {
    id: EventTypeId,
    schema: Arc<Schema>,
}

impl ResolvedType {
    /// Fail unless `n` is the schema's arity. [`ResolvedType::build_event`]
    /// checks this itself; a decoder calls it first so that it can refuse a
    /// wrong attribute count before reading that many values.
    pub fn check_arity(&self, n: usize) -> Result<()> {
        if n != self.schema.arity() {
            return Err(SaseError::schema(format!(
                "event of type `{}` expects {} attributes, got {}",
                self.schema.name,
                self.schema.arity(),
                n
            )));
        }
        Ok(())
    }

    /// Create a validated event of this type whose `i`-th attribute is
    /// `attr(i)`. `attr` is called once per declared attribute, in schema
    /// order, and its value is type-checked before the next is asked for;
    /// the first error, from `attr` or from validation, is returned and
    /// nothing is kept.
    pub fn build_event_with<E: From<SaseError>>(
        &self,
        timestamp: Timestamp,
        mut attr: impl FnMut(usize) -> std::result::Result<Value, E>,
    ) -> std::result::Result<Event, E> {
        Event::new(self.id, &self.schema, timestamp, |slots| {
            for (i, (slot, decl)) in slots.iter_mut().zip(&self.schema.attributes).enumerate() {
                let v = attr(i)?;
                self.check_type(decl, &v)?;
                *slot = v;
            }
            Ok(())
        })
    }

    /// Create a validated event of this type from a `Vec` of attributes,
    /// checked as [`ResolvedType::build_event_with`] checks them.
    pub fn build_event(&self, timestamp: Timestamp, attrs: Vec<Value>) -> Result<Event> {
        self.check_arity(attrs.len())?;
        for (decl, v) in self.schema.attributes.iter().zip(&attrs) {
            self.check_type(decl, v)?;
        }
        Event::new(self.id, &self.schema, timestamp, |slots| {
            for (slot, v) in slots.iter_mut().zip(attrs) {
                *slot = v;
            }
            Ok(())
        })
    }

    /// Fail unless `v` fits `decl`. Ints are accepted where floats are
    /// declared (numeric widening), mirroring the coercion in predicate
    /// evaluation.
    fn check_type(&self, decl: &AttributeDecl, v: &Value) -> Result<()> {
        if v.value_type() == decl.ty
            || (decl.ty == ValueType::Float && v.value_type() == ValueType::Int)
        {
            return Ok(());
        }
        Err(SaseError::schema(format!(
            "attribute `{}` of `{}` expects {}, got {}",
            decl.name,
            self.schema.name,
            decl.ty,
            v.value_type()
        )))
    }
}

/// Attribute slots inside an event's own allocation: the three of the
/// paper's readings (`TagId`, `ProductName`, `AreaId`), which every
/// reading type this system generates shares.
const INLINE_ATTRS: usize = 3;

/// An event body: a fixed header and the attributes.
struct EventData {
    type_id: EventTypeId,
    /// How many attributes the event has; inline slots past it hold
    /// [`PAD`]. Sits in what would otherwise be the padding after
    /// `type_id`.
    arity: u32,
    timestamp: Timestamp,
    schema: Arc<Schema>,
    attrs: Attrs,
}

/// Where an event's attributes live. Both cases take the inline array's
/// 72 bytes: the spilled slice's pointer fits in bytes the first inline
/// value leaves unused, so an inline event pays nothing for the other.
enum Attrs {
    /// Up to [`INLINE_ATTRS`] attributes, in the event's own allocation.
    Inline([Value; INLINE_ATTRS]),
    /// A wider event's attributes, in an allocation of their own.
    Spill(Box<[Value]>),
}

/// What fills the inline slots past the event's arity.
const PAD: Value = Value::Bool(false);

/// A single event instance.
///
/// `Event` is a cheap handle (`Arc` internally): sequence construction
/// clones events into composite events freely without copying payloads.
///
/// **Layout.** The handle is one pointer. An event of up to three
/// attributes is one allocation of 112 bytes: a header (type id, arity,
/// timestamp, schema handle) with the attribute values inline behind it,
/// slots past the arity holding a placeholder that [`Event::attrs`] (and
/// `Debug` and `Display`) never show. A wider event keeps its attributes
/// in a second allocation, exactly its arity long. An event never changes
/// once built; the way to a different timestamp is a copy,
/// [`Event::with_timestamp`].
#[derive(Clone)]
pub struct Event {
    data: Arc<EventData>,
}

impl Event {
    /// The one constructor: `fill` writes the `schema.arity()` attributes.
    /// Validation is the caller's.
    fn new<E>(
        type_id: EventTypeId,
        schema: &Arc<Schema>,
        timestamp: Timestamp,
        fill: impl FnOnce(&mut [Value]) -> std::result::Result<(), E>,
    ) -> std::result::Result<Event, E> {
        let arity = schema.arity();
        let attrs = if arity <= INLINE_ATTRS {
            let mut slots = [PAD; INLINE_ATTRS];
            fill(&mut slots[..arity])?;
            Attrs::Inline(slots)
        } else {
            let mut slots = vec![PAD; arity];
            fill(&mut slots)?;
            Attrs::Spill(slots.into_boxed_slice())
        };
        Ok(Event {
            data: Arc::new(EventData {
                type_id,
                arity: arity as u32,
                timestamp,
                schema: Arc::clone(schema),
                attrs,
            }),
        })
    }

    /// The event's type id.
    pub fn type_id(&self) -> EventTypeId {
        self.data.type_id
    }

    /// The event's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.data.schema
    }

    /// The event type name.
    pub fn type_name(&self) -> &str {
        &self.data.schema.name
    }

    /// The event timestamp in logical time units.
    pub fn timestamp(&self) -> Timestamp {
        self.data.timestamp
    }

    /// Attribute values in schema order.
    pub fn attrs(&self) -> &[Value] {
        match &self.data.attrs {
            Attrs::Inline(slots) => &slots[..self.data.arity as usize],
            Attrs::Spill(slots) => slots,
        }
    }

    /// Attribute lookup by name (case-insensitive). `timestamp` / `ts`
    /// resolve to the event timestamp as an integer.
    pub fn attr(&self, name: &str) -> Option<Value> {
        if name.eq_ignore_ascii_case("timestamp") || name.eq_ignore_ascii_case("ts") {
            return Some(Value::Int(self.data.timestamp as i64));
        }
        self.data
            .schema
            .attr_position(name)
            .map(|i| self.attrs()[i].clone())
    }

    /// Attribute lookup by position (no pseudo-attributes).
    pub fn attr_at(&self, pos: usize) -> Option<&Value> {
        self.attrs().get(pos)
    }

    /// The address of the shared body: equal for every clone of one event,
    /// distinct between events alive at the same time. A snapshot tells
    /// retained events apart by it.
    pub(crate) fn body(&self) -> *const () {
        Arc::as_ptr(&self.data).cast()
    }

    /// This event at another timestamp: the same type, schema and
    /// attributes, already validated, copied into a new event without
    /// going back to the registry.
    pub fn with_timestamp(&self, timestamp: Timestamp) -> Event {
        Event::new(self.data.type_id, &self.data.schema, timestamp, |slots| {
            slots.clone_from_slice(self.attrs());
            Ok::<_, std::convert::Infallible>(())
        })
        .unwrap_or_else(|never| match never {})
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("type", &self.type_name())
            .field("timestamp", &self.timestamp())
            .field("attrs", &self.attrs())
            .finish()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}(", self.type_name(), self.timestamp())?;
        for (i, (decl, v)) in self
            .data
            .schema
            .attributes
            .iter()
            .zip(self.attrs())
            .enumerate()
        {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", decl.name, v)?;
        }
        write!(f, ")")
    }
}

/// Registers the three reading types of the paper's retail scenario
/// (`SHELF_READING`, `COUNTER_READING`, `EXIT_READING`) on a fresh registry.
///
/// Each carries `TagId` (int), `ProductName` (string), and `AreaId` (int) so
/// Q1 and Q2 from the paper run unmodified.
pub fn retail_registry() -> SchemaRegistry {
    let reg = SchemaRegistry::new();
    for ty in ["SHELF_READING", "COUNTER_READING", "EXIT_READING"] {
        reg.register(
            ty,
            &[
                ("TagId", ValueType::Int),
                ("ProductName", ValueType::Str),
                ("AreaId", ValueType::Int),
            ],
        )
        .expect("fresh registry cannot collide");
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> SchemaRegistry {
        retail_registry()
    }

    #[test]
    fn register_and_lookup() {
        let r = reg();
        assert_eq!(r.len(), 3);
        assert!(r.type_id("shelf_reading").is_some());
        assert!(r.type_id("SHELF_READING").is_some());
        assert!(r.type_id("NOPE").is_none());
        let s = r.schema_by_name("EXIT_READING").unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr_type("tagid"), Some(ValueType::Int));
        assert_eq!(s.attr_type("ProductName"), Some(ValueType::Str));
    }

    #[test]
    fn duplicate_type_rejected() {
        let r = reg();
        assert!(r.register("shelf_reading", &[]).is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let r = SchemaRegistry::new();
        let err = r.register("T", &[("a", ValueType::Int), ("A", ValueType::Int)]);
        assert!(err.is_err());
    }

    #[test]
    fn timestamp_shadowing_rejected() {
        let r = SchemaRegistry::new();
        assert!(r.register("T", &[("Timestamp", ValueType::Int)]).is_err());
        assert!(r.register("T", &[("ts", ValueType::Int)]).is_err());
    }

    #[test]
    fn event_construction_validates_arity_and_types() {
        let r = reg();
        assert!(r
            .build_event("SHELF_READING", 5, vec![Value::Int(1)])
            .is_err());
        assert!(r
            .build_event(
                "SHELF_READING",
                5,
                vec![Value::str("x"), Value::str("y"), Value::Int(1)]
            )
            .is_err());
        let e = r
            .build_event(
                "SHELF_READING",
                5,
                vec![Value::Int(7), Value::str("milk"), Value::Int(2)],
            )
            .unwrap();
        assert_eq!(e.timestamp(), 5);
        assert_eq!(e.attr("TagId").unwrap(), Value::Int(7));
        assert_eq!(e.attr("tagid").unwrap(), Value::Int(7));
        assert_eq!(e.attr("Timestamp").unwrap(), Value::Int(5));
        assert!(e.attr("nope").is_none());
    }

    #[test]
    fn int_widens_to_declared_float() {
        let r = SchemaRegistry::new();
        r.register("P", &[("price", ValueType::Float)]).unwrap();
        let e = r.build_event("P", 1, vec![Value::Int(3)]).unwrap();
        assert_eq!(e.attr("price").unwrap(), Value::Int(3));
    }

    #[test]
    fn display_is_readable() {
        let r = reg();
        let e = r
            .build_event(
                "EXIT_READING",
                9,
                vec![Value::Int(1), Value::str("soap"), Value::Int(4)],
            )
            .unwrap();
        let s = e.to_string();
        assert!(s.starts_with("EXIT_READING@9("));
        assert!(s.contains("TagId=1"));
        assert!(s.contains("ProductName='soap'"));
    }

    #[test]
    fn case_insensitive_lookup_in_every_spelling() {
        // Regression: `type_id` / `attr_position` must keep resolving all
        // case spellings now that the lookup no longer builds a lowercased
        // `String` per call (pre-lowercased keys + stack-buffer compare).
        let r = reg();
        let id = r.type_id("SHELF_READING").unwrap();
        for spelling in [
            "shelf_reading",
            "Shelf_Reading",
            "SHELF_reading",
            "sHeLf_ReAdInG",
        ] {
            assert_eq!(r.type_id(spelling), Some(id), "spelling {spelling}");
            assert!(r.schema_by_name(spelling).is_some());
        }
        let s = r.schema(id).unwrap();
        for spelling in ["TagId", "tagid", "TAGID", "tagId"] {
            assert_eq!(s.attr_position(spelling), Some(0), "spelling {spelling}");
        }
        assert_eq!(s.attr_position_lc("tagid"), Some(0));
        // Pre-lowercased lookup is exact: it does not re-fold case.
        assert_eq!(s.attr_position_lc("TagId"), None);

        // Names longer than the 64-byte stack buffer still resolve (the
        // rare heap fallback).
        let long = "X".repeat(80);
        let r2 = SchemaRegistry::new();
        r2.register(&long, &[("A", ValueType::Int)]).unwrap();
        assert!(r2.type_id(&long.to_ascii_lowercase()).is_some());
        assert!(r2.type_id(&long).is_some());
        // Non-ASCII names survive the byte-wise lowercase fold (`ë` is
        // untouched; only ASCII letters fold).
        let r3 = SchemaRegistry::new();
        r3.register("Tëmp", &[("Grad°C", ValueType::Float)])
            .unwrap();
        assert!(r3.type_id("tëmp").is_some());
        assert!(r3.type_id("Tëmp").is_some());
        assert!(r3
            .schema_by_name("Tëmp")
            .unwrap()
            .attr_position("grad°c")
            .is_some());
    }

    #[test]
    fn events_are_cheap_handles() {
        let r = reg();
        let e = r
            .build_event(
                "EXIT_READING",
                9,
                vec![Value::Int(1), Value::str("soap"), Value::Int(4)],
            )
            .unwrap();
        let e2 = e.clone();
        assert!(Arc::ptr_eq(&e.data, &e2.data));
    }

    #[test]
    fn a_three_attribute_event_is_one_112_byte_allocation() {
        // The spilled case costs the inline case nothing.
        assert_eq!(
            std::mem::size_of::<Attrs>(),
            3 * std::mem::size_of::<Value>()
        );
        // Two reference counts, then the header and three inline values.
        assert_eq!(16 + std::mem::size_of::<EventData>(), 112);
        assert_eq!(std::mem::size_of::<Event>(), 8);
    }

    #[test]
    fn rebasing_keeps_everything_but_the_timestamp() {
        let r = reg();
        let e = r
            .build_event(
                "EXIT_READING",
                9,
                vec![Value::Int(1), Value::str("soap"), Value::Int(4)],
            )
            .unwrap();
        let moved = e.with_timestamp(40);
        assert_eq!(moved.timestamp(), 40);
        assert_eq!(moved.type_id(), e.type_id());
        assert!(Arc::ptr_eq(moved.schema(), e.schema()));
        assert_eq!(moved.to_string(), e.to_string().replace("@9(", "@40("));
        assert_eq!(e.timestamp(), 9, "the original is untouched");
    }
}
