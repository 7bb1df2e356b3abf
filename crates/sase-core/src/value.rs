//! Attribute values and value types.
//!
//! SASE events carry typed attributes. The demo scenario uses integers
//! (tag ids, area ids), strings (product names), floats (prices) and
//! booleans (saleable state); timestamps are plain integers in logical time
//! units (see [`crate::time`]).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Result, SaseError};

/// The type of an attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Immutable UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl ValueType {
    /// Whether values of these two types ever compare under
    /// [`Value::sase_eq`] / [`Value::sase_cmp`]: int and float coerce to
    /// each other; every other type compares only with itself.
    pub(crate) fn compares_with(self, other: ValueType) -> bool {
        let numeric = |t| matches!(t, ValueType::Int | ValueType::Float);
        self == other || (numeric(self) && numeric(other))
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Float => write!(f, "float"),
            ValueType::Str => write!(f, "string"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A runtime attribute value.
///
/// Strings are reference-counted so that cloning events (which happens when
/// composite events are constructed) never copies string payloads.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Shared immutable string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`ValueType`] of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Bool(_) => ValueType::Bool,
        }
    }

    /// Interpret the value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret the value as a float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Interpret the value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret the value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True if the value is "truthy" in a WHERE clause: only `Bool(true)`.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Structural equality with numeric coercion (int 3 == float 3.0).
    ///
    /// SASE predicates compare attribute values of possibly different
    /// numeric types; relational systems coerce, so we do too. Values of
    /// incomparable kinds (string vs int) are simply unequal.
    pub fn sase_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Float(_), _) | (_, Value::Float(_)) => {
                match (self.as_float(), other.as_float()) {
                    (Some(a), Some(b)) => a == b,
                    _ => false,
                }
            }
            _ => false,
        }
    }

    /// Total ordering for comparable pairs; `None` for incomparable kinds.
    ///
    /// Numeric values compare across int/float. Strings compare
    /// lexicographically. Booleans compare `false < true`. NaN floats are
    /// placed after all other floats to keep the ordering total on numerics.
    pub fn sase_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Float(_), Value::Int(_) | Value::Float(_))
            | (Value::Int(_), Value::Float(_)) => {
                let a = self.as_float().expect("numeric");
                let b = other.as_float().expect("numeric");
                Some(total_cmp_f64(a, b))
            }
            _ => None,
        }
    }

    /// Arithmetic addition with numeric coercion; strings concatenate.
    pub fn add(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Value::Str(a), Value::Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Ok(Value::str(s))
            }
            _ => self.numeric_binop(other, "+", |a, b| a + b),
        }
    }

    /// Arithmetic subtraction with numeric coercion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            _ => self.numeric_binop(other, "-", |a, b| a - b),
        }
    }

    /// Arithmetic multiplication with numeric coercion.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            _ => self.numeric_binop(other, "*", |a, b| a * b),
        }
    }

    /// Arithmetic division; integer division for int/int, error on zero.
    pub fn div(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(SaseError::eval("division by zero".to_string())),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a / b)),
            _ => self.numeric_binop(other, "/", |a, b| a / b),
        }
    }

    /// Arithmetic modulo; error on zero divisor for integers.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(SaseError::eval("modulo by zero".to_string())),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a % b)),
            _ => self.numeric_binop(other, "%", |a, b| a % b),
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        f: impl FnOnce(f64, f64) -> f64,
    ) -> Result<Value> {
        match (self.as_float(), other.as_float()) {
            (Some(a), Some(b)) => Ok(Value::Float(f(a, b))),
            _ => Err(SaseError::eval(format!(
                "cannot apply `{op}` to {} and {}",
                self.value_type(),
                other.value_type()
            ))),
        }
    }
}

/// Total order on f64 treating NaN as greater than everything.
fn total_cmp_f64(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => {
            // At least one NaN: NaN sorts last; two NaNs are equal.
            match (a.is_nan(), b.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => unreachable!("partial_cmp only fails on NaN"),
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sase_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A hashable, totally-ordered key derived from a [`Value`], used for
/// partitioning (PAIS), data-parallel shard routing, and grouping in the
/// event database.
///
/// Key derivation must agree with [`Value::sase_eq`]: two values that an
/// equivalence predicate considers equal must produce the same key, or a
/// partitioned configuration silently misses matches that the explicit
/// predicate finds. `sase_eq` coerces across numeric kinds
/// (`Int(3) == Float(3.0)`), so floats with an exactly representable
/// integer value (|x| ≤ 2⁵³) are keyed as `Int`; the remaining floats are
/// keyed by their bit pattern after normalizing `-0.0` to `0.0` and
/// collapsing all NaNs, so equal floats hash equally.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKey {
    /// Integer key.
    Int(i64),
    /// Normalized float bits.
    Float(u64),
    /// String key.
    Str(Arc<str>),
    /// Boolean key.
    Bool(bool),
}

impl ValueKey {
    /// Derive the partition key for a value.
    pub fn from_value(v: &Value) -> ValueKey {
        match v {
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(x) => {
                // Integral floats in the exactly-representable range key as
                // ints so PAIS buckets agree with `sase_eq`'s numeric
                // coercion (routing `Int(3)` and `Float(3.0)` to different
                // buckets would drop matches the explicit predicate finds).
                const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
                if x.fract() == 0.0 && x.abs() <= EXACT {
                    return ValueKey::Int(*x as i64);
                }
                let norm = if x.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    x.to_bits()
                };
                ValueKey::Float(norm)
            }
            Value::Str(s) => ValueKey::Str(s.clone()),
            Value::Bool(b) => ValueKey::Bool(*b),
        }
    }
}

impl fmt::Display for ValueKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKey::Int(i) => write!(f, "{i}"),
            ValueKey::Float(bits) => write!(f, "{}", f64::from_bits(*bits)),
            ValueKey::Str(s) => write!(f, "'{s}'"),
            ValueKey::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::Float(1.0).value_type(), ValueType::Float);
        assert_eq!(Value::str("a").value_type(), ValueType::Str);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
    }

    #[test]
    fn compares_with_is_the_rule_sase_cmp_implements() {
        let samples = [
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(f64::NAN),
            Value::str("3"),
            Value::Bool(true),
        ];
        for a in &samples {
            for b in &samples {
                let rule = a.value_type().compares_with(b.value_type());
                assert_eq!(rule, a.sase_cmp(b).is_some(), "{a:?} vs {b:?}");
                // Equality never holds across types the rule separates.
                assert!(rule || !a.sase_eq(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn numeric_coercion_equality() {
        assert!(Value::Int(3).sase_eq(&Value::Float(3.0)));
        assert!(Value::Float(3.0).sase_eq(&Value::Int(3)));
        assert!(!Value::Int(3).sase_eq(&Value::str("3")));
        assert!(!Value::Bool(true).sase_eq(&Value::Int(1)));
    }

    #[test]
    fn ordering_across_numeric_types() {
        assert_eq!(
            Value::Int(2).sase_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(10.0).sase_cmp(&Value::Int(3)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::str("a").sase_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("a").sase_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn nan_ordering_is_total_on_numerics() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.sase_cmp(&Value::Float(1.0)), Some(Ordering::Greater));
        assert_eq!(Value::Float(1.0).sase_cmp(&nan), Some(Ordering::Less));
        assert_eq!(nan.sase_cmp(&nan), Some(Ordering::Equal));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::str("ab").add(&Value::str("cd")).unwrap(),
            Value::str("abcd")
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).rem(&Value::Int(2)).unwrap(), Value::Int(1));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Int(1).rem(&Value::Int(0)).is_err());
        assert!(Value::Bool(true).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn value_key_normalizes_floats() {
        let a = ValueKey::from_value(&Value::Float(0.0));
        let b = ValueKey::from_value(&Value::Float(-0.0));
        assert_eq!(a, b);
        let n1 = ValueKey::from_value(&Value::Float(f64::NAN));
        let n2 = ValueKey::from_value(&Value::Float(-f64::NAN));
        assert_eq!(n1, n2);
    }

    /// Key derivation must agree with `sase_eq`: heterogeneously typed but
    /// numerically equal values land in the same partition bucket (and so
    /// on the same data shard), while genuinely different values do not.
    #[test]
    fn value_key_unifies_integral_floats_with_ints() {
        assert_eq!(
            ValueKey::from_value(&Value::Float(3.0)),
            ValueKey::from_value(&Value::Int(3))
        );
        assert_eq!(
            ValueKey::from_value(&Value::Float(-0.0)),
            ValueKey::from_value(&Value::Int(0))
        );
        assert_ne!(
            ValueKey::from_value(&Value::Float(3.5)),
            ValueKey::from_value(&Value::Int(3))
        );
        assert_ne!(
            ValueKey::from_value(&Value::str("3")),
            ValueKey::from_value(&Value::Int(3))
        );
        // Beyond 2^53 the float can no longer represent every integer, so
        // it keeps its own bucket instead of keying as a rounded int.
        let big = 2f64.powi(60);
        assert_eq!(
            ValueKey::from_value(&Value::Float(big)),
            ValueKey::Float(big.to_bits())
        );
        assert!(matches!(
            ValueKey::from_value(&Value::Float(f64::INFINITY)),
            ValueKey::Float(_)
        ));
    }

    #[test]
    fn display_round_trip_style() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("x").to_string(), "'x'");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
