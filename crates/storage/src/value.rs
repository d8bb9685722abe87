//! Typed scalar values and data types.
//!
//! The workload for this reproduction (TPC-H-like tables plus a synthetic
//! star schema) needs 64-bit integers, 64-bit floats, dates, booleans, and
//! dictionary-friendly strings.  `Value` is the dynamically typed scalar
//! exchanged between the expression evaluator, the executor, and the
//! statistics layer; columnar storage keeps data in typed vectors and only
//! materializes `Value`s at evaluation boundaries.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (also used for keys).
    Int,
    /// 64-bit IEEE float (prices, measures).
    Float,
    /// Calendar date, stored as days since 1970-01-01 (may be negative).
    Date,
    /// UTF-8 string (dictionary-encoded in storage).
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// True when a value of this static type can store `v`.
    ///
    /// Mirrors columnar storage's coercions exactly: a `Float` column
    /// accepts `Int` values (widened on push); nothing else coerces,
    /// and NULL is never storable (stored tables are fully populated).
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_) | Value::Int(_))
                | (DataType::Date, Value::Date(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Bool, Value::Bool(_))
        )
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Date => "DATE",
            DataType::Str => "STR",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// `Value` implements a *total* ordering within each type (floats use
/// `total_cmp`), which the index and histogram layers rely on.  Cross-type
/// comparisons between `Int` and `Float` coerce to float; any other
/// cross-type comparison panics, since the planner is expected to have
/// type-checked expressions (`Null` compares less than everything, which
/// matches index ordering conventions).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Days since the Unix epoch.
    Date(i32),
    /// Shared string payload — cloning a `Value::Str` is a refcount bump.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The runtime type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Date(_) => Some(DataType::Date),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Int`.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// Numeric payload widened to `f64` (`Int`, `Float`, or `Date`).
    ///
    /// # Panics
    ///
    /// Panics for non-numeric values.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Float(v) => *v,
            Value::Date(v) => *v as f64,
            other => panic!("expected numeric, found {other:?}"),
        }
    }

    /// Date payload (days since epoch).
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Date`.
    pub fn as_date(&self) -> i32 {
        match self {
            Value::Date(v) => *v,
            other => panic!("expected Date, found {other:?}"),
        }
    }

    /// String payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Str`.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(v) => v,
            other => panic!("expected Str, found {other:?}"),
        }
    }

    /// Boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Bool`.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(v) => *v,
            other => panic!("expected Bool, found {other:?}"),
        }
    }

    /// Total-order comparison used by indexes and sorting.
    ///
    /// NULL sorts first; `Int`/`Float`/`Date` inter-compare numerically.
    ///
    /// # Panics
    ///
    /// Panics on unsupported cross-type comparisons (e.g. `Str` vs `Int`),
    /// which indicate a planner type-checking bug.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Numeric coercions.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Int(a), Date(b)) => a.cmp(&(*b as i64)),
            (Date(a), Int(b)) => (*a as i64).cmp(b),
            (a, b) => panic!("incomparable values: {a:?} vs {b:?}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // NULL == NULL here: this is storage equality (group keys, index
        // keys), not SQL three-valued logic, which lives in the expression
        // evaluator.
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // `Eq` coerces Int↔Float through `as f64` and Int↔Date through
            // `as i64`, so all three hash the `f64` they compare as: values
            // that are equal always hash equally.
            Value::Int(v) => {
                1u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Date(v) => {
                1u8.hash(state);
                f64::from(*v).to_bits().hash(state);
            }
            Value::Str(v) => {
                4u8.hash(state);
                v.hash(state);
            }
            Value::Bool(v) => {
                5u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Date(v) => {
                let (y, m, d) = civil_from_days(*v);
                write!(f, "{y:04}-{m:02}-{d:02}")
            }
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

/// Converts a civil date to days since 1970-01-01 (Howard Hinnant's
/// `days_from_civil` algorithm; valid over the full `i32` day range).
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i32 {
    debug_assert!((1..=12).contains(&month), "bad month {month}");
    debug_assert!((1..=31).contains(&day), "bad day {day}");
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((month + 9) % 12) as i64; // [0, 11], Mar = 0
    let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Converts days since 1970-01-01 back to a civil `(year, month, day)`.
pub fn civil_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

/// Parses a `YYYY-MM-DD` (or the paper's `MM/DD/YY`) date literal into a
/// [`Value::Date`].
///
/// Two-digit years are interpreted in the 1930–2029 window, matching the
/// TPC-H date range used in the paper's experiments ('07/01/97' = 1997).
///
/// # Panics
///
/// Panics on malformed input; date literals in this codebase are
/// programmer-supplied constants.
pub fn parse_date(s: &str) -> Value {
    let (y, m, d) = if s.contains('-') {
        let mut parts = s.splitn(3, '-');
        let y: i32 = parts.next().unwrap().parse().expect("year");
        let m: u32 = parts.next().expect("month").parse().expect("month");
        let d: u32 = parts.next().expect("day").parse().expect("day");
        (y, m, d)
    } else if s.contains('/') {
        let mut parts = s.splitn(3, '/');
        let m: u32 = parts.next().unwrap().parse().expect("month");
        let d: u32 = parts.next().expect("day").parse().expect("day");
        let y_raw: i32 = parts.next().expect("year").parse().expect("year");
        let y = if y_raw < 100 {
            if y_raw >= 30 {
                1900 + y_raw
            } else {
                2000 + y_raw
            }
        } else {
            y_raw
        };
        (y, m, d)
    } else {
        panic!("unrecognized date literal: {s:?}");
    };
    Value::Date(days_from_civil(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1997, 7, 1),
            (1997, 9, 30),
            (2000, 2, 29),
            (1900, 3, 1),
            (2026, 7, 4),
            (1969, 12, 31),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }

    #[test]
    fn parse_date_formats() {
        assert_eq!(parse_date("1997-07-01"), parse_date("07/01/97"));
        assert_eq!(
            parse_date("1997-07-01"),
            Value::Date(days_from_civil(1997, 7, 1))
        );
        // Two-digit year window.
        assert_eq!(
            parse_date("01/01/30"),
            Value::Date(days_from_civil(1930, 1, 1))
        );
        assert_eq!(
            parse_date("01/01/29"),
            Value::Date(days_from_civil(2029, 1, 1))
        );
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Float(2.5));
        assert!(Value::str("apple") < Value::str("banana"));
        assert!(Value::Date(10) < Value::Date(20));
        assert!(Value::Bool(false) < Value::Bool(true));
        assert!(Value::Null < Value::Int(i64::MIN));
    }

    #[test]
    fn ordering_numeric_coercion() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.9) < Value::Int(2));
    }

    #[test]
    #[should_panic(expected = "incomparable")]
    fn ordering_rejects_str_vs_int() {
        Value::str("x").total_cmp(&Value::Int(1));
    }

    #[test]
    fn equality_and_hash_consistency() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(5));
        set.insert(Value::str("five"));
        set.insert(Value::Null);
        assert!(set.contains(&Value::Int(5)));
        assert!(set.contains(&Value::str("five")));
        assert!(set.contains(&Value::Null));
        assert!(!set.contains(&Value::Int(6)));
        // Numerics equal under `total_cmp` must hash equally.
        let hash = |v: &Value| {
            use std::hash::{BuildHasher, BuildHasherDefault};
            BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(v)
        };
        for (a, b) in [
            (Value::Int(5), Value::Float(5.0)),
            (Value::Int(5), Value::Date(5)),
            (Value::Int(-3), Value::Float(-3.0)),
        ] {
            assert_eq!(a, b);
            assert_eq!(hash(&a), hash(&b), "{a:?} vs {b:?}");
        }
        // Numeric probes only: a hash set compares colliding keys with
        // `Eq`, which panics on incomparable (numeric vs string) values.
        let numbers: HashSet<Value> = [Value::Int(5)].into_iter().collect();
        assert!(numbers.contains(&Value::Float(5.0)));
        assert!(numbers.contains(&Value::Date(5)));
        assert!(!numbers.contains(&Value::Float(5.5)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(parse_date("1997-07-01").to_string(), "1997-07-01");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("abc").to_string(), "abc");
    }

    #[test]
    fn accessors_and_types() {
        assert_eq!(Value::Int(3).as_int(), 3);
        assert_eq!(Value::Float(2.5).as_f64(), 2.5);
        assert_eq!(Value::Int(3).as_f64(), 3.0);
        assert_eq!(Value::Date(7).as_date(), 7);
        assert_eq!(Value::str("s").as_str(), "s");
        assert!(Value::Bool(true).as_bool());
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn as_int_panics_on_wrong_type() {
        Value::Float(1.0).as_int();
    }

    #[test]
    fn value_is_small() {
        // Value is passed around constantly; keep it at two words + tag.
        assert!(std::mem::size_of::<Value>() <= 24);
    }
}
