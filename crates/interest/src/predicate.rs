use std::fmt;

use crate::AttributeValue;

/// A half-open, closed or unbounded numeric interval used by comparison
/// predicates such as `c > 40.0` or `10.0 < c < 220.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericRange {
    min: Option<f64>,
    min_inclusive: bool,
    max: Option<f64>,
    max_inclusive: bool,
}

impl NumericRange {
    /// The degenerate interval containing exactly `value`.
    pub fn point(value: f64) -> Self {
        Self {
            min: Some(value),
            min_inclusive: true,
            max: Some(value),
            max_inclusive: true,
        }
    }

    /// Creates an interval from optional bounds.
    pub fn new(
        min: Option<f64>,
        min_inclusive: bool,
        max: Option<f64>,
        max_inclusive: bool,
    ) -> Self {
        Self {
            min,
            min_inclusive,
            max,
            max_inclusive,
        }
    }

    /// Returns `true` if the value lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        let above_min = match self.min {
            None => true,
            Some(min) => {
                if self.min_inclusive {
                    value >= min
                } else {
                    value > min
                }
            }
        };
        let below_max = match self.max {
            None => true,
            Some(max) => {
                if self.max_inclusive {
                    value <= max
                } else {
                    value < max
                }
            }
        };
        above_min && below_max
    }

    /// Returns `true` if the interval contains no value (e.g. `(5, 3)`).
    pub fn is_empty(&self) -> bool {
        match (self.min, self.max) {
            (Some(min), Some(max)) => {
                min > max || (min == max && !(self.min_inclusive && self.max_inclusive))
            }
            _ => false,
        }
    }

    /// Returns the convex hull of two intervals: the smallest interval
    /// containing both.  Used by interest regrouping; the hull is an
    /// over-approximation of the union.
    pub fn hull(&self, other: &NumericRange) -> NumericRange {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (min, min_inclusive) = match (self.min, other.min) {
            (None, _) | (_, None) => (None, false),
            (Some(a), Some(b)) => {
                if a < b {
                    (Some(a), self.min_inclusive)
                } else if b < a {
                    (Some(b), other.min_inclusive)
                } else {
                    (Some(a), self.min_inclusive || other.min_inclusive)
                }
            }
        };
        let (max, max_inclusive) = match (self.max, other.max) {
            (None, _) | (_, None) => (None, false),
            (Some(a), Some(b)) => {
                if a > b {
                    (Some(a), self.max_inclusive)
                } else if b > a {
                    (Some(b), other.max_inclusive)
                } else {
                    (Some(a), self.max_inclusive || other.max_inclusive)
                }
            }
        };
        NumericRange {
            min,
            min_inclusive,
            max,
            max_inclusive,
        }
    }
}

impl fmt::Display for NumericRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.min {
            Some(min) => write!(f, "{}{min}", if self.min_inclusive { "[" } else { "(" })?,
            None => write!(f, "(-inf")?,
        }
        write!(f, ", ")?;
        match self.max {
            Some(max) => write!(f, "{max}{}", if self.max_inclusive { "]" } else { ")" }),
            None => write!(f, "+inf)"),
        }
    }
}

/// A criterion on a single event attribute.
///
/// The absence of a criterion for an attribute is interpreted as a wildcard
/// (paper, Section 2.3), which the explicit [`Predicate::Any`] variant also
/// expresses — it is what interest regrouping widens to when the individual
/// criteria become too heterogeneous to summarise precisely.
///
/// # Example
///
/// ```rust
/// use pmcast_interest::{AttributeValue, Predicate};
///
/// // b > 0
/// let p = Predicate::gt(0.0);
/// assert!(p.evaluate(&AttributeValue::Int(3)));
/// assert!(!p.evaluate(&AttributeValue::Int(0)));
///
/// // e = "Bob" ∨ "Tom"
/// let names = Predicate::one_of(["Bob", "Tom"]);
/// assert!(names.evaluate(&AttributeValue::Str("Tom".into())));
/// assert!(!names.evaluate(&AttributeValue::Str("Eve".into())));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum Predicate {
    /// Matches any value (wildcard).
    #[default]
    Any,
    /// Matches values equal to the given one (numeric coercion applies).
    Eq(AttributeValue),
    /// Matches values different from the given one.
    Ne(AttributeValue),
    /// Matches values equal to any of the given ones (a disjunction like
    /// `e = "Bob" ∨ "Tom"` in the paper's Figure 2).
    OneOf(Vec<AttributeValue>),
    /// Matches numeric values inside the interval.
    InRange(NumericRange),
}

impl Predicate {
    /// `attribute > bound`
    pub fn gt(bound: f64) -> Self {
        Predicate::InRange(NumericRange::new(Some(bound), false, None, false))
    }

    /// `attribute ≥ bound`
    pub fn ge(bound: f64) -> Self {
        Predicate::InRange(NumericRange::new(Some(bound), true, None, false))
    }

    /// `attribute < bound`
    pub fn lt(bound: f64) -> Self {
        Predicate::InRange(NumericRange::new(None, false, Some(bound), false))
    }

    /// `attribute ≤ bound`
    pub fn le(bound: f64) -> Self {
        Predicate::InRange(NumericRange::new(None, false, Some(bound), true))
    }

    /// `lo < attribute < hi`
    pub fn open_range(lo: f64, hi: f64) -> Self {
        Predicate::InRange(NumericRange::new(Some(lo), false, Some(hi), false))
    }

    /// `lo ≤ attribute ≤ hi`
    pub fn closed_range(lo: f64, hi: f64) -> Self {
        Predicate::InRange(NumericRange::new(Some(lo), true, Some(hi), true))
    }

    /// `attribute = value` for an integer value.
    pub fn eq_int(value: i64) -> Self {
        Predicate::Eq(AttributeValue::Int(value))
    }

    /// `attribute ∈ {values…}`
    pub fn one_of<V, I>(values: I) -> Self
    where
        V: Into<AttributeValue>,
        I: IntoIterator<Item = V>,
    {
        Predicate::OneOf(values.into_iter().map(Into::into).collect())
    }

    /// Evaluates the predicate against a single attribute value.
    pub fn evaluate(&self, value: &AttributeValue) -> bool {
        match self {
            Predicate::Any => true,
            Predicate::Eq(expected) => value.loosely_equals(expected),
            Predicate::Ne(expected) => !value.loosely_equals(expected),
            Predicate::OneOf(options) => options.iter().any(|o| value.loosely_equals(o)),
            Predicate::InRange(range) => match value.as_numeric() {
                Some(v) => range.contains(v),
                None => false,
            },
        }
    }

    /// Returns a predicate accepting everything either `self` or `other`
    /// accepts (and possibly more).  This is the widening step of interest
    /// regrouping (Section 2.3): precision is traded for compactness but the
    /// result is always an **over-approximation** of the union.
    pub fn union(&self, other: &Predicate) -> Predicate {
        use Predicate::*;
        match (self, other) {
            (Any, _) | (_, Any) | (Ne(_), _) | (_, Ne(_)) => Any,
            (Eq(a), Eq(b)) => match (a.as_numeric(), b.as_numeric()) {
                (Some(x), Some(y)) => {
                    if x == y {
                        Eq(a.clone())
                    } else {
                        InRange(NumericRange::point(x).hull(&NumericRange::point(y)))
                    }
                }
                _ => {
                    if a.loosely_equals(b) {
                        Eq(a.clone())
                    } else {
                        OneOf(vec![a.clone(), b.clone()])
                    }
                }
            },
            (Eq(a), OneOf(options)) | (OneOf(options), Eq(a)) => {
                let mut merged = options.clone();
                if !merged.iter().any(|o| o.loosely_equals(a)) {
                    merged.push(a.clone());
                }
                OneOf(merged)
            }
            (OneOf(a), OneOf(b)) => {
                let mut merged = a.clone();
                for value in b {
                    if !merged.iter().any(|o| o.loosely_equals(value)) {
                        merged.push(value.clone());
                    }
                }
                OneOf(merged)
            }
            (InRange(a), InRange(b)) => InRange(a.hull(b)),
            (InRange(range), Eq(value)) | (Eq(value), InRange(range)) => {
                match value.as_numeric() {
                    Some(v) => InRange(range.hull(&NumericRange::point(v))),
                    None => Any,
                }
            }
            (InRange(range), OneOf(options)) | (OneOf(options), InRange(range)) => {
                let mut hull = range.clone();
                for value in options {
                    match value.as_numeric() {
                        Some(v) => hull = hull.hull(&NumericRange::point(v)),
                        None => return Any,
                    }
                }
                InRange(hull)
            }
        }
    }

    /// Returns `true` if the predicate is the wildcard.
    pub fn is_any(&self) -> bool {
        matches!(self, Predicate::Any)
    }
}


impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Any => write!(f, "*"),
            Predicate::Eq(v) => write!(f, "= {v}"),
            Predicate::Ne(v) => write!(f, "≠ {v}"),
            Predicate::OneOf(options) => {
                write!(f, "∈ {{")?;
                let mut first = true;
                for o in options {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{o}")?;
                    first = false;
                }
                write!(f, "}}")
            }
            Predicate::InRange(range) => write!(f, "∈ {range}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> AttributeValue {
        AttributeValue::Int(v)
    }
    fn float(v: f64) -> AttributeValue {
        AttributeValue::Float(v)
    }
    fn string(v: &str) -> AttributeValue {
        AttributeValue::Str(v.to_string())
    }

    #[test]
    fn comparison_predicates() {
        assert!(Predicate::gt(0.0).evaluate(&int(1)));
        assert!(!Predicate::gt(0.0).evaluate(&int(0)));
        assert!(Predicate::ge(0.0).evaluate(&int(0)));
        assert!(Predicate::lt(10.0).evaluate(&float(9.9)));
        assert!(!Predicate::lt(10.0).evaluate(&float(10.0)));
        assert!(Predicate::le(10.0).evaluate(&float(10.0)));
        assert!(Predicate::open_range(10.0, 220.0).evaluate(&float(50.0)));
        assert!(!Predicate::open_range(10.0, 220.0).evaluate(&float(10.0)));
        assert!(Predicate::closed_range(10.0, 220.0).evaluate(&float(10.0)));
        // Comparisons never match non-numeric values.
        assert!(!Predicate::gt(0.0).evaluate(&string("5")));
    }

    #[test]
    fn equality_predicates() {
        assert!(Predicate::eq_int(2).evaluate(&int(2)));
        assert!(Predicate::eq_int(2).evaluate(&float(2.0)));
        assert!(!Predicate::eq_int(2).evaluate(&int(3)));
        assert!(Predicate::Eq("Bob".into()).evaluate(&string("Bob")));
        assert!(!Predicate::Eq("Bob".into()).evaluate(&string("Tom")));
        assert!(Predicate::Ne(int(2)).evaluate(&int(3)));
        assert!(!Predicate::Ne(int(2)).evaluate(&int(2)));
    }

    #[test]
    fn one_of_predicate() {
        // e = "Bob" ∨ "Tom" from Figure 2.
        let p = Predicate::one_of(["Bob", "Tom"]);
        assert!(p.evaluate(&string("Bob")));
        assert!(p.evaluate(&string("Tom")));
        assert!(!p.evaluate(&string("Eve")));
    }

    #[test]
    fn wildcard_matches_everything() {
        for v in [int(0), float(1.5), string("x"), AttributeValue::Bool(true)] {
            assert!(Predicate::Any.evaluate(&v));
        }
        assert!(Predicate::Any.is_any());
        assert_eq!(Predicate::default(), Predicate::Any);
    }

    #[test]
    fn range_hull_is_convex() {
        let a = NumericRange::new(Some(1.0), false, Some(5.0), true);
        let b = NumericRange::new(Some(3.0), true, Some(10.0), false);
        let hull = a.hull(&b);
        assert_eq!(hull.min, Some(1.0));
        assert!(!hull.min_inclusive);
        assert_eq!(hull.max, Some(10.0));
        assert!(!hull.max_inclusive);
        // Unbounded sides win.
        let c = NumericRange::new(None, false, Some(2.0), true);
        assert_eq!(a.hull(&c).min, None);
    }

    #[test]
    fn range_empty_and_point() {
        assert!(NumericRange::new(Some(5.0), true, Some(3.0), true).is_empty());
        assert!(NumericRange::new(Some(3.0), false, Some(3.0), true).is_empty());
        assert!(!NumericRange::point(3.0).is_empty());
        assert!(NumericRange::point(3.0).contains(3.0));
        assert!(NumericRange::new(None, false, None, false).contains(f64::MAX));
        // Hull with an empty interval is the other interval.
        let empty = NumericRange::new(Some(5.0), true, Some(3.0), true);
        let other = NumericRange::point(7.0);
        assert_eq!(empty.hull(&other), other);
        assert_eq!(other.hull(&empty), other);
    }

    /// Union must be an over-approximation: any value accepted by either
    /// operand is accepted by the union.
    #[test]
    fn union_is_sound_on_samples() {
        let predicates = vec![
            Predicate::Any,
            Predicate::eq_int(2),
            Predicate::Eq(2.5.into()),
            Predicate::Eq("Bob".into()),
            Predicate::Ne(int(7)),
            Predicate::one_of(["Bob", "Tom"]),
            Predicate::one_of([1i64, 5i64]),
            Predicate::gt(0.0),
            Predicate::lt(100.0),
            Predicate::open_range(10.0, 20.0),
            Predicate::closed_range(-5.0, 5.0),
        ];
        let samples = vec![
            int(-10),
            int(0),
            int(1),
            int(2),
            int(5),
            int(7),
            int(15),
            int(1000),
            float(2.5),
            float(10.0),
            float(19.999),
            string("Bob"),
            string("Tom"),
            string("Eve"),
            AttributeValue::Bool(true),
        ];
        for a in &predicates {
            for b in &predicates {
                let u = a.union(b);
                for s in &samples {
                    if a.evaluate(s) || b.evaluate(s) {
                        assert!(
                            u.evaluate(s),
                            "union of {a} and {b} must accept {s} accepted by an operand"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn union_specific_shapes() {
        // Two numeric equalities widen to their hull.
        let u = Predicate::eq_int(2).union(&Predicate::eq_int(8));
        assert!(u.evaluate(&int(5)));
        // Two string equalities become OneOf.
        let u = Predicate::Eq("Bob".into()).union(&Predicate::Eq("Tom".into()));
        assert_eq!(u, Predicate::one_of(["Bob", "Tom"]));
        // Mixing a numeric range with a string equality widens to Any.
        let u = Predicate::gt(5.0).union(&Predicate::Eq("Bob".into()));
        assert_eq!(u, Predicate::Any);
        // OneOf absorbs duplicates.
        let u = Predicate::one_of(["Bob"]).union(&Predicate::one_of(["Bob", "Tom"]));
        assert_eq!(u, Predicate::one_of(["Bob", "Tom"]));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Predicate::Any.to_string(), "*");
        assert_eq!(Predicate::eq_int(2).to_string(), "= 2");
        assert!(Predicate::gt(0.0).to_string().contains("(0"));
        assert!(Predicate::one_of(["Bob", "Tom"]).to_string().contains("Bob"));
        assert!(Predicate::Ne(int(3)).to_string().contains('3'));
    }
}
