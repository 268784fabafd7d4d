use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::AttributeValue;

/// Unique identifier of a published event.
///
/// In a real deployment this would combine the publisher's address with a
/// local sequence number; for the simulation a plain 64-bit value suffices
/// and keeps gossip digests small.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u64> for EventId {
    fn from(v: u64) -> Self {
        EventId(v)
    }
}

/// A published event: an identifier plus a set of named, typed attributes.
///
/// Events are what `PMCAST` disseminates; subscribers express their interests
/// as [`crate::Filter`]s over the attributes.  Attribute names are kept in a
/// `BTreeMap` so that iteration order — and thus serialization and matching
/// behaviour — is deterministic.
///
/// # Example
///
/// ```rust
/// use pmcast_interest::{AttributeValue, Event};
///
/// let event = Event::builder(42)
///     .int("b", 2)
///     .float("c", 55.5)
///     .str("e", "Bob")
///     .int("z", 20_000)
///     .build();
/// assert_eq!(event.id().0, 42);
/// assert_eq!(event.get("c"), Some(&AttributeValue::Float(55.5)));
/// assert_eq!(event.get("missing"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    id: EventId,
    attributes: BTreeMap<String, AttributeValue>,
}

impl Event {
    /// Creates an event with no attributes.
    pub fn new(id: impl Into<EventId>) -> Self {
        Self {
            id: id.into(),
            attributes: BTreeMap::new(),
        }
    }

    /// Starts building an event with the given identifier.
    pub fn builder(id: impl Into<EventId>) -> EventBuilder {
        EventBuilder {
            event: Event::new(id),
        }
    }

    /// Returns the event identifier.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// Returns the value of the named attribute, if present.
    pub fn get(&self, name: &str) -> Option<&AttributeValue> {
        self.attributes.get(name)
    }

    /// Inserts (or replaces) an attribute, returning the previous value if
    /// any.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        value: impl Into<AttributeValue>,
    ) -> Option<AttributeValue> {
        self.attributes.insert(name.into(), value.into())
    }

    /// A hash of the event's values on `attributes` (its *content* there),
    /// not its id: equal values hash equally, a missing one included, and a
    /// float hashes by its bits (`0.0` and `-0.0` apart).
    pub fn content_hash(&self, attributes: &[String]) -> u64 {
        let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        attributes.iter().fold(0, |hash, name| match self.get(name) {
            None => mix(hash, 0),
            Some(AttributeValue::Int(v)) => mix(mix(hash, 1), *v as u64),
            Some(AttributeValue::Float(v)) => mix(mix(hash, 2), v.to_bits()),
            Some(AttributeValue::Bool(v)) => mix(mix(hash, 3), u64::from(*v)),
            Some(AttributeValue::Str(v)) => v
                .bytes()
                .fold(mix(hash, 4), |hash, byte| mix(hash, u64::from(byte))),
        })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        let mut first = true;
        for (name, value) in &self.attributes {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Builder for [`Event`], produced by [`Event::builder`].
#[derive(Debug, Clone)]
pub struct EventBuilder {
    event: Event,
}

impl EventBuilder {
    /// Adds an arbitrary attribute.
    pub fn attribute(
        mut self,
        name: impl Into<String>,
        value: impl Into<AttributeValue>,
    ) -> Self {
        self.event.insert(name, value);
        self
    }

    /// Adds an integer attribute.
    pub fn int(self, name: impl Into<String>, value: i64) -> Self {
        self.attribute(name, AttributeValue::Int(value))
    }

    /// Adds a floating point attribute.
    pub fn float(self, name: impl Into<String>, value: f64) -> Self {
        self.attribute(name, AttributeValue::Float(value))
    }

    /// Adds a string attribute.
    pub fn str(self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attribute(name, AttributeValue::Str(value.into()))
    }

    /// Finishes building the event.
    pub fn build(self) -> Event {
        self.event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_attributes() {
        let event = Event::builder(1)
            .int("b", 2)
            .float("c", 55.5)
            .str("e", "Bob")
            .attribute("urgent", true)
            .build();
        assert_eq!(event.id(), EventId(1));
        assert_eq!(event.attributes.len(), 4);
        assert_eq!(event.get("b"), Some(&AttributeValue::Int(2)));
        assert_eq!(event.get("e"), Some(&AttributeValue::Str("Bob".into())));
        assert_eq!(event.get("urgent"), Some(&AttributeValue::Bool(true)));
        assert_eq!(event.get("missing"), None);
        assert!(event.get("c").is_some());
        assert!(event.get("d").is_none());
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut event = Event::new(5);
        assert_eq!(event.insert("b", 1i64), None);
        assert_eq!(event.insert("b", 2i64), Some(AttributeValue::Int(1)));
        assert_eq!(event.get("b"), Some(&AttributeValue::Int(2)));
    }

    #[test]
    fn iteration_is_sorted_by_name() {
        let event = Event::builder(1).int("z", 1).int("a", 2).int("m", 3).build();
        let names: Vec<&str> = event.attributes.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn display_contains_id_and_attributes() {
        let event = Event::builder(9).int("b", 2).build();
        let text = event.to_string();
        assert!(text.contains("e9"));
        assert!(text.contains("b=2"));
        // An empty event still renders its id.
        assert_eq!(Event::new(3).to_string(), "e3{}");
    }

    #[test]
    fn content_hash_reads_the_named_attributes_not_the_id() {
        let event = |id: u64, b: i64| Event::builder(id).int("b", b).str("e", "Tom").build();
        let (b, be) = (["b".to_owned()], ["b".to_owned(), "e".to_owned()]);
        assert_eq!(event(1, 2).content_hash(&be), event(7, 2).content_hash(&be));
        assert_ne!(event(1, 2).content_hash(&b), event(1, 3).content_hash(&b));
        // An attribute not named is not content; a missing one is.
        let other_e = Event::builder(1).int("b", 2).str("e", "Bob").build();
        assert_eq!(event(1, 2).content_hash(&b), other_e.content_hash(&b));
        let no_e = Event::builder(1).int("b", 2).build();
        assert_ne!(event(1, 2).content_hash(&be), no_e.content_hash(&be));
        // An integer and a float of one value are different content.
        let float = Event::builder(1).float("b", 2.0).str("e", "Tom").build();
        assert_ne!(event(1, 2).content_hash(&b), float.content_hash(&b));
    }

    #[test]
    fn serde_round_trip() {
        let event = Event::builder(17).int("b", 2).float("c", 1.5).str("e", "Tom").build();
        let json = serde_json::to_string(&event).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(event, back);
    }

    #[test]
    fn event_id_display_and_from() {
        let id: EventId = 12u64.into();
        assert_eq!(id.to_string(), "e12");
        assert_eq!(EventId::default(), EventId(0));
    }
}
