//! Relation and database schemas.
//!
//! A database schema `R = (R1, …, Rm)` where each `Rj = R(A1:τ1, …, Ak:τk)`
//! (paper §2, Preliminaries). Attribute names are unique within a relation;
//! the paper assumes attribute names are distinct across relations ("e.g.
//! prefixed by its relation name") — we instead address attributes by
//! `(RelId, AttrId)` pairs everywhere, which achieves the same without name
//! mangling.

use crate::ids::{AttrId, RelId};
use rock_crystal::hash::FxHashMap;
use rock_crystal::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Attribute type `τ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    Int,
    Float,
    Str,
    Bool,
    Date,
}

impl AttrType {
    /// Whether two attribute types are *compatible* for comparison
    /// predicates `t.A ⊕ s.B` (paper §2.1(d): same type required; we also
    /// allow Int/Float cross-comparison since values coerce).
    pub fn compatible(self, other: AttrType) -> bool {
        self == other
            || matches!(
                (self, other),
                (AttrType::Int, AttrType::Float) | (AttrType::Float, AttrType::Int)
            )
    }

    /// Is this a numeric type (used by the polynomial-expression discovery
    /// of §5.4)?
    pub fn is_numeric(self) -> bool {
        matches!(self, AttrType::Int | AttrType::Float)
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrType::Int => "int",
            AttrType::Float => "float",
            AttrType::Str => "str",
            AttrType::Bool => "bool",
            AttrType::Date => "date",
        };
        f.write_str(s)
    }
}

/// The [`fmt::Display`] name.
impl ToJson for AttrType {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for AttrType {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let name = j.as_str()?;
        [Self::Int, Self::Float, Self::Str, Self::Bool, Self::Date]
            .into_iter()
            .find(|ty| ty.to_string() == name)
            .ok_or_else(|| JsonError(format!("unknown attribute type `{name}`")))
    }
}

/// One attribute `A : τ` of a relation schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: String,
    pub ty: AttrType,
}

rock_crystal::json_codec!(struct Attribute { name, ty });

impl Attribute {
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Attribute {
            name: name.into(),
            ty,
        }
    }
}

/// Schema of one relation `R(A1:τ1, …, Ak:τk)`.
#[derive(Debug, Clone)]
pub struct RelationSchema {
    pub name: String,
    pub attrs: Vec<Attribute>,
    by_name: FxHashMap<String, AttrId>,
}

/// `{"name", "attrs"}`; the name index is rebuilt on decode.
impl ToJson for RelationSchema {
    fn to_json(&self) -> Json {
        rock_crystal::json!({ "name": self.name, "attrs": self.attrs })
    }
}

impl FromJson for RelationSchema {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(RelationSchema::new(
            j.take::<String>("name")?,
            j.take("attrs")?,
        ))
    }
}

impl RelationSchema {
    pub fn new(name: impl Into<String>, attrs: Vec<Attribute>) -> Self {
        let by_name = attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), AttrId(i as u16)))
            .collect();
        RelationSchema {
            name: name.into(),
            attrs,
            by_name,
        }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(name: impl Into<String>, cols: &[(&str, AttrType)]) -> Self {
        Self::new(
            name,
            cols.iter().map(|(n, t)| Attribute::new(*n, *t)).collect(),
        )
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Look up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Attribute metadata for an id.
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// Name of an attribute id.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id.index()].name
    }

    /// Iterate `(AttrId, &Attribute)`.
    pub fn iter_attrs(&self) -> impl Iterator<Item = (AttrId, &Attribute)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u16), a))
    }
}

/// Database schema `R = (R1, …, Rm)`.
#[derive(Debug, Clone, Default)]
pub struct DatabaseSchema {
    pub relations: Vec<RelationSchema>,
    by_name: FxHashMap<String, RelId>,
}

impl DatabaseSchema {
    pub fn new(relations: Vec<RelationSchema>) -> Self {
        let by_name = relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), RelId(i as u16)))
            .collect();
        DatabaseSchema { relations, by_name }
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.by_name.get(name).copied()
    }

    pub fn relation(&self, id: RelId) -> &RelationSchema {
        &self.relations[id.index()]
    }

    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelationSchema)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i as u16), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_crystal::json;

    fn person() -> RelationSchema {
        RelationSchema::of(
            "Person",
            &[
                ("pid", AttrType::Str),
                ("LN", AttrType::Str),
                ("FN", AttrType::Str),
                ("gender", AttrType::Str),
                ("home", AttrType::Str),
                ("status", AttrType::Str),
                ("spouse", AttrType::Str),
            ],
        )
    }

    #[test]
    fn attr_lookup() {
        let p = person();
        assert_eq!(p.arity(), 7);
        assert_eq!(p.attr_id("home"), Some(AttrId(4)));
        assert_eq!(p.attr_id("missing"), None);
        assert_eq!(p.attr_name(AttrId(1)), "LN");
    }

    #[test]
    fn database_schema_lookup() {
        let db = DatabaseSchema::new(vec![person()]);
        let rid = db.rel_id("Person").unwrap();
        assert_eq!(db.relation(rid).name, "Person");
        assert!(db.rel_id("Store").is_none());
    }

    #[test]
    fn type_compatibility() {
        assert!(AttrType::Int.compatible(AttrType::Float));
        assert!(AttrType::Str.compatible(AttrType::Str));
        assert!(!AttrType::Str.compatible(AttrType::Int));
        assert!(AttrType::Int.is_numeric());
        assert!(!AttrType::Date.is_numeric());
    }

    #[test]
    fn json_roundtrip_rebuilds_the_name_index() {
        let p = person();
        let back: RelationSchema = json::from_slice(&json::to_vec(&p)).unwrap();
        assert_eq!(back.attrs, p.attrs);
        assert_eq!(back.attr_id("spouse"), Some(AttrId(6)));
    }
}
