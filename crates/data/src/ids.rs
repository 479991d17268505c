//! Newtype identifiers used throughout the system.
//!
//! Kept as `u32` where possible (Rust Performance Book: smaller integers for
//! indices shrink hot types); a database of up to 4B tuples per relation is
//! far beyond the laptop-scale reproduction.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw index view.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        rock_crystal::json_codec!(newtype $name);

        impl From<$inner> for $name {
            #[inline]
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(v: usize) -> Self {
                $name(v as $inner)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a relation (table) within a [`crate::DatabaseSchema`].
    RelId, u16, "R"
);
id_type!(
    /// Identifies an attribute (column) within one relation schema.
    AttrId, u16, "A"
);
id_type!(
    /// Identifies a tuple within one relation; stable across updates
    /// (deletions leave holes rather than renumbering).
    TupleId, u32, "t"
);
id_type!(
    /// Entity id: which real-world entity a tuple represents (paper §2,
    /// following Codd's EID attribute). Two tuples with different `Eid`s may
    /// be *identified* by ER rules; the fix store's `[EID]=` classes track
    /// that.
    Eid, u32, "e"
);

/// Globally unique tuple address: (relation, tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalTid {
    pub rel: RelId,
    pub tid: TupleId,
}

rock_crystal::json_codec!(struct GlobalTid { rel, tid });
rock_crystal::json_codec!(struct CellRef { rel, tid, attr });

impl GlobalTid {
    pub fn new(rel: RelId, tid: TupleId) -> Self {
        GlobalTid { rel, tid }
    }
}

impl fmt::Display for GlobalTid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.rel, self.tid)
    }
}

/// Globally unique cell address: (relation, tuple, attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellRef {
    pub rel: RelId,
    pub tid: TupleId,
    pub attr: AttrId,
}

impl CellRef {
    pub fn new(rel: RelId, tid: TupleId, attr: AttrId) -> Self {
        CellRef { rel, tid, attr }
    }

    pub fn tuple(&self) -> GlobalTid {
        GlobalTid::new(self.rel, self.tid)
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.rel, self.tid, self.attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(RelId(3).to_string(), "R3");
        assert_eq!(TupleId(12).to_string(), "t12");
        assert_eq!(Eid(7).to_string(), "e7");
        assert_eq!(
            CellRef::new(RelId(1), TupleId(2), AttrId(3)).to_string(),
            "R1.t2.A3"
        );
    }

    #[test]
    fn conversions() {
        let t: TupleId = 5usize.into();
        assert_eq!(t.index(), 5);
        let r: RelId = 2u16.into();
        assert_eq!(r, RelId(2));
    }

    #[test]
    fn cellref_tuple_projection() {
        let c = CellRef::new(RelId(1), TupleId(9), AttrId(0));
        assert_eq!(c.tuple(), GlobalTid::new(RelId(1), TupleId(9)));
    }
}
