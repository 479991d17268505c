//! Stand-in for `serde` 1.x that type-checks and does not encode.
//!
//! `Serialize`/`Deserialize` exist so that derives, bounds and the one
//! hand-written impl in this repository compile; every impl — derived
//! (see `serde_derive`) or provided here for the two std types in use — returns
//! `Error::custom(UNSUPPORTED)`. Code that needs real bytes (the WAL,
//! checkpoints, `rock-analyze --format json`) therefore gets a typed
//! error at run time, never silent garbage.

pub use serde_derive::{Deserialize, Serialize};

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

/// The message every stand-in impl fails with.
pub const UNSUPPORTED: &str =
    "serde stand-in: encoding and decoding are not available in the hermetic benchmark build";

pub mod ser {
    use std::fmt::Display;

    pub trait Error: Sized + std::error::Error {
        fn custom<T: Display>(msg: T) -> Self;
    }

    pub trait Serializer: Sized {
        type Ok;
        type Error: Error;
    }

    pub trait Serialize {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }
}

pub mod de {
    use std::fmt::Display;

    pub trait Error: Sized + std::error::Error {
        fn custom<T: Display>(msg: T) -> Self;
    }

    pub trait Deserializer<'de>: Sized {
        type Error: Error;
    }

    pub trait Deserialize<'de>: Sized {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}
}

/// The std types the repository's one hand-written impl and its
/// `serde_json` call sites name, failing like every derived impl.
macro_rules! unsupported {
    ([$($g:tt)*] $t:ty) => {
        impl<$($g)*> ser::Serialize for $t {
            fn serialize<S: ser::Serializer>(&self, _: S) -> Result<S::Ok, S::Error> {
                Err(<S::Error as ser::Error>::custom(UNSUPPORTED))
            }
        }
        impl<'de, $($g)*> de::Deserialize<'de> for $t {
            fn deserialize<D: de::Deserializer<'de>>(_: D) -> Result<Self, D::Error> {
                Err(<D::Error as de::Error>::custom(UNSUPPORTED))
            }
        }
    };
}

unsupported!([T] Vec<T>);
unsupported!([A, B, C](A, B, C));
