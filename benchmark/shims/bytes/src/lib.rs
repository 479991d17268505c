//! Stand-in for `bytes` 1.x: an immutable, cheaply cloneable byte buffer.

use std::ops::Deref;
use std::sync::Arc;

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::from(data))
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;

    #[test]
    fn conversions_agree() {
        assert_eq!(Bytes::from("ab"), Bytes::copy_from_slice(b"ab"));
        assert_eq!(Bytes::from(vec![97u8, 98]), Bytes::from(String::from("ab")));
        assert_eq!(Bytes::from("ab").len(), 2);
        assert!(Bytes::default().is_empty());
    }
}
