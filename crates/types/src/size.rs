//! Human-friendly byte sizes.

use std::fmt;

/// A capacity expressed in bytes, with convenience constructors and a
/// human-readable `Display` (`72 KB`, `8 MB`, ...).
///
/// # Example
///
/// ```
/// use lnuca_types::ByteSize;
///
/// assert_eq!(ByteSize::kib(8).bytes(), 8192);
/// assert_eq!(ByteSize::mib(8).to_string(), "8 MB");
/// assert_eq!(ByteSize::new(72 * 1024).to_string(), "72 KB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Creates a size of exactly `bytes` bytes.
    #[must_use]
    pub fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size of `kib` kibibytes (1024 bytes each).
    #[must_use]
    pub fn kib(kib: u64) -> Self {
        ByteSize(kib * 1024)
    }

    /// Creates a size of `mib` mebibytes.
    #[must_use]
    pub fn mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// The size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        self.0
    }

    /// The size in kibibytes, rounded down.
    #[must_use]
    pub fn as_kib(self) -> u64 {
        self.0 / 1024
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KB: u64 = 1024;
        const MB: u64 = 1024 * 1024;
        if self.0 >= MB && self.0 % MB == 0 {
            write!(f, "{} MB", self.0 / MB)
        } else if self.0 >= KB && self.0 % KB == 0 {
            write!(f, "{} KB", self.0 / KB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl From<u64> for ByteSize {
    fn from(value: u64) -> Self {
        ByteSize(value)
    }
}

impl From<ByteSize> for u64 {
    fn from(value: ByteSize) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(ByteSize::kib(1).bytes(), 1024);
        assert_eq!(ByteSize::mib(1).bytes(), 1024 * 1024);
        assert_eq!(ByteSize::new(17).bytes(), 17);
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(ByteSize::new(100).to_string(), "100 B");
        assert_eq!(ByteSize::kib(256).to_string(), "256 KB");
        assert_eq!(ByteSize::mib(8).to_string(), "8 MB");
        assert_eq!(ByteSize::new(1536).to_string(), "1536 B");
    }

    #[test]
    fn as_kib_rounds_down() {
        assert_eq!(ByteSize::new(2047).as_kib(), 1);
        assert_eq!(ByteSize::kib(248).as_kib(), 248);
    }
}
