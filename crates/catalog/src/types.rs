//! Column data types with on-disk byte widths.
//!
//! The cost model (eqs. 12–15 of the paper) needs only one property of a
//! type: how many bytes a value occupies, because column transfer cost,
//! storage cost and index size are all linear in bytes.

use serde::Serialize;

/// A column's storage type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DataType {
    /// 32-bit integer (4 bytes).
    Int32,
    /// 64-bit integer (8 bytes).
    Int64,
    /// 64-bit float (8 bytes).
    Float64,
    /// Fixed-point decimal stored as 8 bytes (TPC-H money columns).
    Decimal,
    /// Calendar date stored as 4 bytes.
    Date,
    /// Fixed-width character string of `n` bytes.
    Char(u16),
    /// Variable-width string with the given *average* width in bytes.
    Varchar(u16),
}

impl DataType {
    /// Bytes one value of this type occupies on disk (average for varchar).
    #[must_use]
    pub fn byte_width(self) -> u64 {
        match self {
            DataType::Int32 | DataType::Date => 4,
            DataType::Int64 | DataType::Float64 | DataType::Decimal => 8,
            DataType::Char(n) | DataType::Varchar(n) => u64::from(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_widths() {
        assert_eq!(DataType::Int32.byte_width(), 4);
        assert_eq!(DataType::Int64.byte_width(), 8);
        assert_eq!(DataType::Float64.byte_width(), 8);
        assert_eq!(DataType::Decimal.byte_width(), 8);
        assert_eq!(DataType::Date.byte_width(), 4);
        assert_eq!(DataType::Char(25).byte_width(), 25);
        assert_eq!(DataType::Varchar(117).byte_width(), 117);
    }
}
