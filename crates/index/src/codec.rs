//! The packed Dewey codec: level-table compression of Dewey numbers with
//! `memcmp`-order preservation.
//!
//! Each component at level `i` is stored in the level table's `width(i)`
//! bits, preceded by a `1` *continuation bit*; after the last component a
//! single `0` terminator bit is written, and the result is zero-padded to
//! a byte boundary. The paper compresses Dewey numbers with exactly these
//! per-level widths; the continuation/terminator bits are our addition so
//! the packed form can serve directly as a B+tree key:
//!
//! * **raw fixed-width packing is *not* `memcmp`-safe**: the padded
//!   encoding of an ancestor ties with the encoding of its `0.0...0`
//!   descendant, and any scheme that appends the length breaks ordering
//!   (a longer key's payload bits collide with a shorter key's length
//!   field);
//! * with a continuation bit per level, an ancestor diverges from every
//!   proper descendant exactly at its terminator (`0` vs the descendant's
//!   next `1`), so byte-wise comparison of the padded encodings orders
//!   keys identically to Dewey (= preorder document) order, and equal
//!   byte strings imply equal Dewey numbers.

use crate::leveltable::LevelTable;
use std::fmt;
use xk_xmltree::Dewey;

/// Errors from packing or unpacking Dewey numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The Dewey number is deeper than the level table.
    TooDeep { depth: usize, max_depth: usize },
    /// A component does not fit in its level's bit width.
    ComponentTooLarge { level: usize, component: u32, width: u8 },
    /// The byte string is not a valid packed Dewey number.
    Malformed,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TooDeep { depth, max_depth } => {
                write!(f, "Dewey depth {depth} exceeds level table depth {max_depth}")
            }
            CodecError::ComponentTooLarge { level, component, width } => write!(
                f,
                "component {component} at level {level} does not fit in {width} bits"
            ),
            CodecError::Malformed => write!(f, "malformed packed Dewey number"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Packs a Dewey number using the level table's widths. The result
/// compares with `memcmp` exactly like the Dewey numbers themselves.
pub fn encode_dewey(dewey: &Dewey, table: &LevelTable) -> Result<Vec<u8>, CodecError> {
    let mut w = BitWriter::with_bit_capacity(table.max_packed_bits());
    for (level, &component) in dewey.components().iter().enumerate() {
        let width = table.width(level).ok_or(CodecError::TooDeep {
            depth: dewey.depth(),
            max_depth: table.depth(),
        })?;
        if width < 32 && component >= (1u32 << width) {
            return Err(CodecError::ComponentTooLarge { level, component, width });
        }
        w.push_bit(true); // continuation
        w.push_bits(component, width);
    }
    w.push_bit(false); // terminator
    Ok(w.finish())
}

/// Unpacks a Dewey number produced by [`encode_dewey`] with the same
/// level table.
pub fn decode_dewey(bytes: &[u8], table: &LevelTable) -> Result<Dewey, CodecError> {
    let mut r = BitReader::new(bytes);
    let mut components = Vec::new();
    loop {
        match r.read_bit() {
            Some(false) => break, // terminator
            Some(true) => {
                let width = table
                    .width(components.len())
                    .ok_or(CodecError::Malformed)?;
                let c = r.read_bits(width).ok_or(CodecError::Malformed)?;
                components.push(c);
            }
            None => return Err(CodecError::Malformed),
        }
    }
    // Remaining padding must be zero bits.
    while let Some(bit) = r.read_bit() {
        if bit {
            return Err(CodecError::Malformed);
        }
    }
    Ok(Dewey::from_components(components))
}

/// A probe key for match lookups: either the exact packed encoding, or —
/// when the probe itself is not representable (the *uncle node* of
/// Section 5 can have an ordinal one past the level's width; a node
/// appended after the build can be wider or deeper than the table) — an
/// upper bound that sorts after every key in the subtree of the probe's
/// deepest representable prefix and before everything that follows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    /// The probe itself, packed; compare inclusively.
    Exact(Vec<u8>),
    /// No document node can equal or follow the probe within its parent
    /// region; `rm(probe)` is the first key after this bound and
    /// `lm(probe)` the last key before it.
    After(Vec<u8>),
}

/// Encodes a probe for `lm`/`rm`, falling back to an upper-bound key when
/// a component overflows its level width or the probe is deeper than the
/// table (see [`Probe`]). Sound for keys packed with `table`, which are
/// never wider or deeper than it.
pub fn encode_probe(dewey: &Dewey, table: &LevelTable) -> Result<Probe, CodecError> {
    // The longest prefix of the probe that fits the table.
    let fits = match encode_dewey(dewey, table) {
        Ok(bytes) => return Ok(Probe::Exact(bytes)),
        Err(CodecError::ComponentTooLarge { level, .. }) => level,
        Err(CodecError::TooDeep { max_depth, .. }) => max_depth,
        Err(e) => return Err(e),
    };
    // Every key either diverges from that prefix before its end (sorting
    // entirely before or after the prefix subtree) or lies inside the
    // subtree. Inside, it has a smaller component than the probe at the
    // overflowing level, or — when the probe is too deep — it is the
    // prefix itself, an ancestor of the probe. Either way it sorts before
    // the probe, so the subtree's upper bound is an exact stand-in.
    Ok(Probe::After(encode_upper_bound(&dewey.prefix(fits), table)?))
}

/// A byte string strictly greater than the packed encoding of every node
/// in `subtree(dewey)` and strictly smaller than that of every node after
/// the subtree: the node's continuation/component bits followed by ones.
/// The result is never a valid packed key itself.
pub fn encode_upper_bound(dewey: &Dewey, table: &LevelTable) -> Result<Vec<u8>, CodecError> {
    let mut w = BitWriter::with_bit_capacity(table.max_packed_bits() + 8);
    for (level, &component) in dewey.components().iter().enumerate() {
        let width = table.width(level).ok_or(CodecError::TooDeep {
            depth: dewey.depth(),
            max_depth: table.depth(),
        })?;
        if width < 32 && component >= (1u32 << width) {
            return Err(CodecError::ComponentTooLarge { level, component, width });
        }
        w.push_bit(true);
        w.push_bits(component, width);
    }
    // Fill with ones past the longest possible key, plus one extra byte so
    // the bound is longer (hence greater) than any equal-prefix key.
    let target_bits = table.max_packed_bits() + 8;
    while w.bit_len < target_bits {
        w.push_bit(true);
    }
    Ok(w.finish())
}

/// MSB-first bit writer.
struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    fn with_bit_capacity(bits: usize) -> BitWriter {
        BitWriter { bytes: Vec::with_capacity(bits.div_ceil(8)), bit_len: 0 }
    }

    // xk-analyze: allow(panic_path, reason = "a fresh byte is pushed whenever bit_len crosses a byte boundary, so bit_len / 8 is always in bounds")
    fn push_bit(&mut self, bit: bool) {
        if self.bit_len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            let byte = self.bit_len / 8;
            self.bytes[byte] |= 0x80 >> (self.bit_len % 8);
        }
        self.bit_len += 1;
    }

    fn push_bits(&mut self, value: u32, width: u8) {
        for i in (0..width).rev() {
            self.push_bit(value & (1 << i) != 0);
        }
    }

    fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// MSB-first bit reader.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = byte & (0x80 >> (self.pos % 8)) != 0;
        self.pos += 1;
        Some(bit)
    }

    fn read_bits(&mut self, width: u8) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..width {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn table() -> LevelTable {
        LevelTable::from_fanouts(&[4, 8, 2, 300, 4])
    }

    #[test]
    fn roundtrip() {
        let t = table();
        for s in ["/", "0", "3", "0.7", "1.2.1", "3.0.0.299", "0.0.0.0.3"] {
            let dd = d(s);
            let enc = encode_dewey(&dd, &t).unwrap();
            assert_eq!(decode_dewey(&enc, &t).unwrap(), dd, "roundtrip {s}");
        }
    }

    #[test]
    fn root_is_one_zero_byte() {
        let enc = encode_dewey(&Dewey::root(), &table()).unwrap();
        assert_eq!(enc, vec![0x00]);
    }

    #[test]
    fn component_too_large() {
        assert!(matches!(
            encode_dewey(&d("4"), &table()), // level 0 width is 2 bits
            Err(CodecError::ComponentTooLarge { level: 0, component: 4, width: 2 })
        ));
    }

    #[test]
    fn too_deep() {
        assert!(matches!(
            encode_dewey(&d("0.0.0.0.0.0"), &table()),
            Err(CodecError::TooDeep { depth: 6, max_depth: 5 })
        ));
    }

    #[test]
    fn malformed_rejected() {
        let t = table();
        assert!(decode_dewey(&[], &t).is_err());
        // A continuation bit with truncated payload.
        assert!(decode_dewey(&[0b1000_0000], &t).is_ok_or_malformed());
        // Nonzero padding after the terminator.
        assert!(matches!(decode_dewey(&[0b0100_0000], &t), Err(CodecError::Malformed)));
    }

    trait OkOrMalformed {
        fn is_ok_or_malformed(&self) -> bool;
    }

    impl OkOrMalformed for Result<Dewey, CodecError> {
        fn is_ok_or_malformed(&self) -> bool {
            matches!(self, Ok(_) | Err(CodecError::Malformed))
        }
    }

    /// The core property: memcmp order on encodings == Dewey order.
    #[test]
    fn encoding_preserves_order_exhaustively() {
        let t = LevelTable::from_fanouts(&[3, 2, 5]);
        // Enumerate every valid Dewey up to the table's shape.
        let mut all = vec![Dewey::root()];
        for a in 0..3u32 {
            all.push(Dewey::from_components(vec![a]));
            for b in 0..2u32 {
                all.push(Dewey::from_components(vec![a, b]));
                for c in 0..5u32 {
                    all.push(Dewey::from_components(vec![a, b, c]));
                }
            }
        }
        all.sort();
        let encoded: Vec<Vec<u8>> = all.iter().map(|d| encode_dewey(d, &t).unwrap()).collect();
        for i in 1..all.len() {
            assert!(
                encoded[i - 1] < encoded[i],
                "order violated: {} ({:02x?}) !< {} ({:02x?})",
                all[i - 1],
                encoded[i - 1],
                all[i],
                encoded[i]
            );
        }
    }

    #[test]
    fn ancestor_encoding_sorts_before_descendants() {
        let t = table();
        // The tie-breaking case raw packing gets wrong: 0.0 vs 0.0.0.
        let a = encode_dewey(&d("0.0"), &t).unwrap();
        let b = encode_dewey(&d("0.0.0"), &t).unwrap();
        assert!(a < b);
        // And the sibling after the deep child still sorts after both.
        let c = encode_dewey(&d("0.1"), &t).unwrap();
        assert!(b < c);
    }

    #[test]
    fn upper_bound_brackets_the_subtree() {
        let t = LevelTable::from_fanouts(&[3, 2, 5]);
        let q = d("1");
        let ub = encode_upper_bound(&q, &t).unwrap();
        // Greater than every key in subtree(1)...
        for s in ["1", "1.0", "1.1", "1.1.4"] {
            let k = encode_dewey(&d(s), &t).unwrap();
            assert!(k < ub, "{s} must sort below the bound");
        }
        // ...and smaller than everything after it.
        for s in ["2", "2.0"] {
            let k = encode_dewey(&d(s), &t).unwrap();
            assert!(ub < k, "{s} must sort above the bound");
        }
        // And below nothing before it.
        for s in ["/", "0", "0.1.4"] {
            let k = encode_dewey(&d(s), &t).unwrap();
            assert!(k < ub);
        }
    }

    #[test]
    fn probe_exact_vs_after() {
        let t = LevelTable::from_fanouts(&[2, 2]); // widths 1,1
        assert!(matches!(encode_probe(&d("1.1"), &t), Ok(Probe::Exact(_))));
        // Ordinal 2 does not fit in 1 bit: an uncle-position probe.
        match encode_probe(&d("1.2"), &t) {
            Ok(Probe::After(ub)) => {
                // The bound is the upper bound of subtree("1").
                assert_eq!(ub, encode_upper_bound(&d("1"), &t).unwrap());
            }
            other => panic!("expected Probe::After, got {other:?}"),
        }
        // A probe deeper than the table bounds its deepest fitting prefix.
        match encode_probe(&d("0.1.0"), &t) {
            Ok(Probe::After(ub)) => assert_eq!(ub, encode_upper_bound(&d("0.1"), &t).unwrap()),
            other => panic!("expected Probe::After, got {other:?}"),
        }
    }

    /// Resolves `rm`/`lm` for `probe` over the sorted packed `keys` the
    /// way the IL B+tree seeks do.
    fn seek(keys: &[Vec<u8>], probe: &Probe) -> (Option<usize>, Option<usize>) {
        let (ge, le) = match probe {
            Probe::Exact(k) => {
                (keys.partition_point(|x| x < k), keys.partition_point(|x| x <= k))
            }
            Probe::After(b) => {
                let i = keys.partition_point(|x| x < b);
                (i, i)
            }
        };
        ((ge < keys.len()).then_some(ge), le.checked_sub(1))
    }

    #[test]
    fn probes_past_the_table_match_the_in_memory_list() {
        use xk_slca::{MemList, RankedList};
        let t = LevelTable::from_fanouts(&[3, 2, 5]); // widths 2,1,3
        let mut all = vec![Dewey::root()];
        for a in 0..3u32 {
            all.push(Dewey::from_components(vec![a]));
            for b in 0..2u32 {
                all.push(Dewey::from_components(vec![a, b]));
                for c in 0..5u32 {
                    all.push(Dewey::from_components(vec![a, b, c]));
                }
            }
        }
        all.sort();
        // Probes deeper than the table, wider than a level, and both.
        let probes: Vec<Dewey> = [
            "0.0.0.0", "1.1.4.7", "2.1.4.0.3", "1.0.2.9", "3", "5.0", "1.2", "1.1.8",
            "0.1.7.1", "2.5.9.9", "1.1.2", "/",
        ]
        .iter()
        .map(|s| d(s))
        .collect();
        // The full node set and sparse subsets of it.
        for stride in 1..5usize {
            for offset in 0..stride {
                let nodes: Vec<Dewey> = all.iter().skip(offset).step_by(stride).cloned().collect();
                let keys: Vec<Vec<u8>> =
                    nodes.iter().map(|n| encode_dewey(n, &t).unwrap()).collect();
                let mut list = MemList::from_sorted(nodes.clone());
                for p in &probes {
                    let (ge, le) = seek(&keys, &encode_probe(p, &t).unwrap());
                    let got = (ge.map(|i| nodes[i].clone()), le.map(|i| nodes[i].clone()));
                    assert_eq!(got, (list.rm(p), list.lm(p)), "probe {p}, stride {stride}+{offset}");
                }
            }
        }
    }

    #[test]
    fn compression_is_compact() {
        // Depth-5 Dewey at widths 2+3+1+9+2 = 17 payload bits + 5
        // continuations + 1 terminator = 23 bits -> 3 bytes, versus 20
        // bytes for the raw u32 representation.
        let enc = encode_dewey(&d("3.7.1.255.2"), &table()).unwrap();
        assert_eq!(enc.len(), 3);
    }
}
