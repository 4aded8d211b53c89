//! Message envelopes with explicit wire sizes.
//!
//! The simulator does not serialize payloads; instead every payload type
//! reports its size in bits through [`WireSize`], using the encodings the
//! paper assumes (ids of `⌈log₂ n⌉` bits, sketches of `polylog(n)` bits).
//! This keeps the hot path allocation-free while making every byte of the
//! round accounting explicit and auditable.
//!
//! Two wire encodings are supported ([`Encoding`]):
//!
//! * **Naive** — every message carries its own type tag and full-width
//!   fields; the charged size is the per-message [`Envelope::bits`] captured
//!   at construction. This is the historical accounting and stays the
//!   bit-for-bit default.
//! * **Varint** — the superstep layer groups each directed link's messages
//!   into per-type *runs* and charges the [`BatchWire`] batch size: one
//!   shared tag per run, delta-sorted varint ids, varint fields. The naive
//!   per-message sum is still accumulated as the oracle counter
//!   [`crate::metrics::CommStats::naive_bits`], so the compression ratio is
//!   auditable on every run.

/// A payload that knows its encoded size in bits.
pub trait WireSize {
    /// The number of bits this payload occupies on a link.
    fn wire_bits(&self) -> u64;
}

/// A payload that can actually be serialized onto a byte wire (the process
/// transport, DESIGN.md §3.12). [`WireSize`]/[`BatchWire`] *price* payloads
/// for the round accounting; `WireCodec` moves them for real. The encoding
/// is self-delimiting (varints and length-prefixed runs), so frames can be
/// concatenated and decoded back without an outer schema.
pub trait WireCodec: Sized {
    /// Appends this payload's byte encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one payload from the reader, consuming exactly the bytes
    /// [`WireCodec::encode`] produced.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// A decode failure: the byte offset it happened at and the field being
/// read. Field-precise by construction — every reader primitive names the
/// field it was asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset into the buffer at which decoding failed.
    pub offset: usize,
    /// The field whose decode failed.
    pub field: &'static str,
    /// What went wrong.
    pub reason: &'static str,
}

impl WireError {
    /// A decode failure at `offset` while reading `field`.
    pub fn new(offset: usize, field: &'static str, reason: &'static str) -> Self {
        WireError {
            offset,
            field,
            reason,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire decode error at byte {}: field `{}`: {}",
            self.offset, self.field, self.reason
        )
    }
}

impl std::error::Error for WireError {}

/// A cursor over an encoded buffer, used by [`WireCodec::decode`].
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// The current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn err(&self, field: &'static str, reason: &'static str) -> WireError {
        WireError {
            offset: self.pos,
            field,
            reason,
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.err(field, "unexpected end of buffer"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads one LEB128 varint (the byte realization of [`varint_bits`]).
    pub fn varint(&mut self, field: &'static str) -> Result<u64, WireError> {
        let mut x = 0u64;
        for shift in (0..).step_by(7) {
            if shift >= 64 {
                return Err(self.err(field, "varint overflows u64"));
            }
            let b = self.u8(field)?;
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
        }
        unreachable!()
    }

    /// Reads a zigzag-coded signed varint.
    pub fn signed(&mut self, field: &'static str) -> Result<i64, WireError> {
        Ok(unzigzag64(self.varint(field)?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err(field, "unexpected end of buffer"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

/// Appends one LEB128 varint: the byte encoding whose size [`varint_bits`]
/// prices (one byte per started 7-bit group).
pub fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Appends a zigzag-coded signed varint.
pub fn put_signed(out: &mut Vec<u8>, x: i64) {
    put_varint(out, zigzag64(x));
}

/// Zigzag-maps a signed value to an unsigned one (small magnitudes stay
/// small: 0, -1, 1, -2 → 0, 1, 2, 3).
pub fn zigzag64(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag64`].
pub fn unzigzag64(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Which wire encoding the superstep layer charges bandwidth under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Encoding {
    /// Per-message accounting: flat tag + full-width ids per message (the
    /// historical charging, and the oracle for the varint ablation).
    #[default]
    Naive,
    /// Per-link batch accounting: per-type runs share one tag, ids are
    /// delta-sorted varints ([`BatchWire::batch_wire_bits`]).
    Varint,
}

/// The LEB128-style cost of one unsigned value: 8 bits (7 data bits + 1
/// continuation bit) per started 7-bit group, at least one group.
pub fn varint_bits(x: u64) -> u64 {
    8 * u64::from((64 - x.leading_zeros()).div_ceil(7).max(1))
}

/// The cost of a *delta-sorted* varint run: the values are sorted ascending
/// and each is encoded as the gap to its predecessor (the first as-is).
/// Sorting is free — the receiver does not need the original order of a
/// same-type run — and turns clustered id sets into streams of tiny gaps.
pub fn delta_varint_bits(vals: &mut [u64]) -> u64 {
    vals.sort_unstable();
    let mut prev = 0u64;
    let mut bits = 0u64;
    for &v in vals.iter() {
        bits += varint_bits(v - prev);
        prev = v;
    }
    bits
}

/// A payload type whose same-link batches can be charged as one encoded
/// buffer. The default is the naive per-message sum, so plain payloads are
/// unaffected by [`Encoding::Varint`]; types with compressible structure
/// override [`BatchWire::batch_wire_bits`].
pub trait BatchWire: Sized {
    /// Encoded size in bits of one directed link's message batch.
    fn batch_wire_bits(batch: &[&Envelope<Self>]) -> u64 {
        batch.iter().map(|e| e.bits.max(1)).sum()
    }

    /// A stable snake_case name for this payload's kind, used by the
    /// [`crate::trace`] superstep histograms. Types with one shape keep
    /// the default; enums override with per-variant names.
    fn kind_name(&self) -> &'static str {
        "msg"
    }
}

impl BatchWire for u64 {}
impl BatchWire for () {}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.varint("u64")
    }
}

impl WireCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint("u32")?).map_err(|_| WireError {
            offset: r.offset(),
            field: "u32",
            reason: "value overflows u32",
        })
    }
}

impl WireCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl WireSize for u64 {
    fn wire_bits(&self) -> u64 {
        64
    }
}

impl WireSize for () {
    fn wire_bits(&self) -> u64 {
        1
    }
}

/// A routed message: source machine, destination machine, payload.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sending machine id in `[0, k)`.
    pub src: usize,
    /// Receiving machine id in `[0, k)`.
    pub dst: usize,
    /// The payload.
    pub payload: M,
    /// Wire size in bits, captured at construction.
    pub bits: u64,
}

impl<M: WireSize> Envelope<M> {
    /// Wraps a payload, capturing its wire size.
    pub fn new(src: usize, dst: usize, payload: M) -> Self {
        let bits = payload.wire_bits();
        Envelope {
            src,
            dst,
            payload,
            bits,
        }
    }
}

impl<M> Envelope<M> {
    /// Wraps a payload with an explicitly computed wire size (for payload
    /// types whose encoding depends on context such as the id width
    /// `⌈log₂ n⌉`, which the payload itself cannot know).
    pub fn with_bits(src: usize, dst: usize, payload: M, bits: u64) -> Self {
        Envelope {
            src,
            dst,
            payload,
            bits,
        }
    }

    /// Whether the message stays on its source machine (free in the model:
    /// local computation costs nothing, so a self-addressed message is just
    /// local state).
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u64);
    impl WireSize for Fixed {
        fn wire_bits(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn envelope_captures_wire_size() {
        let e = Envelope::new(0, 1, Fixed(123));
        assert_eq!(e.bits, 123);
        assert!(!e.is_local());
        let l = Envelope::new(2, 2, Fixed(5));
        assert!(l.is_local());
    }

    #[test]
    fn varint_bits_grow_by_seven_bit_groups() {
        assert_eq!(varint_bits(0), 8);
        assert_eq!(varint_bits(127), 8);
        assert_eq!(varint_bits(128), 16);
        assert_eq!(varint_bits((1 << 14) - 1), 16);
        assert_eq!(varint_bits(1 << 14), 24);
        assert_eq!(varint_bits(u64::MAX), 80);
    }

    #[test]
    fn delta_sorted_runs_beat_full_width_ids() {
        // A clustered id set: deltas are tiny, so the run costs one byte
        // per id after the first.
        let mut ids: Vec<u64> = (1000..1060).collect();
        assert_eq!(delta_varint_bits(&mut ids), 16 + 59 * 8);
        // Order independence: sorting happens inside.
        let mut shuffled = vec![1040u64, 1000, 1059, 1020];
        let mut sorted = vec![1000u64, 1020, 1040, 1059];
        assert_eq!(
            delta_varint_bits(&mut shuffled),
            delta_varint_bits(&mut sorted)
        );
    }

    #[test]
    fn varint_bytes_price_exactly_what_varint_bits_says() {
        // The codec is the byte realization of the PR 6 pricing function:
        // every value costs exactly `varint_bits / 8` bytes on the wire.
        for x in [0u64, 1, 127, 128, (1 << 14) - 1, 1 << 14, 1 << 40, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, x);
            assert_eq!(8 * buf.len() as u64, varint_bits(x), "x = {x}");
            let mut r = WireReader::new(&buf);
            assert_eq!(r.varint("x").unwrap(), x);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trips_signed_values() {
        for x in [0i64, -1, 1, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag64(zigzag64(x)), x);
            let mut buf = Vec::new();
            put_signed(&mut buf, x);
            let mut r = WireReader::new(&buf);
            assert_eq!(r.signed("x").unwrap(), x);
        }
        assert_eq!(zigzag64(0), 0);
        assert_eq!(zigzag64(-1), 1);
        assert_eq!(zigzag64(1), 2);
    }

    #[test]
    fn decode_errors_carry_offset_and_field() {
        // Truncated buffer: the error names the field and points past the
        // last byte.
        let mut buf = Vec::new();
        put_varint(&mut buf, 300); // two bytes
        let mut r = WireReader::new(&buf[..1]);
        let e = r.varint("edge_count").unwrap_err();
        assert_eq!(e.field, "edge_count");
        assert_eq!(e.offset, 1);
        assert!(e.to_string().contains("edge_count"), "{e}");
        // Non-terminating varint: overflow is detected, not wrapped.
        let bad = [0xffu8; 11];
        let e = WireReader::new(&bad).varint("id").unwrap_err();
        assert_eq!(e.reason, "varint overflows u64");
    }

    #[test]
    fn default_batch_wire_is_the_naive_sum() {
        let batch = [
            Envelope::new(0, 1, 7u64),
            Envelope::new(0, 1, 8u64),
            Envelope::new(0, 1, 9u64),
        ];
        let refs: Vec<&Envelope<u64>> = batch.iter().collect();
        assert_eq!(u64::batch_wire_bits(&refs), 3 * 64);
    }
}
