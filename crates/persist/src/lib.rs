//! Hand-rolled versioned binary codec for checkpoint/restore (DESIGN.md
//! §12).
//!
//! The serve loop (`ecds_sim::serve`) snapshots complete simulation state —
//! clock, event queue, per-core state, RNG positions, energy logs,
//! discipline internals — and must restore it **bit-identically**: a trial
//! checkpointed at any event boundary and resumed produces byte-identical
//! outcomes and telemetry versus an uninterrupted run. This workspace
//! builds hermetically with no registry access, so instead of serde the
//! codec is written by hand against three rules:
//!
//! 1. **Fixed-width little-endian only.** Every integer on the wire is
//!    `u8`/`u16`/`u32`/`u64`; floats travel as `f64::to_bits`. Pointer-width
//!    types and native-endian conversions never appear in this crate
//!    (enforced by clippy: `crates/persist/clippy.toml` and the
//!    `host_endian_bytes` deny below), so a checkpoint written on one
//!    platform restores on any other.
//! 2. **Typed failures, never panics.** Decoding attacker- or
//!    disk-corrupted bytes returns [`DecodeError`]; no code path in this
//!    crate unwraps, panics, or silently misreads.
//! 3. **Versioned, checksummed envelope.** [`seal`] frames a payload with a
//!    magic number, a format version, and an XXH64 checksum (seed 0) over
//!    magic, version and body; [`open`] rejects foreign bytes
//!    ([`DecodeError::BadMagic`]), other formats
//!    ([`DecodeError::UnsupportedVersion`]), and bit rot
//!    ([`DecodeError::ChecksumMismatch`]) before any field is interpreted.
//!    XXH64 hashes four independent 8-byte lanes per 32-byte stripe, so a
//!    checkpoint of several hundred kilobytes seals and opens at memory
//!    speed rather than at one multiply per byte.
//!
//! Domain crates implement [`Persist`] for their own types (the pmf
//! impulses, core states, event queues, RNG streams) next to the private
//! fields they must restore exactly; this crate only defines the wire
//! primitives.

#![warn(missing_docs)]
#![deny(clippy::host_endian_bytes)]

/// Magic number opening every sealed envelope (`b"ECDSCKPT"` read as a
/// little-endian `u64`).
pub const MAGIC: u64 = u64::from_le_bytes(*b"ECDSCKPT");

/// XXH64 primes (Collet's xxHash specification).
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: folds an 8-byte word into an accumulator.
fn xxh64_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64 of `bytes` with seed 0 — deterministic, platform-independent, no
/// per-process entropy. Each 32-byte stripe feeds four independent lanes,
/// so the multiplies overlap instead of waiting on one another.
fn xxh64(bytes: &[u8]) -> u64 {
    let mut rest = bytes;
    let mut hash = if bytes.len() < 32 {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        while let Some((stripe, next)) = rest.split_first_chunk::<32>() {
            let mut words = stripe.as_slice();
            for lane in &mut lanes {
                if let Some((word, tail)) = words.split_first_chunk::<8>() {
                    *lane = xxh64_round(*lane, u64::from_le_bytes(*word));
                    words = tail;
                }
            }
            rest = next;
        }
        let [a, b, c, d] = lanes;
        let mut merged = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            merged = (merged ^ xxh64_round(0, lane))
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        merged
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        hash = (hash ^ xxh64_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        rest = tail;
    }
    if let Some((half, tail)) = rest.split_first_chunk::<4>() {
        hash = (hash ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = tail;
    }
    for &byte in rest {
        hash = (hash ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// A typed decoding failure. Every constructor of this enum is a *refusal*:
/// the decoder never guesses, truncates silently, or panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the field (or envelope frame) it should
    /// contain.
    Truncated,
    /// The envelope does not start with [`MAGIC`] — these are not
    /// checkpoint bytes.
    BadMagic,
    /// The envelope's format version is not the one the reader supports.
    UnsupportedVersion {
        /// The version number found in the envelope header.
        found: u32,
    },
    /// The envelope checksum does not match its payload.
    ChecksumMismatch,
    /// A field decoded to a value that violates a documented invariant of
    /// the persisted type (the message names the invariant).
    Corrupt(&'static str),
    /// Decoding finished but unread bytes remain — the buffer does not
    /// match the schema that is being read.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "buffer truncated"),
            Self::BadMagic => write!(f, "bad magic: not a checkpoint envelope"),
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            Self::ChecksumMismatch => write!(f, "envelope checksum mismatch"),
            Self::Corrupt(what) => write!(f, "corrupt field: {what}"),
            Self::TrailingBytes => write!(f, "trailing bytes after decoded payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian byte sink. Encoding is infallible; the
/// companion [`Decoder`] re-reads the exact sequence of fields.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern ([`f64::to_bits`],
    /// little-endian) — the representation round-trips NaN payloads and the
    /// sign of zero.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes verbatim (callers frame them with an explicit
    /// length field when the boundary is not implied by the schema).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn written(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Consumes the encoder and returns the byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a byte buffer that reads back the sequence an [`Encoder`]
/// wrote. Every read is bounds-checked and returns
/// [`DecodeError::Truncated`] past the end; nothing here panics.
#[derive(Debug, Clone, Copy)]
pub struct Decoder<'b> {
    rest: &'b [u8],
}

impl<'b> Decoder<'b> {
    /// A decoder over `bytes`.
    pub fn new(bytes: &'b [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.rest.len() as u64
    }

    /// Returns [`DecodeError::TrailingBytes`] unless the buffer has been
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let (first, rest) = self.rest.split_first().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(*first)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let (chunk, rest) = self
            .rest
            .split_first_chunk::<2>()
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u16::from_le_bytes(*chunk))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let (chunk, rest) = self
            .rest
            .split_first_chunk::<4>()
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u32::from_le_bytes(*chunk))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let (chunk, rest) = self
            .rest
            .split_first_chunk::<8>()
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u64::from_le_bytes(*chunk))
    }

    /// Reads an `f64` from its exact bit pattern ([`f64::from_bits`]).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than `0` or `1` is
    /// [`DecodeError::Corrupt`].
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("bool byte must be 0 or 1")),
        }
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: u64) -> Result<&'b [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n as _);
        self.rest = rest;
        Ok(head)
    }
}

/// A type that round-trips through the codec bit-identically:
/// `decode(encode(x)) == x` down to the exact bit pattern of every float.
pub trait Persist: Sized {
    /// Appends this value's wire representation.
    fn encode(&self, enc: &mut Encoder);
    /// Reads one value back, validating every documented invariant.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

impl Persist for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u8()
    }
}

impl Persist for u16 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u16()
    }
}

impl Persist for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u32()
    }
}

impl Persist for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u64()
    }
}

impl Persist for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.f64()
    }
}

impl Persist for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.bool()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_bool(false),
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if dec.bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.u64()?;
        // Each element occupies at least one byte, so a length exceeding
        // the remaining buffer is a truncation (and this guard keeps a
        // corrupted length field from driving a huge reservation).
        if n > dec.remaining() {
            return Err(DecodeError::Truncated);
        }
        let mut out = Vec::with_capacity(n as _);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

/// Byte length of the envelope header ([`MAGIC`] + version).
const HEADER_LEN: u64 = 12;
/// Byte length of the trailing checksum.
const CHECKSUM_LEN: u64 = 8;

/// Frames `body` in the versioned envelope:
/// `MAGIC (u64) ‖ version (u32) ‖ body ‖ XXH64(prefix) (u64)`,
/// everything little-endian.
pub fn seal(version: u32, body: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(MAGIC);
    enc.put_u32(version);
    enc.put_bytes(body);
    let checksum = xxh64(enc.as_slice());
    enc.put_u64(checksum);
    enc.into_bytes()
}

/// Validates an envelope produced by [`seal`] and returns its body.
///
/// Checks, in order: the buffer frames a complete envelope
/// ([`DecodeError::Truncated`]), it opens with [`MAGIC`]
/// ([`DecodeError::BadMagic`]), its version equals `expect_version`
/// ([`DecodeError::UnsupportedVersion`]), and the trailing checksum matches
/// the prefix ([`DecodeError::ChecksumMismatch`]). Only then may callers
/// interpret body fields.
pub fn open(bytes: &[u8], expect_version: u32) -> Result<&[u8], DecodeError> {
    if (bytes.len() as u64) < HEADER_LEN + CHECKSUM_LEN {
        return Err(DecodeError::Truncated);
    }
    let Some((payload, check)) = bytes.split_last_chunk::<8>() else {
        return Err(DecodeError::Truncated);
    };
    let mut dec = Decoder::new(payload);
    if dec.u64()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = dec.u32()?;
    if version != expect_version {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    if xxh64(payload) != u64::from_le_bytes(*check) {
        return Err(DecodeError::ChecksumMismatch);
    }
    // The decoder has consumed exactly the header; what remains is the body.
    Ok(dec.rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_u16(0xBEEF);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(0x0123_4567_89AB_CDEF);
        enc.put_f64(-0.0);
        enc.put_bool(true);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u16().unwrap(), 0xBEEF);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.bool().unwrap());
        dec.finish().unwrap();
    }

    #[test]
    fn nan_payload_and_zero_sign_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut enc = Encoder::new();
        enc.put_f64(weird);
        enc.put_f64(-0.0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.f64().unwrap().to_bits(), weird.to_bits());
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn reads_past_end_are_truncated() {
        let mut dec = Decoder::new(&[1, 2, 3]);
        assert_eq!(dec.u64(), Err(DecodeError::Truncated));
        assert_eq!(dec.u32(), Err(DecodeError::Truncated));
        // The failed reads consumed nothing.
        assert_eq!(dec.remaining(), 3);
        assert_eq!(dec.u16().unwrap(), 0x0201);
        assert_eq!(dec.u8().unwrap(), 3);
        assert_eq!(dec.u8(), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut dec = Decoder::new(&[2]);
        assert!(matches!(dec.bool(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let dec = Decoder::new(&[0]);
        assert_eq!(dec.finish(), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn vec_round_trips_and_rejects_oversized_length() {
        let v: Vec<u64> = vec![1, u64::MAX, 42];
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut dec).unwrap(), v);
        dec.finish().unwrap();

        // A length field claiming more elements than bytes remain must be
        // refused before any allocation is attempted.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Vec::<u8>::decode(&mut dec), Err(DecodeError::Truncated));
    }

    #[test]
    fn option_round_trips() {
        for v in [None, Some(7.5f64)] {
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(Option::<f64>::decode(&mut dec).unwrap(), v);
        }
    }

    #[test]
    fn xxh64_matches_published_vectors() {
        // Seed-0 reference values from the xxHash specification; the
        // 39-byte string runs the stripe loop and the 4- and 1-byte tails.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxh64_covers_the_word_tail_and_several_stripes() {
        assert_eq!(
            xxh64(b"0123456789abcdef0123456789abcdef0123456789abcdef"),
            0xE352_1644_4A3C_253B
        );
        let ramp: Vec<u8> = (0..100).collect();
        assert_eq!(xxh64(&ramp), 0x6AC1_E580_3216_6597);
    }

    #[test]
    fn sealed_envelope_checksum_is_pinned() {
        let sealed = seal(3, b"checkpoint payload");
        let (_, check) = sealed.split_last_chunk::<8>().unwrap();
        assert_eq!(u64::from_le_bytes(*check), 0x6CC2_82D0_1E26_3FF5);
    }

    #[test]
    fn seal_open_round_trips() {
        let body = b"checkpoint payload";
        let sealed = seal(3, body);
        assert_eq!(open(&sealed, 3).unwrap(), body);
    }

    #[test]
    fn open_rejects_truncation_magic_version_and_corruption() {
        let sealed = seal(1, b"payload");
        assert_eq!(open(&sealed[..10], 1), Err(DecodeError::Truncated));
        assert_eq!(open(&[], 1), Err(DecodeError::Truncated));

        let mut bad_magic = sealed.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(open(&bad_magic, 1), Err(DecodeError::BadMagic));

        assert_eq!(
            open(&sealed, 2),
            Err(DecodeError::UnsupportedVersion { found: 1 })
        );

        let mut flipped = sealed.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(open(&flipped, 1), Err(DecodeError::ChecksumMismatch));
    }

    #[test]
    fn checksum_covers_header_and_body() {
        // Flipping a bit in the version field must fail the checksum even
        // when the flipped version happens to be the expected one.
        let sealed_v3 = seal(3, b"x");
        let mut forged = seal(1, b"x");
        forged[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(open(&forged, 3), Err(DecodeError::ChecksumMismatch));
        assert!(open(&sealed_v3, 3).is_ok());
    }

    #[test]
    fn display_messages_are_stable() {
        assert_eq!(DecodeError::Truncated.to_string(), "buffer truncated");
        assert_eq!(
            DecodeError::UnsupportedVersion { found: 9 }.to_string(),
            "unsupported checkpoint format version 9"
        );
    }
}
