//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! A streaming implementation with the standard `update`/`finalize` API.
//! Correctness is pinned by the FIPS 180-4 example vectors plus NIST CAVP
//! short/long-message cases in the test module.
//!
//! ```
//! use fastbft_types::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! # fn hex(bytes: &[u8]) -> String {
//! #     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! # }
//! ```

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One compression round (FIPS 180-4 §6.2.2 step 3), with the state
/// variables passed in rotated order instead of shuffled through eight
/// move assignments per round — the standard unrolling that lets all 64
/// rounds run on named registers.
macro_rules! round {
    ($a:expr, $b:expr, $c:expr, $d:expr, $e:expr, $f:expr, $g:expr, $h:expr, $w:expr, $k:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k)
            .wrapping_add($w);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    }};
}

/// Compresses one 64-byte block into `state`.
#[inline]
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    // Message schedule. The recurrence reuses schedule words computed 2, 7,
    // 15 and 16 steps earlier, so materializing the full 64-entry window
    // lets the expansion loop run without modular indexing.
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // Eight rounds per group: after eight the variable rotation is the
    // identity, so the groups chain without any shuffling.
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, w[i], K[i]);
        round!(h, a, b, c, d, e, f, g, w[i + 1], K[i + 1]);
        round!(g, h, a, b, c, d, e, f, w[i + 2], K[i + 2]);
        round!(f, g, h, a, b, c, d, e, w[i + 3], K[i + 3]);
        round!(e, f, g, h, a, b, c, d, w[i + 4], K[i + 4]);
        round!(d, e, f, g, h, a, b, c, w[i + 5], K[i + 5]);
        round!(c, d, e, f, g, h, a, b, w[i + 6], K[i + 6]);
        round!(b, c, d, e, f, g, h, a, w[i + 7], K[i + 7]);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Compresses a whole 64-byte-aligned span in one call, through a hardware
/// SHA-256 core when the CPU has one — SHA-NI on x86-64, the ARMv8
/// cryptography extension on aarch64; several× the scalar throughput
/// either way, which is what keeps the per-frame session MACs cheap — and
/// the unrolled scalar rounds otherwise.
///
/// # Panics
///
/// Panics (debug) if `data` is not a multiple of 64 bytes.
#[inline]
#[allow(unsafe_code)] // the dispatch into the feature-gated hardware cores
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0, "span must be block-aligned");
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available()` just confirmed the required CPU features.
        unsafe { shani::compress_blocks(state, data) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if sha2arm::available() {
        // SAFETY: `available()` just confirmed the required CPU features.
        unsafe { sha2arm::compress_blocks(state, data) };
        return;
    }
    for block in data.chunks_exact(64) {
        compress_block(state, block.try_into().expect("64-byte chunk"));
    }
}

/// SHA-256 message-schedule + rounds on the x86 SHA New Instructions.
///
/// This is the standard Intel SHA-NI schedule (Gulley et al., also the
/// shape used by the `sha2` crate's x86 backend): the eight state words
/// live in two `__m128i` registers laid out as `ABEF`/`CDGH`, each
/// `SHA256RNDS2` advances two rounds, and `SHA256MSG1`/`SHA256MSG2`
/// compute the schedule recurrence four words at a time.
///
/// The crate otherwise forbids `unsafe`; this module is the one scoped
/// exception because the intrinsics require it. Safety is confined to CPU
/// feature availability (checked at runtime in [`available`]) and
/// unaligned loads/stores through `_mm_loadu_si128`/`_mm_storeu_si128`,
/// which accept any address. Correctness is pinned by the FIPS 180-4 /
/// NIST CAVP vectors in the test module, which run through this path on
/// SHA-NI hardware.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the CPU supports the instructions [`compress_blocks`] uses.
    /// `is_x86_feature_detected!` caches per feature, so this is an atomic
    /// load per call.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
            && std::arch::is_x86_feature_detected!("ssse3")
    }

    /// Schedule four message words: `w16 = msg2(msg1(w0, w1) + w2>>alignr, w3)`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t1 = _mm_sha256msg1_epu32(v0, v1);
        let t2 = _mm_alignr_epi8(v3, v2, 4);
        let t3 = _mm_add_epi32(t1, t2);
        _mm_sha256msg2_epu32(t3, v3)
    }

    /// Four rounds from the schedule words `w` and round constants `K[4i..]`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_loadu_si128(K.as_ptr().add(4 * $i) as *const __m128i);
            let t = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, t);
            let t_hi = _mm_shuffle_epi32(t, 0x0E);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, t_hi);
        }};
    }

    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:expr, $w1:expr, $w2:expr, $w3:expr, $w4:expr, $i:expr) => {{
            $w4 = schedule($w0, $w1, $w2, $w3);
            rounds4!($abef, $cdgh, $w4, $i);
        }};
    }

    /// Compresses a 64-byte-aligned span (`data.len() % 64 == 0`).
    ///
    /// # Safety
    ///
    /// The caller must have confirmed [`available`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        // Byte shuffle turning little-endian lane loads into the big-endian
        // word order SHA-256 consumes.
        let mask = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH layout the
        // round instructions expect.
        let state_ptr = state.as_ptr() as *const __m128i;
        let dcba = _mm_loadu_si128(state_ptr);
        let hgfe = _mm_loadu_si128(state_ptr.add(1));
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in data.chunks_exact(64) {
            let abef_save = abef;
            let cdgh_save = cdgh;

            let p = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
            let mut w4;

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        // Unpack ABEF / CDGH back to [a,b,c,d] / [e,f,g,h].
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        let out = state.as_mut_ptr() as *mut __m128i;
        _mm_storeu_si128(out, dcba);
        _mm_storeu_si128(out.add(1), hgfe);
    }
}

/// SHA-256 rounds + message schedule on the ARMv8 cryptography extension —
/// the aarch64 twin of the [`shani`] core above.
///
/// The mapping is more direct than on x86: the eight state words live in
/// two `uint32x4_t` registers in plain `ABCD`/`EFGH` order, `SHA256H` /
/// `SHA256H2` (`vsha256hq_u32` / `vsha256h2q_u32`) advance **four** rounds
/// per pair, and `SHA256SU0`/`SHA256SU1` compute the schedule recurrence
/// four words at a time. Message words load little-endian and are fixed up
/// with a per-word byte reverse (`vrev32q_u8`).
///
/// Same scoped-`unsafe` contract as [`shani`]: safety is confined to CPU
/// feature availability (checked at runtime in [`available`]) — `vld1q_*`
/// / `vst1q_*` accept unaligned addresses. Correctness is pinned by the
/// FIPS 180-4 / NIST CAVP vectors in the test module, which run through
/// this path on ARMv8 crypto hardware.
///
/// [`available`]: sha2arm::available
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod sha2arm {
    use super::K;
    use core::arch::aarch64::*;

    /// Whether the CPU supports the instructions [`compress_blocks`] uses.
    /// `is_aarch64_feature_detected!` caches, so this is an atomic load per
    /// call.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_aarch64_feature_detected!("sha2")
    }

    /// Four rounds from the schedule words `w` and round constants `K[4i..]`.
    macro_rules! rounds4 {
        ($abcd:ident, $efgh:ident, $w:expr, $i:expr) => {{
            let wk = vaddq_u32($w, vld1q_u32(K.as_ptr().add(4 * $i)));
            let t = $abcd;
            $abcd = vsha256hq_u32($abcd, $efgh, wk);
            $efgh = vsha256h2q_u32($efgh, t, wk);
        }};
    }

    /// Schedule the next four message words in place, then run their rounds:
    /// `w0 = su1(su0(w0, w1), w2, w3)` is exactly `W[i] = W[i-16] + σ0(W[i-15])
    /// + W[i-7] + σ1(W[i-2])` four lanes at a time.
    macro_rules! schedule_rounds4 {
        ($abcd:ident, $efgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
            $w0 = vsha256su1q_u32(vsha256su0q_u32($w0, $w1), $w2, $w3);
            rounds4!($abcd, $efgh, $w0, $i);
        }};
    }

    /// Compresses a 64-byte-aligned span (`data.len() % 64 == 0`).
    ///
    /// # Safety
    ///
    /// The caller must have confirmed [`available`].
    #[target_feature(enable = "neon,sha2")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        let mut abcd = vld1q_u32(state.as_ptr());
        let mut efgh = vld1q_u32(state.as_ptr().add(4));

        for block in data.chunks_exact(64) {
            let abcd_save = abcd;
            let efgh_save = efgh;

            let p = block.as_ptr();
            let mut w0 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p)));
            let mut w1 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p.add(16))));
            let mut w2 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p.add(32))));
            let mut w3 = vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p.add(48))));

            rounds4!(abcd, efgh, w0, 0);
            rounds4!(abcd, efgh, w1, 1);
            rounds4!(abcd, efgh, w2, 2);
            rounds4!(abcd, efgh, w3, 3);
            schedule_rounds4!(abcd, efgh, w0, w1, w2, w3, 4);
            schedule_rounds4!(abcd, efgh, w1, w2, w3, w0, 5);
            schedule_rounds4!(abcd, efgh, w2, w3, w0, w1, 6);
            schedule_rounds4!(abcd, efgh, w3, w0, w1, w2, 7);
            schedule_rounds4!(abcd, efgh, w0, w1, w2, w3, 8);
            schedule_rounds4!(abcd, efgh, w1, w2, w3, w0, 9);
            schedule_rounds4!(abcd, efgh, w2, w3, w0, w1, 10);
            schedule_rounds4!(abcd, efgh, w3, w0, w1, w2, 11);
            schedule_rounds4!(abcd, efgh, w0, w1, w2, w3, 12);
            schedule_rounds4!(abcd, efgh, w1, w2, w3, w0, 13);
            schedule_rounds4!(abcd, efgh, w2, w3, w0, w1, 14);
            schedule_rounds4!(abcd, efgh, w3, w0, w1, w2, 15);

            abcd = vaddq_u32(abcd, abcd_save);
            efgh = vaddq_u32(efgh, efgh_save);
        }

        vst1q_u32(state.as_mut_ptr(), abcd);
        vst1q_u32(state.as_mut_ptr().add(4), efgh);
    }
}

/// Streaming SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block.
    buffer: [u8; 64],
    /// Bytes currently in `buffer`.
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// One-shot digest of `data` (see [`Sha256::digest_of`]).
    pub fn digest(data: &[u8]) -> Digest {
        Sha256::digest_of(data)
    }

    /// One-shot digest that skips the streaming state machine entirely:
    /// whole blocks compress straight from the input and the padded tail is
    /// built once on the stack. This is the hot entry point for value
    /// digests and statement hashing.
    pub fn digest_of(data: &[u8]) -> Digest {
        let mut state = H0;
        let whole = data.len() - data.len() % 64;
        compress_blocks(&mut state, &data[..whole]);

        // Padding: 0x80, zeros, 64-bit big-endian bit length — one block,
        // or two when the tail leaves no room for the length field.
        let tail = &data[whole..];
        let mut pad = [0u8; 128];
        pad[..tail.len()].copy_from_slice(tail);
        pad[tail.len()] = 0x80;
        let pad_len = if tail.len() < 56 { 64 } else { 128 };
        let bit_len = (data.len() as u64).wrapping_mul(8);
        pad[pad_len - 8..pad_len].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut state, &pad[..pad_len]);

        digest_from_state(&state)
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        // Fill a partial block first.
        if self.buffered > 0 {
            let want = 64 - self.buffered;
            let take = want.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                compress_blocks(&mut self.state, &block);
                self.buffered = 0;
            }
        }
        // Whole blocks straight from the input, as one aligned span.
        let whole = data.len() - data.len() % 64;
        compress_blocks(&mut self.state, &data[..whole]);
        data = &data[whole..];
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length — written
        // directly into the block buffer (the byte-at-a-time `update` loop
        // this replaces dominated the cost of hashing short messages).
        let buffered = self.buffered;
        self.buffer[buffered] = 0x80;
        if buffered < 56 {
            self.buffer[buffered + 1..56].fill(0);
        } else {
            // No room for the length: the padding spills into a second block.
            self.buffer[buffered + 1..].fill(0);
            let block = self.buffer;
            compress_blocks(&mut self.state, &block);
            self.buffer[..56].fill(0);
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        compress_blocks(&mut self.state, &block);

        digest_from_state(&self.state)
    }
}

/// Serializes the hash state as the big-endian digest (FIPS 180-4 §6.2.2
/// step 4).
#[inline]
fn digest_from_state(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST example: one-block message "abc".
    #[test]
    fn fips_one_block() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    /// FIPS 180-4 / NIST example: two-block message.
    #[test]
    fn fips_two_block() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// NIST CAVP: empty message.
    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    /// NIST CAVP short message (SHA256ShortMsg.rsp, Len = 8): "0xd3".
    #[test]
    fn cavp_single_byte() {
        assert_eq!(
            hex(&Sha256::digest(&[0xd3])),
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"
        );
    }

    /// NIST long-message style check: one million 'a' characters.
    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Streaming in odd chunk sizes must match the one-shot digest.
    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..1037u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        for chunk_size in [1, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    /// Exact block-boundary lengths exercise the padding edge cases.
    #[test]
    fn block_boundary_lengths() {
        // 55 bytes: padding fits in one block; 56 and 64: padding spills.
        let cases = [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
        ];
        for (len, expect) in cases {
            let data = vec![b'a'; len];
            assert_eq!(hex(&Sha256::digest(&data)), expect, "len {len}");
        }
    }

    /// The one-shot `digest_of` must agree with the streaming state machine
    /// at every padding edge (tail < 56, tail in 56..64, exact blocks).
    #[test]
    fn digest_of_equals_streaming_at_all_padding_edges() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 257] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut h = Sha256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(Sha256::digest_of(&data), h.finalize(), "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"x"), Sha256::digest(b"y"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(&[0]));
    }

    #[test]
    fn clone_preserves_state() {
        let mut a = Sha256::new();
        a.update(b"hello ");
        let mut b = a.clone();
        a.update(b"world");
        b.update(b"world");
        assert_eq!(a.finalize(), b.finalize());
    }
}
