/* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for Wire.

   Bodies of 64 bytes or more are folded with carry-less multiplies
   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
   PCLMULQDQ Instruction", Intel, 2009): four 128-bit lanes absorb 64
   bytes per step, collapse into one lane, and a Barrett reduction
   brings the remainder back to 32 bits.  The fold runs only on x86-64
   CPUs that report PCLMULQDQ and SSE4.1, probed once at start-up.
   Everything else -- short frames, the last [len mod 16] bytes and
   other targets -- goes through a slicing-by-8 table loop (Kounavis &
   Berry, ISCC 2005). */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

static uint32_t slices[8][256];

/* [slices[k][b]] is the CRC state after feeding byte [b] followed by
   [k] zero bytes, so eight input bytes fold into the state with eight
   independent lookups. */
static void build_slices(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++)
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    slices[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t c = slices[k - 1][n];
      slices[k][n] = slices[0][c & 0xff] ^ (c >> 8);
    }
}

static inline uint32_t load_le32(const uint8_t *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static uint32_t crc_slices(uint32_t c, const uint8_t *p, size_t len)
{
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = load_le32(p) ^ c;
    uint32_t hi = load_le32(p + 4);
    c = slices[7][lo & 0xff] ^ slices[6][(lo >> 8) & 0xff]
        ^ slices[5][(lo >> 16) & 0xff] ^ slices[4][lo >> 24]
        ^ slices[3][hi & 0xff] ^ slices[2][(hi >> 8) & 0xff]
        ^ slices[1][(hi >> 16) & 0xff] ^ slices[0][hi >> 24];
  }
  while (len--)
    c = slices[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return c;
}

/* Shortest body worth the fold: below it the set-up and the final
   reduction cost more than the table loop saves. */
#define FOLD_MIN 64

#if defined(__x86_64__)
#include <immintrin.h>

static int have_fold;

/* Folds the first [len & ~15] bytes ([len >= FOLD_MIN]) into the state
   [c]; the caller feeds the rest to the table loop.  The constants are
   x^k mod P for the reflected polynomial: k1/k2 move a lane 512 bits
   forward, k3/k4 128 bits, k5 folds 64 bits into 32, and mu / poly are
   the Barrett pair. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_fold(uint32_t c, const uint8_t *p, size_t len)
{
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596LL, 0x154442bd4LL);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009eLL, 0x1751997d0LL);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124LL);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641LL, 0x1db710641LL);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  __m128i x0 = _mm_loadu_si128((const __m128i *)p);
  __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 16));
  __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 32));
  __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 48));
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128((int)c));
  p += 64;
  len -= 64;
#define FOLD(x, k, data)                                                   \
  _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),            \
                              _mm_clmulepi64_si128(x, k, 0x11)),           \
                data)
  for (; len >= 64; p += 64, len -= 64) {
    x0 = FOLD(x0, k1k2, _mm_loadu_si128((const __m128i *)p));
    x1 = FOLD(x1, k1k2, _mm_loadu_si128((const __m128i *)(p + 16)));
    x2 = FOLD(x2, k1k2, _mm_loadu_si128((const __m128i *)(p + 32)));
    x3 = FOLD(x3, k1k2, _mm_loadu_si128((const __m128i *)(p + 48)));
  }
  x0 = FOLD(x0, k3k4, x1);
  x0 = FOLD(x0, k3k4, x2);
  x0 = FOLD(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16)
    x0 = FOLD(x0, k3k4, _mm_loadu_si128((const __m128i *)p));
#undef FOLD
  /* 128 -> 64 bits (appending 32 zero bits), then 64 -> 32 */
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5,
                                          0x00));
  /* Barrett reduction, bit-reflected */
  __m128i t = _mm_and_si128(x0, mask32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x10);
  t = _mm_and_si128(t, mask32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(t, x0), 1);
}
#endif

static uint32_t crc_update(uint32_t c, const uint8_t *p, size_t len)
{
#if defined(__x86_64__)
  if (have_fold && len >= FOLD_MIN) {
    size_t body = len & ~(size_t)15;
    c = crc_fold(c, p, body);
    p += body;
    len -= body;
  }
#endif
  return crc_slices(c, p, len);
}

/* Called once from Wire's initialisation, before any domain starts. */
value wire_crc32_init(value unit)
{
  (void)unit;
  build_slices();
#if defined(__x86_64__)
  __builtin_cpu_init();
  have_fold =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
  return Val_unit;
}

/* The range is checked by the OCaml caller. */
intnat wire_crc32(value buf, intnat off, intnat len)
{
  const uint8_t *p = (const uint8_t *)Bytes_val(buf) + off;
  return (intnat)(crc_update(0xffffffffu, p, (size_t)len) ^ 0xffffffffu);
}

value wire_crc32_byte(value buf, value off, value len)
{
  return Val_long(wire_crc32(buf, Long_val(off), Long_val(len)));
}
