/* SHA-1 compression (FIPS 180-4 §6.1.2) for Mini_bro.Sha1.

   Two kernels over the same interface.

   - The portable kernel: 32-bit words in uint32_t, message bytes loaded
     big-endian one unsigned char at a time, so the result depends neither
     on the host's byte order, nor on the signedness of char, nor on the
     alignment of the input.  It is the only kernel on every target but
     x86-64 under GCC or Clang, the fallback on x86-64 CPUs without the SHA
     extensions, and the oracle the tests check the other kernel against.
   - The SHA-NI kernel (x86-64, GCC or Clang only): four rounds per
     SHA1RNDS4 and the message schedule in SHA1MSG1/SHA1MSG2, the code path
     OpenSSL takes on the same CPUs.  It is compiled for its own target
     ("sha,sse4.1,ssse3") so the rest of the file, and the library, need
     no -march.

   [mini_bro_sha1_compress] reads CPUID once and runs the SHA-NI kernel
   when the CPU reports SHA (leaf 7, EBX bit 29), SSE4.1 (leaf 1, ECX bit
   19) and SSSE3 (leaf 1, ECX bit 9), and the portable kernel otherwise.
   Nothing else selects the kernel.

   The stubs are declared [@@noalloc] on the OCaml side: they never
   allocate, raise or call back into OCaml, so they need no
   CAMLparam/CAMLreturn.  The caller checks bounds; the stubs trust [off]
   and [blocks]. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
       | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store_be32(unsigned char *p, uint32_t x)
{
  p[0] = (unsigned char)(x >> 24);
  p[1] = (unsigned char)(x >> 16);
  p[2] = (unsigned char)(x >> 8);
  p[3] = (unsigned char)x;
}

/* ---- Portable kernel ---------------------------------------------------- */

#define ROTL(x, n) (((x) << (n)) | ((x) >> (32 - (n))))

/* The stage functions of FIPS 180-4 §4.1.1.  Ch and Maj use the
   equivalent forms with one operation fewer:
   (x & y) | (~x & z) = z ^ (x & (y ^ z)) and
   (x & y) | (x & z) | (y & z) = (x & y) | (z & (x | y)). */
#define CH(x, y, z) ((z) ^ ((x) & ((y) ^ (z))))
#define PARITY(x, y, z) ((x) ^ (y) ^ (z))
#define MAJ(x, y, z) (((x) & (y)) | ((z) & ((x) | (y))))

/* Schedule word t: the block's own words for t < 16, then computed in
   place in a 16-word ring.  Every call site passes a constant t, so the
   test and the ring indices fold away. */
#define W(t) \
  ((t) < 16 ? w[(t) & 15] \
            : (w[(t) & 15] = ROTL(w[((t) - 3) & 15] ^ w[((t) - 8) & 15] \
                                  ^ w[((t) - 14) & 15] ^ w[(t) & 15], 1)))

/* One round with the roles of a..e rotated instead of the values moved. */
#define ROUND(a, b, c, d, e, f, k, t) \
  do { \
    e += ROTL(a, 5) + f(b, c, d) + (k) + W(t); \
    b = ROTL(b, 30); \
  } while (0)

/* Five rounds bring the roles back to a..e. */
#define FIVE(f, k, t) \
  do { \
    ROUND(a, b, c, d, e, f, k, (t)); \
    ROUND(e, a, b, c, d, f, k, (t) + 1); \
    ROUND(d, e, a, b, c, f, k, (t) + 2); \
    ROUND(c, d, e, a, b, f, k, (t) + 3); \
    ROUND(b, c, d, e, a, f, k, (t) + 4); \
  } while (0)

#define K1 0x5A827999u
#define K2 0x6ED9EBA1u
#define K3 0x8F1BBCDCu
#define K4 0xCA62C1D6u

/* Compress the [k] 64-byte blocks at [p] into the chaining state [h]. */
static void compress_portable(uint32_t h[5], const unsigned char *p, intnat k)
{
  uint32_t w[16];
  int t;

  for (; k > 0; k--, p += 64) {
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];

    for (t = 0; t < 16; t++) w[t] = load_be32(p + 4 * t);
    FIVE(CH, K1, 0);      FIVE(CH, K1, 5);      FIVE(CH, K1, 10);     FIVE(CH, K1, 15);
    FIVE(PARITY, K2, 20); FIVE(PARITY, K2, 25); FIVE(PARITY, K2, 30); FIVE(PARITY, K2, 35);
    FIVE(MAJ, K3, 40);    FIVE(MAJ, K3, 45);    FIVE(MAJ, K3, 50);    FIVE(MAJ, K3, 55);
    FIVE(PARITY, K4, 60); FIVE(PARITY, K4, 65); FIVE(PARITY, K4, 70); FIVE(PARITY, K4, 75);

    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
}

/* ---- SHA-NI kernel ------------------------------------------------------ */

#ifdef HAVE_SHA_NI

#define SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/* Four rounds per step: step j (0..19) runs rounds 4j..4j+3 on schedule
   words W[4j..4j+3], held in m[j & 3] with W[4j] in the top lane, the
   lane order SHA1RNDS4 reads.  [e] carries E plus W[4j] into the rounds;
   [e_next] keeps ABCD from before them, from which SHA1NEXTE derives the
   next step's E.  Each step also advances the schedule of steps j+1..j+3
   by the recurrence W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]):
   SHA1MSG1 combines W[t-16] and W[t-14], the XOR adds W[t-8], SHA1MSG2
   adds W[t-3] and rotates.  The first four steps' words are the block's
   own, so the guards (constant j) leave them alone; schedule words past
   step 19 are dead and the compiler drops them. */
#define STEP(j) \
  do { \
    if ((j) == 0) e = _mm_add_epi32(e, m[0]); \
    else e = _mm_sha1nexte_epu32(e_next, m[(j) & 3]); \
    e_next = abcd; \
    abcd = _mm_sha1rnds4_epu32(abcd, e, (j) / 5); \
    if ((j) >= 3) m[((j) + 1) & 3] = _mm_sha1msg2_epu32(m[((j) + 1) & 3], m[(j) & 3]); \
    if ((j) >= 2) m[((j) + 2) & 3] = _mm_xor_si128(m[((j) + 2) & 3], m[(j) & 3]); \
    if ((j) >= 1) m[((j) + 3) & 3] = _mm_sha1msg1_epu32(m[((j) + 3) & 3], m[(j) & 3]); \
  } while (0)

SHA_NI_TARGET
static void compress_sha_ni(uint32_t h[5], const unsigned char *p, intnat k)
{
  /* PSHUFB mask reversing all 16 bytes: four big-endian message words
     become host words with the first in the top lane. */
  const __m128i bswap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_set_epi32((int)h[0], (int)h[1], (int)h[2], (int)h[3]);
  __m128i e0 = _mm_set_epi32((int)h[4], 0, 0, 0);
  __m128i m[4], e, e_next;

  for (; k > 0; k--, p += 64) {
    __m128i abcd_save = abcd, e0_save = e0;

    m[0] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    m[1] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    m[2] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    m[3] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    e = e0;
    STEP(0);  STEP(1);  STEP(2);  STEP(3);  STEP(4);
    STEP(5);  STEP(6);  STEP(7);  STEP(8);  STEP(9);
    STEP(10); STEP(11); STEP(12); STEP(13); STEP(14);
    STEP(15); STEP(16); STEP(17); STEP(18); STEP(19);
    e0 = _mm_sha1nexte_epu32(e_next, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  h[0] = (uint32_t)_mm_extract_epi32(abcd, 3);
  h[1] = (uint32_t)_mm_extract_epi32(abcd, 2);
  h[2] = (uint32_t)_mm_extract_epi32(abcd, 1);
  h[3] = (uint32_t)_mm_extract_epi32(abcd, 0);
  h[4] = (uint32_t)_mm_extract_epi32(e0, 3);
}

/* 1 when the CPU has SHA, SSE4.1 and SSSE3, 0 when not, -1 before the
   first call.  Every caller computes the same value, so racing domains
   at worst each read CPUID once. */
static int sha_ni_state = -1;

static int sha_ni_available(void)
{
  int s = __atomic_load_n(&sha_ni_state, __ATOMIC_RELAXED);
  if (s < 0) {
    unsigned int a, b, c, d;
    s = __get_cpuid(1, &a, &b, &c, &d)
        && (c & (1u << 19)) && (c & (1u << 9))
        && __get_cpuid_count(7, 0, &a, &b, &c, &d)
        && (b & (1u << 29));
    __atomic_store_n(&sha_ni_state, s, __ATOMIC_RELAXED);
  }
  return s;
}

#else

static int sha_ni_available(void) { return 0; }

#endif

/* ---- OCaml entry points ------------------------------------------------- */

typedef void kernel(uint32_t h[5], const unsigned char *p, intnat k);

/* Compress [blocks] whole 64-byte blocks of [src] starting at byte [off]
   into the chaining state [state] (20 bytes, five big-endian words) with
   kernel [f]. */
static value run(kernel *f, value state, value src, value off, value blocks)
{
  unsigned char *st = Bytes_val(state);
  uint32_t h[5];
  int i;

  for (i = 0; i < 5; i++) h[i] = load_be32(st + 4 * i);
  f(h, Bytes_val(src) + Long_val(off), Long_val(blocks));
  for (i = 0; i < 5; i++) store_be32(st + 4 * i, h[i]);
  return Val_unit;
}

/* The kernel this CPU runs. */
CAMLprim value mini_bro_sha1_compress(value state, value src, value off, value blocks)
{
#ifdef HAVE_SHA_NI
  if (sha_ni_available()) return run(compress_sha_ni, state, src, off, blocks);
#endif
  return run(compress_portable, state, src, off, blocks);
}

/* The portable kernel whatever the CPU: the tests' and the benchmark's
   reference. */
CAMLprim value mini_bro_sha1_compress_portable(value state, value src, value off, value blocks)
{
  return run(compress_portable, state, src, off, blocks);
}

/* Whether [mini_bro_sha1_compress] runs the SHA-NI kernel. */
CAMLprim value mini_bro_sha1_sha_ni(value unit)
{
  (void)unit;
  return Val_bool(sha_ni_available());
}
