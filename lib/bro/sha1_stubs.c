/* SHA-1 compression (FIPS 180-4 §6.1.2) for Mini_bro.Sha1.

   One portable kernel: 32-bit words in uint32_t, message bytes loaded
   big-endian one unsigned char at a time, so the result depends neither
   on the host's byte order, nor on the signedness of char, nor on the
   alignment of the input.  No intrinsics and no CPU-specific code.

   The stub is declared [@@noalloc] on the OCaml side: it never allocates,
   raises or calls back into OCaml, so it needs no CAMLparam/CAMLreturn.
   The caller checks bounds; the stub trusts [off] and [blocks]. */

#include <stdint.h>
#include <caml/mlvalues.h>

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

/* Compress the 64-byte block at [p] into the chaining state [h]. */
static void compress(uint32_t h[5], const unsigned char *p)
{
  uint32_t w[16];
  uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  int t;

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

/* Compress [blocks] whole 64-byte blocks of [src] starting at byte [off]
   into the chaining state [state]: 20 bytes, five big-endian words. */
CAMLprim value mini_bro_sha1_compress(value state, value src, value off, value blocks)
{
  unsigned char *st = Bytes_val(state);
  const unsigned char *p = Bytes_val(src) + Long_val(off);
  intnat k = Long_val(blocks);
  uint32_t h[5];
  int i;

  for (i = 0; i < 5; i++) h[i] = load_be32(st + 4 * i);
  for (; k > 0; k--, p += 64) compress(h, p);
  for (i = 0; i < 5; i++) store_be32(st + 4 * i, h[i]);
  return Val_unit;
}
