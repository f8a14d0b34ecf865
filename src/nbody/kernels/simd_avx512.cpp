// Explicit AVX-512 force kernel (8-lane __m512d, 16-wide target chunks).
//
// Compiled per-TU with -mavx512f -mavx512dq (plus the kernel fast flags);
// reached only after KernelDispatch confirmed runtime F+DQ and ZMM/opmask
// OS support.  Same structure and determinism contract as simd_avx2.cpp
// (fixed lane order, ascending source order, ascending tiles, fixed
// instruction sequence — see DESIGN.md §11), with the ISA differences:
//
//   * r^{-3/2} seeds from _mm512_rsqrt14_pd (2^-14 relative error), so two
//     Newton iterations in double reach sub-ulp instead of three;
//   * tail chunks (n_t % 16) and self-pair suppression use opmask
//     registers (__mmask8) instead of vector masks — masked loads/stores
//     suppress faults on dead lanes, and the self row zeroes the matching
//     lane's force with a single knot+maskz move.
#include "nbody/kernels/simd_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>

namespace specomp::nbody::kernels {

namespace {

/// One Newton–Raphson reciprocal-sqrt refinement: y <- y (1.5 - h y^2).
inline __m512d nr_step(__m512d y, __m512d h) noexcept {
  const __m512d t =
      _mm512_fnmadd_pd(_mm512_mul_pd(h, y), y, _mm512_set1_pd(1.5));
  return _mm512_mul_pd(y, t);
}

/// r2^{-3/2}: 14-bit hardware rsqrt seed, two double NR steps, cubed.  The
/// seed is the zero-masked form under an all-lanes mask: the same VRSQRT14PD
/// result as _mm512_rsqrt14_pd, whose undefined passthrough operand trips
/// GCC's -Wmaybe-uninitialized.
inline __m512d inv_r3(__m512d r2) noexcept {
  __m512d y = _mm512_maskz_rsqrt14_pd(0xFF, r2);
  const __m512d h = _mm512_mul_pd(_mm512_set1_pd(0.5), r2);
  y = nr_step(y, h);
  y = nr_step(y, h);
  return _mm512_mul_pd(_mm512_mul_pd(y, y), y);
}

/// Adds source row (xj,yj,zj,mj) into one 8-lane accumulator half; lanes in
/// `kill` contribute nothing (the self-pair mask).
inline void row_half(__m512d xj, __m512d yj, __m512d zj, __m512d mj,
                     __m512d tx, __m512d ty, __m512d tz, __m512d soft2,
                     __mmask8 kill, __m512d& lx, __m512d& ly,
                     __m512d& lz) noexcept {
  const __m512d dx = _mm512_sub_pd(xj, tx);
  const __m512d dy = _mm512_sub_pd(yj, ty);
  const __m512d dz = _mm512_sub_pd(zj, tz);
  __m512d r2 = _mm512_fmadd_pd(dx, dx, soft2);
  r2 = _mm512_fmadd_pd(dy, dy, r2);
  r2 = _mm512_fmadd_pd(dz, dz, r2);
  __m512d f = _mm512_mul_pd(mj, inv_r3(r2));
  f = _mm512_maskz_mov_pd(_knot_mask8(kill), f);
  lx = _mm512_fmadd_pd(f, dx, lx);
  ly = _mm512_fmadd_pd(f, dy, ly);
  lz = _mm512_fmadd_pd(f, dz, lz);
}

constexpr std::size_t kChunk = 16;  // two 8-lane halves

/// One target chunk (absolute indices [i, i+16), the last `16 - active`
/// lanes dead) against source rows [tile_begin, tile_end), self window
/// pre-clamped into the tile.
void chunk_accumulate(const SoaView& t, const SoaView& s, std::size_t i,
                      std::size_t active, std::size_t tile_begin,
                      std::size_t tile_end, std::size_t self_begin,
                      std::size_t self_end, std::size_t skip_offset,
                      double soft2, double* ax, double* ay, double* az) {
  const unsigned live = (active >= kChunk)
                            ? 0xFFFFu
                            : ((1u << static_cast<unsigned>(active)) - 1u);
  const __mmask8 m0 = static_cast<__mmask8>(live & 0xFFu);
  const __mmask8 m1 = static_cast<__mmask8>((live >> 8) & 0xFFu);

  const __m512d tx0 = _mm512_maskz_loadu_pd(m0, t.x + i);
  const __m512d ty0 = _mm512_maskz_loadu_pd(m0, t.y + i);
  const __m512d tz0 = _mm512_maskz_loadu_pd(m0, t.z + i);
  const __m512d tx1 = _mm512_maskz_loadu_pd(m1, t.x + i + 8);
  const __m512d ty1 = _mm512_maskz_loadu_pd(m1, t.y + i + 8);
  const __m512d tz1 = _mm512_maskz_loadu_pd(m1, t.z + i + 8);

  const __m512d soft2v = _mm512_set1_pd(soft2);
  __m512d lx0 = _mm512_setzero_pd(), ly0 = _mm512_setzero_pd();
  __m512d lz0 = _mm512_setzero_pd();
  __m512d lx1 = _mm512_setzero_pd(), ly1 = _mm512_setzero_pd();
  __m512d lz1 = _mm512_setzero_pd();

  const auto idx = [i](std::int64_t base) {
    const auto b = static_cast<std::int64_t>(i) + base;
    return _mm512_set_epi64(b + 7, b + 6, b + 5, b + 4, b + 3, b + 2, b + 1,
                            b);
  };
  const __m512i idx0 = idx(0);
  const __m512i idx1 = idx(8);

  const auto sweep = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t j = row_begin; j < row_end; ++j) {
      const __m512d xj = _mm512_set1_pd(s.x[j]);
      const __m512d yj = _mm512_set1_pd(s.y[j]);
      const __m512d zj = _mm512_set1_pd(s.z[j]);
      const __m512d mj = _mm512_set1_pd(s.m[j]);
      row_half(xj, yj, zj, mj, tx0, ty0, tz0, soft2v, 0, lx0, ly0, lz0);
      row_half(xj, yj, zj, mj, tx1, ty1, tz1, soft2v, 0, lx1, ly1, lz1);
    }
  };

  sweep(tile_begin, self_begin);
  for (std::size_t j = self_begin; j < self_end; ++j) {
    const __m512i self =
        _mm512_set1_epi64(static_cast<std::int64_t>(j - skip_offset));
    const __mmask8 kill0 = _mm512_cmpeq_epi64_mask(idx0, self);
    const __mmask8 kill1 = _mm512_cmpeq_epi64_mask(idx1, self);
    const __m512d xj = _mm512_set1_pd(s.x[j]);
    const __m512d yj = _mm512_set1_pd(s.y[j]);
    const __m512d zj = _mm512_set1_pd(s.z[j]);
    const __m512d mj = _mm512_set1_pd(s.m[j]);
    row_half(xj, yj, zj, mj, tx0, ty0, tz0, soft2v, kill0, lx0, ly0, lz0);
    row_half(xj, yj, zj, mj, tx1, ty1, tz1, soft2v, kill1, lx1, ly1, lz1);
  }
  sweep(self_end, tile_end);

  const auto add_out = [](double* out, __mmask8 mask, __m512d delta) {
    const __m512d prev = _mm512_maskz_loadu_pd(mask, out);
    _mm512_mask_storeu_pd(out, mask, _mm512_add_pd(prev, delta));
  };
  add_out(ax + i, m0, lx0);
  add_out(ay + i, m0, ly0);
  add_out(az + i, m0, lz0);
  add_out(ax + i + 8, m1, lx1);
  add_out(ay + i + 8, m1, ly1);
  add_out(az + i + 8, m1, lz1);
}

}  // namespace

void avx512_accumulate(const SoaView& t, const SoaView& s, double softening2,
                       std::size_t skip_offset, double* ax, double* ay,
                       double* az) {
  for (std::size_t tile_begin = 0; tile_begin < s.n;
       tile_begin += kSourceTile) {
    const std::size_t tile_end = std::min(s.n, tile_begin + kSourceTile);
    for (std::size_t i = 0; i < t.n; i += kChunk) {
      const std::size_t active = std::min(kChunk, t.n - i);
      std::size_t self_begin = tile_end;
      std::size_t self_end = tile_end;
      if (skip_offset != std::numeric_limits<std::size_t>::max()) {
        const std::size_t first = skip_offset + i;
        self_begin = std::clamp(first, tile_begin, tile_end);
        self_end = std::clamp(first + active, tile_begin, tile_end);
      }
      chunk_accumulate(t, s, i, active, tile_begin, tile_end, self_begin,
                       self_end, skip_offset, softening2, ax, ay, az);
    }
  }
}

}  // namespace specomp::nbody::kernels

#endif  // __AVX512F__ && __AVX512DQ__
