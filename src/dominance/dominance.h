// Copyright (c) SkyBench-NG contributors.
// Dominance-test kernels — the primary operation of every skyline
// algorithm (paper §IV-A). All kernels operate on SIMD-padded rows: the
// row stride is a multiple of kSimdWidth floats and padding lanes are
// zero, so they compare equal and never influence the verdict.
#ifndef SKY_DOMINANCE_DOMINANCE_H_
#define SKY_DOMINANCE_DOMINANCE_H_

#include "common/macros.h"
#include "common/types.h"

namespace sky {

/// True iff p strictly dominates q (Definition 2): p <= q on every
/// dimension and p < q on at least one. Coincident points do not dominate
/// each other, so duplicated skyline points are all retained.
SKY_ALWAYS_INLINE bool DominatesScalar(const Value* SKY_RESTRICT p,
                                       const Value* SKY_RESTRICT q, int d) {
  bool strict = false;
  for (int i = 0; i < d; ++i) {
    if (p[i] > q[i]) return false;
    strict |= p[i] < q[i];
  }
  return strict;
}

/// True iff p "may dominate" q (Definition 1): p <= q on every dimension.
SKY_ALWAYS_INLINE bool PotentiallyDominatesScalar(const Value* SKY_RESTRICT p,
                                                  const Value* SKY_RESTRICT q,
                                                  int d) {
  for (int i = 0; i < d; ++i) {
    if (p[i] > q[i]) return false;
  }
  return true;
}

/// Full two-way comparison.
SKY_ALWAYS_INLINE Relation CompareScalar(const Value* SKY_RESTRICT p,
                                         const Value* SKY_RESTRICT q, int d) {
  bool p_lt = false, q_lt = false;
  for (int i = 0; i < d; ++i) {
    p_lt |= p[i] < q[i];
    q_lt |= q[i] < p[i];
    if (p_lt && q_lt) return Relation::kIncomparable;
  }
  if (p_lt) return Relation::kLeftDominates;
  if (q_lt) return Relation::kRightDominates;
  return Relation::kEqual;
}

/// Partition mask of p relative to pivot v (paper §VI-A2):
/// bit i = (p[i] < v[i]) ? 0 : 1.
SKY_ALWAYS_INLINE Mask PartitionMaskScalar(const Value* SKY_RESTRICT p,
                                           const Value* SKY_RESTRICT v,
                                           int d) {
  Mask m = 0;
  for (int i = 0; i < d; ++i) {
    m |= static_cast<Mask>(p[i] >= v[i]) << i;
  }
  return m;
}

/// True iff p and q are coincident on the first d dimensions.
SKY_ALWAYS_INLINE bool EqualScalar(const Value* SKY_RESTRICT p,
                                   const Value* SKY_RESTRICT q, int d) {
  for (int i = 0; i < d; ++i) {
    if (p[i] != q[i]) return false;
  }
  return true;
}

// Vectorized (AVX2) kernels, compiled in when SKY_HAVE_AVX2 is defined.
// `dpad` must be the padded row stride (multiple of 8). Loads are
// unaligned-tolerant (loadu; identical throughput on aligned rows), so
// stack/vector-backed pivots are accepted. Defined in simd.cc.
bool DominatesAvx2(const Value* p, const Value* q, int dpad);
bool PotentiallyDominatesAvx2(const Value* p, const Value* q, int dpad);
Relation CompareAvx2(const Value* p, const Value* q, int dpad);
Mask PartitionMaskAvx2(const Value* p, const Value* v, int d, int dpad);
bool EqualAvx2(const Value* p, const Value* q, int dpad);

/// Runtime check that the host CPU executes AVX2.
bool CpuHasAvx2();

class TileBlock;  // SoA tiles for the batched kernels (dominance/batch.h)

/// Bound dominance context: fixes dimensionality, padded stride, and
/// kernel flavour once per run so hot loops carry no re-dispatch cost
/// beyond one well-predicted branch.
class DomCtx {
 public:
  /// `use_simd` requests the vector kernels; silently falls back to scalar
  /// when the build or CPU lacks AVX2. The hot window scans always run the
  /// SoA tile entry points below, in the same flavour.
  DomCtx(int dims, int stride, bool use_simd);

  int dims() const { return d_; }
  int stride() const { return stride_; }
  bool simd() const { return simd_; }

  SKY_ALWAYS_INLINE bool Dominates(const Value* p, const Value* q) const {
    return simd_ ? DominatesAvx2(p, q, stride_) : DominatesScalar(p, q, d_);
  }

  SKY_ALWAYS_INLINE bool PotentiallyDominates(const Value* p,
                                              const Value* q) const {
    return simd_ ? PotentiallyDominatesAvx2(p, q, stride_)
                 : PotentiallyDominatesScalar(p, q, d_);
  }

  SKY_ALWAYS_INLINE Relation Compare(const Value* p, const Value* q) const {
    return simd_ ? CompareAvx2(p, q, stride_) : CompareScalar(p, q, d_);
  }

  SKY_ALWAYS_INLINE Mask PartitionMask(const Value* p, const Value* v) const {
    return simd_ ? PartitionMaskAvx2(p, v, d_, stride_)
                 : PartitionMaskScalar(p, v, d_);
  }

  SKY_ALWAYS_INLINE bool Equal(const Value* p, const Value* q) const {
    return simd_ ? EqualAvx2(p, q, stride_) : EqualScalar(p, q, d_);
  }

  // ---- Batched (tile) entry points, defined in batch.cc. Each works in
  // any build: with SIMD they run the AVX2 tile kernels, without they run
  // the scalar tile kernels — verdicts are identical either way.

  /// True iff some point among the first min(limit, tiles.size()) tile
  /// points strictly dominates q; early-outs per tile. Adds the number of
  /// per-lane tests performed to *dts when non-null.
  bool DominatedByAny(const Value* q, const TileBlock& tiles, size_t limit,
                      uint64_t* dts) const;

  /// True iff some tile point in [from, tiles.size()) strictly dominates
  /// q — the suffix complement of DominatedByAny's prefix limit, for
  /// callers that already checked q against an earlier prefix of an
  /// append-only window.
  bool DominatedInRange(const Value* q, const TileBlock& tiles, size_t from,
                        uint64_t* dts) const;

  /// Masked range scan (batch.h DominatedInMaskedRange*): true iff some
  /// tile point i in [from, to) with MaskMayDominate(masks[i], m), and
  /// pruned[i] == 0 when `pruned` is non-null, strictly dominates q.
  /// `masks` holds tiles.size() entries. Adds lanes tested to *dts and
  /// mask-rejected lanes to *skips (both non-null).
  bool DominatedInMaskedRange(const Value* q, const TileBlock& tiles,
                              const Mask* masks, Mask m, size_t from,
                              size_t to, uint8_t* pruned, uint64_t* dts,
                              uint64_t* skips) const;

  /// Number of points among the first min(limit, tiles.size()) tile
  /// points that strictly dominate q, early-outing once the count reaches
  /// `cap` — exact below cap, >= cap otherwise (k-skyband counting:
  /// cap = band_k, where any count >= band_k disqualifies identically).
  uint32_t CountDominators(const Value* q, const TileBlock& tiles,
                           size_t limit, uint32_t cap, uint64_t* dts) const;

  /// Many-vs-many: flag every candidate row i in [0, n) (AoS rows of this
  /// context's stride) dominated by some tile point. The window is walked
  /// in L1-sized chunks, each replayed against all surviving candidates
  /// (cache-blocked scan). Returns the number of rows newly flagged;
  /// rows already flagged on entry are skipped.
  size_t FilterTile(const Value* rows, size_t n, const TileBlock& tiles,
                    uint8_t* flags, uint64_t* dts) const;

 private:
  int d_;
  int stride_;
  bool simd_;
};

}  // namespace sky

#endif  // SKY_DOMINANCE_DOMINANCE_H_
