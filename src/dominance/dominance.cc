// Copyright (c) SkyBench-NG contributors.
#include "dominance/dominance.h"

namespace sky {

DomCtx::DomCtx(int dims, int stride, bool use_simd)
    : d_(dims), stride_(stride), simd_(use_simd && CpuHasAvx2()) {
  SKY_CHECK(dims >= 1 && dims <= kMaxDims);
  SKY_CHECK(stride >= dims && stride % kSimdWidth == 0);
}

}  // namespace sky
