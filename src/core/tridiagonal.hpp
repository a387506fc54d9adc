// Tridiagonal solver (Thomas algorithm) for the 1-D Helmholtz-like elliptic
// equation of the HE-VI scheme (paper Sec. IV-A-3).
//
// Each vertical column yields an independent system  a_k x_{k-1} + b_k x_k
// + c_k x_{k+1} = d_k ; columns are solved sequentially in k (the paper's
// GPU kernel marches threads along z for exactly this reason) and in
// parallel across the xy plane.
#pragma once

#include <cstddef>
#include <span>

#include "src/common/error.hpp"

namespace asuca {

/// Solve one tridiagonal system in place. `lower[0]` and `upper[n-1]` are
/// ignored. `rhs` is overwritten with the solution; `scratch` must have at
/// least n elements. Requires diagonal dominance for stability (satisfied
/// by the HE-VI operator, whose diagonal is 1 + O(dt^2 cs^2 / dz^2)).
template <class T>
inline void solve_tridiagonal(std::span<const T> lower, std::span<const T> diag,
                              std::span<const T> upper, std::span<T> rhs,
                              std::span<T> scratch) {
    const std::size_t n = diag.size();
    ASUCA_ASSERT(n >= 1, "empty tridiagonal system");
    ASUCA_ASSERT(lower.size() == n && upper.size() == n && rhs.size() == n &&
                     scratch.size() >= n,
                 "tridiagonal size mismatch");
    // Forward sweep.
    T beta = diag[0];
    rhs[0] = rhs[0] / beta;
    for (std::size_t k = 1; k < n; ++k) {
        scratch[k] = upper[k - 1] / beta;
        beta = diag[k] - lower[k] * scratch[k];
        rhs[k] = (rhs[k] - lower[k] * rhs[k - 1]) / beta;
    }
    // Back substitution.
    for (std::size_t k = n - 1; k-- > 0;) {
        rhs[k] = rhs[k] - scratch[k + 1] * rhs[k + 1];
    }
}

/// Solve `w` independent tridiagonal systems simultaneously (the paper's
/// Fig. 2b kernel marches one thread per column; this is the CPU analogue
/// with SIMD lanes as the threads). Systems are stored interleaved: the
/// level-k coefficient of lane l lives at index k*stride + l, so the inner
/// lane loop is unit-stride (not vectorized at the default -O2, see
/// field/simd.hpp). `beta` must have at least
/// `stride` elements; `lower`/`diag`/`upper`/`rhs`/`scratch` at least
/// n*stride. Requires w <= stride.
///
/// Each lane executes exactly the operation sequence of
/// solve_tridiagonal, so per-column results are bitwise identical to the
/// scalar sweep for ANY w (on targets without implicit FMA contraction —
/// the default build; see -DASUCA_NATIVE_ARCH in DESIGN.md).
template <class T>
inline void solve_tridiagonal_batched(const T* lower, const T* diag,
                                      const T* upper, T* rhs, T* scratch,
                                      T* beta, std::size_t n, std::size_t w,
                                      std::size_t stride) {
    ASUCA_ASSERT(n >= 1, "empty tridiagonal system");
    ASUCA_ASSERT(w >= 1 && w <= stride, "bad batch width " << w
                                            << " for stride " << stride);
    // Forward sweep.
    for (std::size_t l = 0; l < w; ++l) {
        beta[l] = diag[l];
        rhs[l] = rhs[l] / beta[l];
    }
    for (std::size_t k = 1; k < n; ++k) {
        const std::size_t row = k * stride;
        const std::size_t prev = row - stride;
        for (std::size_t l = 0; l < w; ++l) {
            scratch[row + l] = upper[prev + l] / beta[l];
            beta[l] = diag[row + l] - lower[row + l] * scratch[row + l];
            rhs[row + l] =
                (rhs[row + l] - lower[row + l] * rhs[prev + l]) / beta[l];
        }
    }
    // Back substitution.
    for (std::size_t k = n - 1; k-- > 0;) {
        const std::size_t row = k * stride;
        const std::size_t next = row + stride;
        for (std::size_t l = 0; l < w; ++l) {
            rhs[row + l] = rhs[row + l] - scratch[next + l] * rhs[next + l];
        }
    }
}

}  // namespace asuca
