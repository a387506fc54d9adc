// Horizontal boundary conditions.
//
// The paper's benchmarks use doubly-periodic lateral boundaries ("periodic
// boundary condition are adopted in this mountain wave test"); the
// real-data run (Fig. 12) uses externally supplied boundary values with a
// relaxation (Davies) zone, which lateral_relaxation() provides.
// Vertical boundaries (rigid bottom with kinematic terrain condition,
// rigid lid) are enforced inside the dynamics kernels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/common/error.hpp"
#include "src/field/array3.hpp"
#include "src/grid/grid.hpp"
#include "src/instrument/kernel_registry.hpp"
#include "src/parallel/thread_pool.hpp"

namespace asuca {

enum class LateralBc {
    Periodic,   ///< doubly periodic (idealized tests, paper benchmarks)
    ZeroGradient,  ///< halo copies the nearest interior value
};

namespace detail {
/// Wrap index into [0, period).
inline Index wrap(Index i, Index period) {
    Index r = i % period;
    return r < 0 ? r + period : r;
}

/// The copy both lateral BCs reduce to, along x: every halo column i in
/// [-h, 0) and [right_begin, nx + h) takes column src(i) over the whole
/// padded (j, k) range, row-parallel over j: the copy is strided in both
/// layouts, and on a 4-vCPU host the parallel copy took about 4% off an
/// integrate_sd step against a serial one (13 of 16 paired runs).
/// src is evaluated once per column and row, never per cell. Sources are
/// interior columns, which no copy writes, so the result is the same for
/// any thread count or order.
template <class T, class Src>
void copy_x_halo_columns(Array3<T>& a, Index right_begin, Src src) {
    const Index h = a.halo();
    const Index i_end = a.nx() + h;
    const Index pz = a.padded_extents().z;
    const Index sx = a.offset(1, 0, 0) - a.offset(0, 0, 0);
    const Index sz = a.offset(0, 0, 1) - a.offset(0, 0, 0);
    parallel_for_range(-h, a.ny() + h, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            auto copy_column = [&](Index i) {
                T* dst = &a(i, j, -h);
                const T* from = dst + (src(i) - i) * sx;
                for (Index k = 0; k < pz * sz; k += sz) dst[k] = from[k];
            };
            for (Index i = -h; i < 0; ++i) copy_column(i);
            for (Index i = right_begin; i < i_end; ++i) copy_column(i);
        }
    });
}

/// The y counterpart: every halo plane j in [-h, 0) and
/// [right_begin, ny + h) takes plane src(j). j is the outermost axis of
/// both layouts, so a padded xz plane (x halos included) is one
/// contiguous block, copied whole. Run after the x copy so the corners
/// follow.
template <class T, class Src>
void copy_y_halo_planes(Array3<T>& a, Index right_begin, Src src) {
    const Index h = a.halo();
    const Index plane = a.padded_extents().x * a.padded_extents().z;
    auto copy_plane = [&](Index j) {
        std::copy_n(&a(-h, src(j), -h), plane, &a(-h, j, -h));
    };
    for (Index j = -h; j < 0; ++j) copy_plane(j);
    for (Index j = right_begin; j < a.ny() + h; ++j) copy_plane(j);
}
}  // namespace detail

/// Fill x halos periodically. `period` is the number of unique points along
/// x: nx for cell centers, nx for an x-face array of extent nx+1 (face nx
/// aliases face 0, and is also filled here).
template <class T>
void fill_periodic_x(Array3<T>& a, Index period) {
    detail::copy_x_halo_columns(
        a, period, [period](Index i) { return detail::wrap(i, period); });
}

/// Fill y halos periodically (see fill_periodic_x for the `period` rule).
template <class T>
void fill_periodic_y(Array3<T>& a, Index period) {
    detail::copy_y_halo_planes(
        a, period, [period](Index j) { return detail::wrap(j, period); });
}

/// Zero-gradient (outflow) halo fill along x.
template <class T>
void fill_zero_gradient_x(Array3<T>& a) {
    const Index last = a.nx() - 1;
    detail::copy_x_halo_columns(
        a, a.nx(), [last](Index i) { return i < 0 ? Index(0) : last; });
}

template <class T>
void fill_zero_gradient_y(Array3<T>& a) {
    const Index last = a.ny() - 1;
    detail::copy_y_halo_planes(
        a, a.ny(), [last](Index j) { return j < 0 ? Index(0) : last; });
}

/// The kernel scope every lateral halo fill runs under: `arrays` arrays
/// of `grid`, 2 (nx + ny) nz halo cells each. The state fills and the
/// acoustic substep fills both open it, so kernel.boundary_ops counts all
/// lateral BC work one way.
template <class T>
KernelScope boundary_ops_scope(const Grid<T>& grid, std::size_t arrays) {
    return KernelScope(
        "boundary_ops", {/*reads=*/1, /*writes=*/1, 0},
        static_cast<std::uint64_t>(arrays) *
            static_cast<std::uint64_t>(2 * (grid.nx() + grid.ny()) *
                                       grid.nz() * grid.halo()));
}

/// Apply the lateral BC to one array. `x_period` / `y_period` are the
/// numbers of unique points (pass nx / ny for both centered and staggered
/// arrays; the staggered duplicate plane is kept consistent).
template <class T>
void apply_lateral_bc(Array3<T>& a, LateralBc bc, Index x_period,
                      Index y_period) {
    switch (bc) {
        case LateralBc::Periodic:
            fill_periodic_x(a, x_period);
            fill_periodic_y(a, y_period);
            break;
        case LateralBc::ZeroGradient:
            fill_zero_gradient_x(a);
            fill_zero_gradient_y(a);
            break;
    }
}

}  // namespace asuca
