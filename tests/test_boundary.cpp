// Tests for the lateral boundary-condition halo fills.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/core/boundary.hpp"

namespace asuca {
namespace {

// The original serial fills, one index wrap per halo cell: the oracle the
// copy-based fills in boundary.hpp must reproduce bit for bit.
namespace reference {
template <class T>
void fill_periodic_x(Array3<T>& a, Index period) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k) {
            for (Index i = -h; i < 0; ++i)
                a(i, j, k) = a(detail::wrap(i, period), j, k);
            for (Index i = period; i < a.nx() + h; ++i)
                a(i, j, k) = a(detail::wrap(i, period), j, k);
        }
    }
}

template <class T>
void fill_periodic_y(Array3<T>& a, Index period) {
    const Index h = a.halo();
    for (Index j = -h; j < 0; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, detail::wrap(j, period), k);
    }
    for (Index j = period; j < a.ny() + h; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, detail::wrap(j, period), k);
    }
}

template <class T>
void fill_zero_gradient_x(Array3<T>& a) {
    const Index h = a.halo();
    for (Index j = -h; j < a.ny() + h; ++j) {
        for (Index k = -h; k < a.nz() + h; ++k) {
            for (Index i = -h; i < 0; ++i) a(i, j, k) = a(0, j, k);
            for (Index i = a.nx(); i < a.nx() + h; ++i)
                a(i, j, k) = a(a.nx() - 1, j, k);
        }
    }
}

template <class T>
void fill_zero_gradient_y(Array3<T>& a) {
    const Index h = a.halo();
    for (Index j = -h; j < 0; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, 0, k);
    for (Index j = a.ny(); j < a.ny() + h; ++j)
        for (Index k = -h; k < a.nz() + h; ++k)
            for (Index i = -h; i < a.nx() + h; ++i)
                a(i, j, k) = a(i, a.ny() - 1, k);
}

template <class T>
void apply_lateral_bc(Array3<T>& a, LateralBc bc, Index x_period,
                      Index y_period) {
    if (bc == LateralBc::Periodic) {
        reference::fill_periodic_x(a, x_period);
        reference::fill_periodic_y(a, y_period);
    } else {
        reference::fill_zero_gradient_x(a);
        reference::fill_zero_gradient_y(a);
    }
}
}  // namespace reference

Array3<double> numbered(Int3 ext, Index halo, Layout layout) {
    Array3<double> a(ext, halo, layout, -999.0);
    for (Index j = 0; j < ext.y; ++j)
        for (Index k = 0; k < ext.z; ++k)
            for (Index i = 0; i < ext.x; ++i)
                a(i, j, k) = 100.0 * static_cast<double>(i) +
                             10.0 * static_cast<double>(j) +
                             static_cast<double>(k);
    return a;
}

class BoundaryLayouts : public ::testing::TestWithParam<Layout> {};

TEST_P(BoundaryLayouts, PeriodicWrapsCenteredArray) {
    auto a = numbered({6, 5, 4}, 2, GetParam());
    apply_lateral_bc(a, LateralBc::Periodic, 6, 5);
    for (Index k = 0; k < 4; ++k) {
        for (Index j = 0; j < 5; ++j) {
            EXPECT_EQ(a(-1, j, k), a(5, j, k));
            EXPECT_EQ(a(-2, j, k), a(4, j, k));
            EXPECT_EQ(a(6, j, k), a(0, j, k));
            EXPECT_EQ(a(7, j, k), a(1, j, k));
        }
        for (Index i = 0; i < 6; ++i) {
            EXPECT_EQ(a(i, -1, k), a(i, 4, k));
            EXPECT_EQ(a(i, 5, k), a(i, 0, k));
        }
    }
}

TEST_P(BoundaryLayouts, PeriodicFillsCornersConsistently) {
    auto a = numbered({6, 5, 3}, 2, GetParam());
    apply_lateral_bc(a, LateralBc::Periodic, 6, 5);
    // Corner halo (-1,-1) must equal the opposite interior corner (5,4).
    EXPECT_EQ(a(-1, -1, 1), a(5, 4, 1));
    EXPECT_EQ(a(7, 6, 2), a(1, 1, 2));
    EXPECT_EQ(a(-2, 5, 0), a(4, 0, 0));
}

TEST_P(BoundaryLayouts, PeriodicStaggeredDuplicatesFacePlane) {
    // x-face array of extent nx+1 with period nx: face nx aliases face 0.
    auto a = numbered({7, 5, 3}, 2, GetParam());  // nx=6 -> extent 7
    apply_lateral_bc(a, LateralBc::Periodic, 6, 5);
    for (Index j = 0; j < 5; ++j)
        for (Index k = 0; k < 3; ++k) {
            EXPECT_EQ(a(6, j, k), a(0, j, k));
            EXPECT_EQ(a(-1, j, k), a(5, j, k));
        }
}

TEST_P(BoundaryLayouts, ZeroGradientCopiesEdge) {
    auto a = numbered({6, 5, 3}, 2, GetParam());
    apply_lateral_bc(a, LateralBc::ZeroGradient, 6, 5);
    for (Index k = 0; k < 3; ++k) {
        for (Index j = 0; j < 5; ++j) {
            EXPECT_EQ(a(-1, j, k), a(0, j, k));
            EXPECT_EQ(a(-2, j, k), a(0, j, k));
            EXPECT_EQ(a(7, j, k), a(5, j, k));
        }
        EXPECT_EQ(a(2, -2, k), a(2, 0, k));
        EXPECT_EQ(a(2, 6, k), a(2, 4, k));
        // Corners: x fill then y fill leaves the edge value.
        EXPECT_EQ(a(-2, -2, k), a(0, 0, k));
    }
}

TEST_P(BoundaryLayouts, CopyFillMatchesModuloReferenceBitwise) {
    struct Shape {
        const char* what;
        Int3 ext;
        Index halo, nx, ny;  // nx, ny: the periods passed to the fill
    };
    const Shape shapes[] = {
        {"centered", {6, 5, 4}, 2, 6, 5},
        {"x-face", {7, 5, 4}, 2, 6, 5},
        {"y-face", {6, 6, 4}, 2, 6, 5},
        {"z-face", {6, 5, 5}, 3, 6, 5},
        // Periods shorter than the halo: halo cells wrap more than once.
        {"period<halo centered", {2, 2, 3}, 3, 2, 2},
        {"period<halo x-face", {3, 2, 3}, 3, 2, 2},
        {"period<halo y-face", {2, 3, 3}, 3, 2, 2},
    };
    for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
        ThreadPool::set_global_threads(threads);
        for (const Shape& s : shapes) {
            for (const LateralBc bc :
                 {LateralBc::Periodic, LateralBc::ZeroGradient}) {
                // Distinct values in every cell, halos included, so a
                // halo cell the fill skips or misroutes shows up.
                Array3<double> got(s.ext, s.halo, GetParam());
                for (std::size_t n = 0; n < got.size(); ++n)
                    got.data()[n] = 0.5 + static_cast<double>(n);
                Array3<double> want = got;
                apply_lateral_bc(got, bc, s.nx, s.ny);
                reference::apply_lateral_bc(want, bc, s.nx, s.ny);
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(double)),
                          0)
                    << s.what << ", "
                    << (bc == LateralBc::Periodic ? "periodic"
                                                  : "zero-gradient")
                    << ", " << threads << " threads";
            }
        }
    }
    ThreadPool::set_global_threads(0);  // restore the default pool
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, BoundaryLayouts,
                         ::testing::Values(Layout::ZXY, Layout::XZY),
                         [](const auto& info) {
                             return info.param == Layout::ZXY ? "kij" : "xzy";
                         });

TEST(Boundary, PeriodicIsIdempotent) {
    auto a = numbered({8, 6, 3}, 3, Layout::XZY);
    apply_lateral_bc(a, LateralBc::Periodic, 8, 6);
    auto b = a;
    apply_lateral_bc(a, LateralBc::Periodic, 8, 6);
    EXPECT_EQ(max_abs_diff(a, b), 0.0);
    // Halos too.
    for (Index j = -3; j < 9; ++j)
        for (Index k = 0; k < 3; ++k)
            for (Index i = -3; i < 11; ++i)
                EXPECT_EQ(a(i, j, k), b(i, j, k));
}

}  // namespace
}  // namespace asuca
